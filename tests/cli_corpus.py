"""CLI behaviour corpus: one sha256 per subcommand over fixed calls, one over
the refusals, one over calls at the top orders 62-64 and one over calls drawn
from seeds 1-3.

Each case runs ``starstab.cli.main(argv)`` in process, in a new temporary
directory that holds only its input files, so every path it prints is
relative. The record of a case is its argv, its exit code, its stdout, its
stderr and the sha256 of every file left in the directory. An argparse
refusal exits through ``SystemExit``, and only the last line of its stderr
(``starstab <subcommand>: error: ...``) is kept, because the usage text above
it varies between Python versions. A group's digest is the sha256 of its case
digests in order.

``tests/test_cli_corpus.py`` compares each group with its pin in
``tests/cli_corpus.json``. A change of behaviour regenerates the pins, and
lists the digest of each case to name the ones that changed::

    PYTHONPATH=src python tests/cli_corpus.py > tests/cli_corpus.json
    PYTHONPATH=src python tests/cli_corpus.py --cases

The module uses only the standard library, starstab and ``tests/helpers.py``;
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from starstab import bch_construct, encode_graph6, extremal_family, from_edges, star_stable
from starstab.cli import main
from helpers import CERTIFICATION_GRID

# The stab and extremal queries of the benchmark: every regime of the closed form.
STAB_QUERIES = ([(3, k) for k in (0, 5, 12)] + [(4, k) for k in range(13)]
                + [(6, k) for k in (0, 10, 22)] + [(8, k) for k in (0, 20, 40)])
SPARE_HOSTS = [(8, 9), (9, 10), (10, 11)]
# Order-6 patterns as edge lists, each with a labelling, expanded for 2 faults.
PATTERNS = [
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], (3, 1, 4, 6, 2, 5)),
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], (2, 4, 6, 1, 3, 5)),
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)], (1, 2, 3, 4, 5, 6)),
]
PATTERN_FAULTS = 2


def _g6(g) -> str:
    return encode_graph6(g) + "\n"


def _without(g, edge):
    return from_edges(g.n, [e for e in g.edges() if e != edge])


def _args(*argv) -> list[str]:
    return [str(a) for a in argv]


def _construct_cases():
    cases = [(_args("construct", "--r", 3, "--k", 0), {}),
             (_args("construct", "--r", 4, "--k", 2, "--dot"), {}),
             (_args("construct", "--pattern", "p.g6", "--k", 1), {"p.g6": "C@\n"})]
    for edges, labels in PATTERNS:
        argv = _args("construct", "--pattern", "p.g6", "--k", PATTERN_FAULTS,
                     "--labelling", ",".join(map(str, labels)))
        cases.append((argv, {"p.g6": _g6(from_edges(6, edges))}))
    return cases


def _verify_cases():
    cases = []

    def star_case(g, r, k):
        cases.append((_args("verify", "--graph", "g.g6", "--r", r, "--k", k), {"g.g6": _g6(g)}))

    for r, k in SPARE_HOSTS:
        host = star_stable(r, k)
        star_case(host, r, k)
        star_case(_without(host, (k, k + 1)), r, k)  # the last total and the first leaf
    star_case(star_stable(9, 10), 9, 8)
    star_case(star_stable(8, 9), 6, 9)
    for k in range(13, 18):  # the complement of a perfect matching, and a total vertex at even k
        host, = extremal_family(4, k)
        star_case(host, 4, k)
        star_case(_without(host, next(host.edges())), 4, k)
    for edges, labels in PATTERNS:
        pattern = from_edges(6, edges)
        host = bch_construct(pattern, PATTERN_FAULTS, labels).result
        # as built, and without its first three edges, which leaves a witness
        for g in (host, from_edges(host.n, list(host.edges())[3:])):
            cases.append((_args("verify", "--graph", "g.g6", "--pattern", "p.g6",
                                "--k", PATTERN_FAULTS),
                          {"g.g6": _g6(g), "p.g6": _g6(pattern)}))
    return cases


def _recover_cases():
    faults = {(3, 1): "2,2", (8, 9): "1,5,9", (9, 10): "20,2,3,4",
              (10, 11): "1,2,3,4,5,6,7,8,9,10,11"}
    return [(_args("recover", "--r", r, "--k", k, "--faults", f), {})
            for (r, k), f in faults.items()]


def _refusal_cases():
    """One refusal per input rule."""
    return [
        (_args("stab", "--r", 2, "--k", 1), {}),  # star size
        (_args("stab", "--r", 4, "--k", -1), {}),  # fault budget
        (_args("construct", "--r", 3, "--k", 61), {}),  # vertex cap
        (_args("stab", "--r", 4, "--k", "1_0"), {}),  # integer argument
        (_args("construct", "--r", 3, "--pattern", "p.g6", "--k", 1), {"p.g6": "C@\n"}),
        (_args("construct", "--r", 3, "--k", 1, "--labelling", "1,2,3"), {}),
        (_args("construct", "--r", 3, "--k", 1, "--labelling", "1,-,3,4"), {}),
        (_args("recover", "--r", 3, "--k", 1, "--faults", "1,,2"), {}),
        (_args("recover", "--r", 3, "--k", 1, "--faults", "1,2"), {}),  # fault budget
        (_args("recover", "--r", 3, "--k", 1, "--faults", 6), {}),  # fault label
        (_args("extremal", "--r", 3, "--k", 61, "--out", "fam"), {}),  # leaves no directory
        (_args("enumerate", "--edges", 30, "--max-vertices", 8), {}),  # size
        (_args("enumerate", "--edges", 3, "--max-vertices", 65), {}),  # order
        (_args("certify", "--r", 5, "--k", 5, "--out", "c.json"), {}),  # census budget
        (_args("verify", "--graph", "missing.g6", "--r", 3, "--k", 1), {}),  # file
        (_args("verify", "--graph", "g.g6", "--r", 3, "--k", 1), {"g.g6": b"C\xff\n"}),
        (_args("verify", "--graph", "g.g6", "--r", 3, "--k", 1), {"g.g6": "~?@A\n"}),  # order 66
        (_args("verify", "--graph", "g.g6", "--r", 3, "--k", 1), {"g.g6": "~???\n"}),
        (_args("verify", "--graph", "g.g6", "--r", 3, "--k", 1), {"g.g6": "C~~\n"}),
        (_args("verify", "--graph", "g.g6", "--r", 3, "--k", 1), {"g.g6": "B~\n"}),
        (_args("verify", "--graph", "g.g6", "--r", 3, "--k", 1), {"g.g6": "C\x7f\n"}),
        (_args("verify", "--graph", "g.g6", "--r", 3, "--k", 1), {"g.g6": "!\n"}),
        # a body byte that str.strip() would drop as Unicode whitespace
        (_args("verify", "--graph", "g.g6", "--r", 3, "--k", 1), {"g.g6": "C~\x1f"}),
        (_args("enumerate", "--edges", 3, "--max-vertices", -1), {}),  # order
        (_args("enumerate", "--edges", -1, "--max-vertices", 4), {}),  # size
    ]


def _top_order_cases():
    """Calls at orders 62-64, where graph6 text moves to its long-form header."""
    host, = extremal_family(3, 60)
    cases = [(_args("stab", "--r", 3, "--k", k), {}) for k in (58, 59, 60)]
    cases += [(_args("extremal", "--r", 3, "--k", 60, "--out", "fam"), {}),
              (_args("construct", "--r", 3, "--k", 60, "--dot"), {}),
              (_args("certify", "--r", 3, "--k", 60, "--out", "cert.json"), {}),
              (_args("enumerate", "--edges", 2, "--max-vertices", 64), {})]
    for g in (host, _without(host, next(host.edges()))):
        cases.append((_args("verify", "--graph", "g.g6", "--r", 3, "--k", 60), {"g.g6": _g6(g)}))
    return cases


def _random_pattern(rng: random.Random, n: int):
    """Connected pattern: a random tree plus each other pair with chance 1/3."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for v in range(n) for u in range(v)
              if (u, v) not in edges and rng.random() < 1 / 3}
    return from_edges(n, sorted(edges))


def _seeded_cases():
    """Calls drawn from ``random.Random(seed)`` for seeds 1-3: patterns and
    labellings expanded and verified, one edge deleted from each spare and
    regular host, and a fault list for each recovery."""
    cases = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(3):
            pattern = _random_pattern(rng, 6)
            labels = list(range(1, 7))
            rng.shuffle(labels)
            host = bch_construct(pattern, PATTERN_FAULTS, labels).result
            cases.append((_args("construct", "--pattern", "p.g6", "--k", PATTERN_FAULTS,
                                "--labelling", ",".join(map(str, labels))),
                          {"p.g6": _g6(pattern)}))
            cases.append((_args("verify", "--graph", "g.g6", "--pattern", "p.g6",
                                "--k", PATTERN_FAULTS),
                          {"g.g6": _g6(host), "p.g6": _g6(pattern)}))
        hosts = [(star_stable(r, k), r, k, (rng.randrange(k + 1), rng.randrange(k + 1, r + k + 1)))
                 for r, k in SPARE_HOSTS]  # a total and a leaf
        for k in range(13, 18):
            host, = extremal_family(4, k)
            hosts.append((host, 4, k, rng.choice(list(host.edges()))))
        for host, r, k, edge in hosts:
            cases.append((_args("verify", "--graph", "g.g6", "--r", r, "--k", k),
                          {"g.g6": _g6(_without(host, edge))}))
        for r, k in SPARE_HOSTS:
            faults = rng.sample(range(1, r + k + 2), rng.randint(1, k))
            cases.append((_args("recover", "--r", r, "--k", k,
                                "--faults", ",".join(map(str, faults))), {}))
    return cases


CASES = {
    "construct": _construct_cases(),
    "verify": _verify_cases(),
    "stab": [(_args("stab", "--r", r, "--k", k), {}) for r, k in STAB_QUERIES],
    "extremal": [(_args("extremal", "--r", r, "--k", k, "--out", "fam"), {})
                 for r, k in STAB_QUERIES],
    "certify": [(_args("certify", "--r", r, "--k", k, "--out", "cert.json"), {})
                for r, k in CERTIFICATION_GRID],
    "recover": _recover_cases(),
    "enumerate": [(_args("enumerate", "--edges", e, "--max-vertices", n), {})
                  for e, n in ((6, 12), (8, 16), (14, 8), (8, 62))],
    "refusals": _refusal_cases(),
    "top-orders": _top_order_cases(),
    "seeded": _seeded_cases(),
}


def run_case(argv: list[str], inputs: dict[str, str | bytes]) -> dict:
    """The record of one CLI call in a new directory holding ``inputs``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in inputs.items():
            path = root / name
            path.write_bytes(data if isinstance(data, bytes) else data.encode())
        out, err = io.StringIO(), io.StringIO()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                    stderr = err.getvalue()
                except SystemExit as exc:
                    code = exc.code
                    stderr = err.getvalue().splitlines()[-1]
        finally:
            os.chdir(cwd)
        files = {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(root.rglob("*")) if p.is_file()}
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": stderr, "files": files}


def case_digests(group: str) -> list[tuple[str, str]]:
    """(argv as one line, digest of the record) for each case of ``group``."""
    return [(" ".join(argv), hashlib.sha256(
        json.dumps(run_case(argv, inputs), sort_keys=True).encode()).hexdigest())
        for argv, inputs in CASES[group]]


def group_digest(group: str) -> str:
    return hashlib.sha256("".join(d for _, d in case_digests(group)).encode()).hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--cases"]:
        for group in CASES:
            for i, (line, digest) in enumerate(case_digests(group)):
                print(f"{group}\t{i}\t{digest}\t{line}")
    else:
        print(json.dumps({group: group_digest(group) for group in CASES}, indent=2))
