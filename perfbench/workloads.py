"""Workloads of the starstab benchmark: generated inputs and output checks.

Everything here is independent of the package under test. Graph6 text, host
graphs, the closed form of stab(r, k) and every output check are computed by
the benchmark itself, so a wrong answer from the program cannot make its own
check pass.

A workload is a list of operations. Each operation is one child process: a
cold ``certify(r, k)`` in a fresh interpreter, or one ``starstab`` CLI call.
The seed generates the deleted edges, patterns, labellings and fault sets,
and the order of the operations; it never changes how much work a pass does
by more than a few per cent.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# (r, k) -> (value, candidates_below, extremal_found), pinned from the
# package's certificates; the codes are today's canonical graph6 text.
PINNED_CERTIFICATES = {
    (4, 9): (84, 495, ("M~~~~zz|~^z~n~^~_",)),
    (4, 10): (98, 496, ("N~~~~~}~^v}~z~v~v~w",)),
    (5, 1): (11, 148, ("F}rE?",)),
    (5, 2): (18, 980, ("G~zfF?",)),
}

# Orders 14-15 with a complement budget of 8: few classes, deep canon search,
# and a decider that walks 0.36 M and 0.60 M fault sets.
CERTIFY_DEEP = [(4, 9), (4, 10)]
# Orders 7-8 with a complement budget of 11: ~1,100 classes and ~36 k shallow
# canon calls, so per-call overhead dominates and the decider is negligible.
CERTIFY_WIDE = [(5, 1), (5, 2)]
# r = 3 and r = 4 with k = 0..12 reach all six cases of the closed form; the
# dense extremal graphs at r = 4, k = 9..12 (orders 14-17) are where canon
# search is slowest. r = 6 and r = 8 stay in the small-k case up to order 49.
STAB_QUERIES = ([(3, k) for k in (0, 5, 12)] + [(4, k) for k in range(13)]
                + [(6, k) for k in (0, 10, 22)] + [(8, k) for k in (0, 20, 40)])
# Spare-vertex hosts of orders 18, 20 and 22 at k about n/2: the full fault-set
# walk of a stable host is the bulk of the workload.
VERIFY_SPARE_HOSTS = [(8, 9), (9, 10), (10, 11)]
# The same hosts checked for fewer faults and a smaller star (order above
# r + k + 1): (host r, host k, checked r, checked k).
VERIFY_LARGER_HOSTS = [(9, 10, 9, 8), (8, 9, 6, 9)]
# Regular extremal hosts at r = 4 (cases 3 and 4), orders 18-22.
VERIFY_REGULAR_HOSTS = [(4, k) for k in (13, 14, 15, 16, 17)]
RECOVER_INSTANCES = [(8, 9), (9, 10), (10, 11)]
PATTERN_ORDER = 6
PATTERN_FAULTS = 2
PATTERNS_PER_PASS = 3

# Two workloads, so that each run can measure for a minute: one where canon
# and the census take the time and the decider little, and one where the
# decider takes the time and canon never runs.
WORKLOADS = {
    "certify-stab": "cold certify(4,9), (4,10), (5,1), (5,2) and 44 CLI stab/extremal calls: "
                    "canon, deep and shallow, and the census; the decider is a few per cent",
    "verify-hosts": "27 cold CLI verify/construct/recover calls on hosts of order 7-22: "
                    "full fault-set walks and witnesses, canon never runs",
}

# Descriptor names as they appear in `starstab extremal` file names.
SPARE = "construction_g_rk"
REGULAR = "regular_survivor"
REGULAR_TOTAL = "regular_plus_total"

Check = Callable[[str, Path], "str | None"]


@dataclass
class Op:
    """One child process of a pass.

    ``args`` follow ``python -m starstab.cli`` (kind "cli") or
    ``child.py certify`` (kind "certify"). ``files`` are written into the
    pass directory before the pass starts. ``check`` returns a problem or
    None. ``returned_counts`` maps the output to the per-layer counts the
    trace of this operation must reproduce.
    """

    label: str
    kind: str
    args: list[str]
    check: Check
    files: dict[str, str] = field(default_factory=dict)
    returned_counts: Callable[[str], dict[str, int]] | None = None


# --- graphs, as (n, rows) with rows[v] the neighbour bitset of v ----------------

def encode_graph6(n: int, rows: list[int]) -> str:
    out = [chr(n + 63)]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (rows[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def decode_graph6(text: str) -> tuple[int, list[int]]:
    s = text.strip()
    n = ord(s[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"bad graph6 header in {s!r}")
    npairs = n * (n - 1) // 2
    body = s[1:]
    if len(body) != (npairs + 5) // 6:
        raise ValueError(f"graph6 body of {s!r} has the wrong length")
    bits = []
    for ch in body:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ValueError(f"bad graph6 byte in {s!r}")
        bits.extend(value >> (5 - b) & 1 for b in range(6))
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return n, rows


def spare_host(r: int, k: int) -> list[int]:
    """Join of K_{k+1} and r isolated vertices, leaves first (0..r-1).

    With the k+1 total vertices last, every witness of a total-leaf edge
    deletion is among the last k+1 fault sets in lexicographic order, so the
    deleted edge the seed picks barely changes the length of the walk.
    """
    n = r + k + 1
    full = (1 << n) - 1
    totals = full ^ ((1 << r) - 1)
    return [totals if v < r else full ^ (1 << v) for v in range(n)]


def regular_host(n: int) -> list[int]:
    """Complement of the perfect matching {0,1}, {2,3}, ...; a vertex of
    degree n-1 appended last when n is odd."""
    full = (1 << n) - 1
    m = n - n % 2
    rows = [full ^ (1 << v) ^ (1 << (v ^ 1)) for v in range(m)]
    if n % 2:
        rows.append(full ^ (1 << (n - 1)))
    return rows


def delete_edge(rows: list[int], u: int, v: int) -> list[int]:
    out = list(rows)
    out[u] &= ~(1 << v)
    out[v] &= ~(1 << u)
    return out


def bch_rows(pattern_edges: list[tuple[int, int]], labels: list[int], k: int) -> list[int]:
    """Spare-vertex expansion: labels i, j of a pattern edge connect all of
    {i..i+k} to all of {j..j+k}; label l is vertex l-1."""
    order = len(labels) + k
    rows = [0] * order
    for u, v in pattern_edges:
        i, j = labels[u], labels[v]
        for a in range(i, i + k + 1):
            for b in range(j, j + k + 1):
                if a != b:
                    rows[a - 1] |= 1 << (b - 1)
                    rows[b - 1] |= 1 << (a - 1)
    return rows


def random_pattern(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Connected pattern: a random tree plus each other pair with chance 1/3."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for v in range(n):
        for u in range(v):
            if (u, v) not in edges and rng.random() < 1 / 3:
                edges.add((u, v))
    return sorted(edges)


def _rows_of(n: int, edges: list[tuple[int, int]]) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


# --- the closed form ---------------------------------------------------------------

def closed_form(r: int, k: int) -> tuple[str, int, int | None, int | None, tuple[str, ...]]:
    """(case, stab(r, k), k0, k1, extremal descriptors) from the theorem."""
    if r % 2:
        return "ODD_R", (k + 1) * (2 * r + k) // 2, None, None, (SPARE,)
    k1, k0 = (r - 1) ** 2 - 2, (r - 1) ** 2
    spare_value = (k + 1) * (2 * r + k) // 2
    if k < k1:
        return "EVEN_R_SMALL_K", spare_value, k0, k1, (SPARE,)
    if k == k1:
        return "BOUNDARY_A", spare_value, k0, k1, (SPARE, REGULAR)
    if k == k1 + 1:
        return "BOUNDARY_B", spare_value, k0, k1, (SPARE, REGULAR_TOTAL)
    if k % 2:
        return "CASE_3", ((r + k) ** 2 - 1) // 2, k0, k1, (REGULAR,)
    return "CASE_4", (r + k) ** 2 // 2, k0, k1, (REGULAR_TOTAL,)


def _degree_profile(descriptor: str, r: int, k: int) -> list[int]:
    # Each extremal graph is determined up to isomorphism by its degrees:
    # K_{k+1} joined with r isolated vertices, the complement of a perfect
    # matching, or that complement plus one vertex adjacent to all.
    n = r + k + 1
    if descriptor == SPARE:
        return sorted([n - 1] * (k + 1) + [k + 1] * r)
    if descriptor == REGULAR:
        return [n - 2] * n
    return sorted([n - 2] * (n - 1) + [n - 1])


def _check_extremal_graph(text: str, descriptor: str, r: int, k: int, value: int) -> str | None:
    n, rows = decode_graph6(text)
    size = sum(row.bit_count() for row in rows) // 2
    if n != r + k + 1 or size != value:
        return f"{descriptor} graph {text!r} has order {n} and size {size}"
    if sorted(row.bit_count() for row in rows) != _degree_profile(descriptor, r, k):
        return f"{text!r} is not the {descriptor} graph"
    return None


def _first_problem(problems) -> str | None:
    return next((p for p in problems if p), None)


# --- operations --------------------------------------------------------------------

def certify_op(r: int, k: int) -> Op:
    value, below, codes = PINNED_CERTIFICATES[(r, k)]
    descriptors = closed_form(r, k)[4]

    def check(stdout: str, cwd: Path) -> str | None:
        cert = json.loads(stdout)
        if cert["claimed_value"] != value:
            return f"claimed_value {cert['claimed_value']} != {value}"
        if cert["candidates_below"] != below:
            return f"candidates_below {cert['candidates_below']} != {below}"
        if not (cert["minimality_ok"] and cert["match"]):
            return f"minimality_ok={cert['minimality_ok']} match={cert['match']}"
        if tuple(cert["extremal_found"]) != codes:
            return f"extremal_found {cert['extremal_found']} != {list(codes)}"
        return _first_problem(
            _check_extremal_graph(code, d, r, k, value) for code, d in zip(codes, descriptors))

    def returned(stdout: str) -> dict[str, int]:
        return {"certify.classes_below": json.loads(stdout)["candidates_below"]}

    return Op(f"certify r={r} k={k}", "certify", [str(r), str(k)], check, returned_counts=returned)


def stab_op(r: int, k: int) -> Op:
    case, value, k0, k1, descriptors = closed_form(r, k)

    def check(stdout: str, cwd: Path) -> str | None:
        out = json.loads(stdout)
        got = (out["r"], out["k"], out["case"], out["value"], out["k0"], out["k1"])
        if got != (r, k, case, value, k0, k1):
            return f"stab output {got} != closed form {(r, k, case, value, k0, k1)}"
        if len(out["extremal"]) != len(descriptors):
            return f"{len(out['extremal'])} extremal codes, expected {len(descriptors)}"
        return _first_problem(
            _check_extremal_graph(code, d, r, k, value)
            for code, d in zip(out["extremal"], descriptors))

    return Op(f"stab r={r} k={k}", "cli", ["stab", "--r", str(r), "--k", str(k)], check)


def extremal_op(r: int, k: int, index: int) -> Op:
    _, value, _, _, descriptors = closed_form(r, k)
    outdir = f"ext{index}"

    def check(stdout: str, cwd: Path) -> str | None:
        paths = stdout.split()
        if len(paths) != len(descriptors):
            return f"{len(paths)} extremal files, expected {len(descriptors)}"
        for idx, (path, d) in enumerate(zip(paths, descriptors)):
            if not path.endswith(f"extremal_r{r}_k{k}_{idx}_{d}.g6"):
                return f"unexpected extremal file name {path}"
            problem = _check_extremal_graph((cwd / path).read_text(), d, r, k, value)
            if problem:
                return problem
        return None

    args = ["extremal", "--r", str(r), "--k", str(k), "--out", outdir]
    return Op(f"extremal r={r} k={k}", "cli", args, check)


def _star_witness_problem(rows: list[int], r: int, k: int, witness) -> str | None:
    n = len(rows)
    if (not isinstance(witness, list) or len(witness) != k or len(set(witness)) != k
            or not all(isinstance(v, int) and 1 <= v <= n for v in witness)):
        return f"witness {witness} is not {k} distinct labels in 1..{n}"
    alive = (1 << n) - 1
    for v in witness:
        alive &= ~(1 << (v - 1))
    for v in range(n):
        if alive >> v & 1 and (rows[v] & alive).bit_count() >= r:
            return f"witness {witness} leaves vertex {v + 1} with degree >= {r}"
    return None


def verify_star_op(name: str, rows: list[int], r: int, k: int, stable: bool) -> Op:
    host = f"{name}.g6"

    def check(stdout: str, cwd: Path) -> str | None:
        out = json.loads(stdout)
        if out["stable"] is not stable:
            return f"stable={out['stable']}, expected {stable}"
        if not isinstance(out["checked_fault_sets"], int):
            return f"checked_fault_sets {out['checked_fault_sets']!r} is not a count"
        if stable:
            return None if out["witness"] is None else f"stable host with witness {out['witness']}"
        return _star_witness_problem(rows, r, k, out["witness"])

    def returned(stdout: str) -> dict[str, int]:
        return {"stability.star.fault_sets": json.loads(stdout)["checked_fault_sets"]}

    args = ["verify", "--graph", host, "--r", str(r), "--k", str(k)]
    return Op(f"verify {name} r={r} k={k}", "cli", args, check,
              files={host: encode_graph6(len(rows), rows) + "\n"}, returned_counts=returned)


def verify_pattern_ops(rng: random.Random, index: int) -> list[Op]:
    """Build a seeded pattern's spare-vertex host through the CLI, and verify
    the benchmark's own copy of that host against the pattern."""
    n, k = PATTERN_ORDER, PATTERN_FAULTS
    edges = random_pattern(rng, n)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    pattern_text = encode_graph6(n, _rows_of(n, edges))
    host_text = encode_graph6(n + k, bch_rows(edges, labels, k))
    pattern, host = f"pattern{index}.g6", f"pattern{index}_host.g6"
    labelling = ",".join(map(str, labels))

    def check_construct(stdout: str, cwd: Path) -> str | None:
        got = stdout.splitlines()
        return None if got == [host_text] else f"construct printed {got}, expected {host_text}"

    def check_verify(stdout: str, cwd: Path) -> str | None:
        out = json.loads(stdout)
        if out["stable"] is not True or out["witness"] is not None:
            return f"spare-vertex host of {pattern_text} reported unstable: {out}"
        return None

    def returned(stdout: str) -> dict[str, int]:
        return {"stability.general.fault_sets": json.loads(stdout)["checked_fault_sets"]}

    label = f"pattern {pattern_text} labelling {labelling} k={k}"
    return [
        Op(f"construct {label}", "cli",
           ["construct", "--pattern", pattern, "--k", str(k), "--labelling", labelling],
           check_construct, files={pattern: pattern_text + "\n"}),
        Op(f"verify {label}", "cli",
           ["verify", "--graph", host, "--pattern", pattern, "--k", str(k)],
           check_verify, files={pattern: pattern_text + "\n", host: host_text + "\n"},
           returned_counts=returned),
    ]


def recover_op(rng: random.Random, r: int, k: int) -> Op:
    n = r + k + 1
    faults = sorted(rng.sample(range(1, n + 1), rng.randint(1, k)))
    star_edges = [(0, leaf) for leaf in range(1, r + 1)]
    rows = bch_rows(star_edges, list(range(1, r + 2)), k)

    def check(stdout: str, cwd: Path) -> str | None:
        out = json.loads(stdout)
        if (out["r"], out["k"], out["faults"]) != (r, k, faults):
            return f"recover echoed {(out['r'], out['k'], out['faults'])}"
        psi = dict(out["mapping"])
        images = list(psi.values())
        if sorted(psi) != list(range(1, r + 2)) or len(out["mapping"]) != r + 1:
            return f"mapping {out['mapping']} does not cover labels 1..{r + 1} once"
        if len(set(images)) != len(images):
            return f"mapping {out['mapping']} is not injective"
        if any(not 1 <= dst <= n or dst in faults for dst in images):
            return f"mapping {out['mapping']} uses a faulty or missing label"
        for u, v in star_edges:
            a, b = psi[u + 1], psi[v + 1]
            if not rows[a - 1] >> (b - 1) & 1:
                return f"pattern edge ({u + 1}, {v + 1}) maps to non-edge ({a}, {b})"
        return None

    args = ["recover", "--r", str(r), "--k", str(k), "--faults", ",".join(map(str, faults))]
    return Op(f"recover r={r} k={k} faults={faults}", "cli", args, check)


def _verify_host_ops(rng: random.Random) -> list[Op]:
    ops = []
    for r, k in VERIFY_SPARE_HOSTS:
        rows = spare_host(r, k)
        total, leaf = rng.randrange(r, r + k + 1), rng.randrange(r)
        ops.append(verify_star_op(f"spare{r}_{k}", rows, r, k, True))
        ops.append(verify_star_op(f"spare{r}_{k}_minus_{leaf + 1}_{total + 1}",
                                  delete_edge(rows, leaf, total), r, k, False))
    for r, k, check_r, check_k in VERIFY_LARGER_HOSTS:
        ops.append(verify_star_op(f"spare{r}_{k}", spare_host(r, k), check_r, check_k, True))
    for r, k in VERIFY_REGULAR_HOSTS:
        rows = regular_host(r + k + 1)
        u, v = rng.choice([(u, v) for v in range(len(rows)) for u in range(v)
                           if rows[u] >> v & 1])
        ops.append(verify_star_op(f"regular{r + k + 1}", rows, r, k, True))
        ops.append(verify_star_op(f"regular{r + k + 1}_minus_{u + 1}_{v + 1}",
                                  delete_edge(rows, u, v), r, k, False))
    for index in range(PATTERNS_PER_PASS):
        ops.extend(verify_pattern_ops(rng, index))
    ops.extend(recover_op(rng, r, k) for r, k in RECOVER_INSTANCES)
    return ops


def plan(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, in the seeded order they run."""
    rng = random.Random(seed)
    if workload == "certify-stab":
        ops = [certify_op(r, k) for r, k in CERTIFY_DEEP + CERTIFY_WIDE]
        ops += [stab_op(r, k) for r, k in STAB_QUERIES]
        ops += [extremal_op(r, k, i) for i, (r, k) in enumerate(STAB_QUERIES)]
    elif workload == "verify-hosts":
        ops = _verify_host_ops(rng)
    else:
        raise KeyError(workload)
    rng.shuffle(ops)
    return ops
