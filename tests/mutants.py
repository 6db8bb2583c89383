"""Mutation check: each mutant edits one exact text of one source file, and the
tests named for it must fail on the edited copy.

A mutant is (name, file, old text, new text, test ids). The old text must
occur exactly once in its file, or the script refuses to run. The repository
is copied once to a temporary directory, and the named tests must pass there
unmutated. Then each mutant is applied in turn, its tests run under a timeout,
and the file is restored. A mutant is killed when pytest exits nonzero and
none of its named tests passes; a run that times out counts as killed. The
script prints one JSON line, ``{"killed": [...], "survived": [...]}``, and
exits 1 when a mutant survives::

    python tests/mutants.py

The module uses only the standard library (pytest runs in child processes);
pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

MUTANTS = [
    ("refine-reverse", "src/starstab/canon.py",
     "for sig in sorted(groups)]", "for sig in sorted(groups, reverse=True)]",
     ["tests/test_canon.py::TestCanonicalForm::test_codes_of_all_five_vertex_graphs_are_pinned"]),
    ("fault-budget-unconverted", "src/starstab/graph.py",
     'got {k!r}")\n    return int(k)', 'got {k!r}")\n    return k',
     ["tests/test_graph.py::TestIntegerArguments::test_bools_count_as_ints"]),
    ("graph6-strips-unicode-whitespace", "src/starstab/graph.py",
     's = text.strip(" \\t\\n\\r\\v\\f")', "s = text.strip()",
     ["tests/test_cli_corpus.py::test_group_digest_is_pinned[refusals]"]),
    ("twin-step-off", "src/starstab/canon.py",
     "if len(reps) == 1:", "if False:",
     [f"tests/test_canon.py::TestCanonicalForm::test_a_cell_of_mutual_twins_splits_in_one_step[{g}]"
      for g in ("empty64", "complete64", "c5-padded-to-64", "star63")]),
    ("key-filter-ge", "src/starstab/certify.py",
     "if _edge_key(rows, a, b) > key", "if _edge_key(rows, a, b) >= key",
     ["tests/test_certify.py::TestEnumerateByEdges::test_three_edges_four_vertices"]),
    ("star-cover-ge", "src/starstab/stability.py",
     "if sure > m:", "if sure >= m:",
     ["tests/test_stability.py::TestIsStarStable::test_matching_complement_parity_small"]),
    ("expansion-block-shifted", "src/starstab/construct.py",
     "rows[a] |= block << j", "rows[a] |= block << j + 1",
     ["tests/test_construct.py::TestBchConstruct::"
      "test_matches_reference_on_every_small_labelled_pattern"]),
    ("multiset-without-repeats", "src/starstab/certify.py",
     "unions(i, edges_left - j", "unions(i + 1, edges_left - j",
     ["tests/test_certify.py::TestCensusLevels::test_edge_class_counts_match_oeis_a000664"]),
    ("enumerate-unsorted", "src/starstab/certify.py",
     "yield from sorted(map(canonical_form, graphs_of_order_and_size(max_vertices, e)))",
     "yield from map(canonical_form, graphs_of_order_and_size(max_vertices, e))",
     [f"tests/test_certify.py::TestEnumerateByEdges::"
      f"test_each_line_is_its_class_code_in_increasing_order[{case}]"
      for case in ("3-4", "6-12", "8-16")]),
    ("certify-reads-back", "src/starstab/cli.py",
     'print(write_certificate(cert, args.out), end="")',
     'write_certificate(cert, args.out)\n    print(Path(args.out).read_text(), end="")',
     ["tests/test_cli.py::TestCertify::test_prints_the_text_it_writes"]),
    ("int-digit-limit", "src/starstab/cli.py",
     "        try:\n            return int(text)\n"
     "        except ValueError:  # more digits than sys.get_int_max_str_digits()\n"
     "            pass\n",
     "        return int(text)\n",
     [f"tests/test_cli.py::TestIntegerArguments::{test}[past-digit-limit]"
      for test in ("test_scalar_refused_by_the_parser",
                   "test_list_and_library_refusals_keep_their_messages")]),
    ("dot-zero-based", "src/starstab/graph.py",
     'lines.append(f"  {v + 1};")', 'lines.append(f"  {v};")',
     ["tests/test_cli_corpus.py::test_group_digest_is_pinned[construct]",
      "tests/test_graph.py::TestDot::test_empty_pair",
      "tests/test_graph.py::TestDot::test_star_edges_from_center"]),
    ("certificate-read-unbounded", "src/starstab/certificate.py",
     '    with open(path, "rb") as f:\n'
     "        data = f.read(_MAX_CERTIFICATE_BYTES + 1)\n"
     "    if len(data) > _MAX_CERTIFICATE_BYTES:\n"
     "        raise SchemaMismatchError("
     'f"certificate is longer than {_MAX_CERTIFICATE_BYTES} bytes")\n'
     "    try:\n"
     "        payload = json.loads(data.decode())\n",
     "    try:\n"
     "        payload = json.loads(Path(path).read_text())\n",
     ["tests/test_certify.py::TestCertificatePersistence::"
      "test_file_is_read_within_a_byte_bound[past-bound]",
      "tests/test_certify.py::TestCertificatePersistence::test_endless_file_refused"]),
]


def run_tests(root: Path, ids: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code on ``ids`` in ``root`` and the ids it reports passed;
    a timeout reads as exit code -1 with none passed."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no",
                               "-p", "no:cacheprovider", *ids],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, set()
    passed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("PASSED ")}
    return proc.returncode, passed


def main() -> int:
    for name, file, old, _, _ in MUTANTS:
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            print(f"mutant {name}: old text occurs {count} times in {file}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_build", "*.egg-info", "build"))
        every_id = [test for *_, ids in MUTANTS for test in ids]
        code, _ = run_tests(root, every_id)
        if code != 0:
            print(f"the named tests fail without a mutant (pytest exit {code})", file=sys.stderr)
            return 2
        killed, survived = [], []
        for name, file, old, new, ids in MUTANTS:
            path = root / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            try:
                code, passed = run_tests(root, ids)
            finally:
                path.write_text(text)
            (killed if code != 0 and not passed & set(ids) else survived).append(name)
    print(json.dumps({"killed": killed, "survived": survived}))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
