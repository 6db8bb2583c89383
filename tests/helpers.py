"""Graphs, generators, (r, k) grids and the in-process CLI runner shared by
the test modules and scripts (not collected by pytest)."""

import contextlib
import hashlib
import io
import os
import tempfile
from itertools import combinations
from pathlib import Path

from starstab import from_edges
from starstab.cli import main

# The (r, k) pairs of the certification grid of acceptance criterion 6.
CERTIFICATION_GRID = [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2),
                      (4, 7), (4, 8), (4, 9), (4, 10), (5, 0), (5, 1), (5, 2)]
# The four-vertex pattern of the worked example: a triangle with a pendant vertex.
WORKED_PATTERN = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_labelling(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return tuple(labels)


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def is_connected(g):
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = g.rows[v] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << g.n) - 1


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def adjacent(g, u, v):
    return bool(g.rows[u] >> v & 1)


def degrees(g):
    return tuple(row.bit_count() for row in g.rows)


def run_case(argv: list[str], inputs: dict[str, str | bytes]) -> dict:
    """The record of one in-process CLI call in a new directory holding
    ``inputs``: its argv, exit code, stdout, stderr (only the last line after
    an argparse refusal) and the sha256 of each file left in the directory."""
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
