"""Canonical forms and isomorphism tests for desk-scale graphs.

The canonical labelling of a graph minimizes its packed upper-triangle
adjacency bitstring over all vertex orderings. The search refines an ordered
partition by iterated neighbour counts, then backtracks over the first
non-singleton cell, individualizing one vertex per automorphic-twin class
(skipping a twin only drops an ordering that provably yields the same
bitstring, so canonicity is exact, never heuristic).

Dense graphs are canonicalized through their complement: complementation
commutes with relabelling, so a canonical labelling for the sparser side is
canonical for the graph itself. The emitted code is the graph6 text of the
canonically relabelled graph, which makes codes directly comparable and
storable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, complement, encode_graph6, permute


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Isomorphism-class identifier: canonical graph6 text."""

    code: str


def canonical_form(g: Graph) -> CanonicalCode:
    """Relabelling-invariant code; equal codes iff isomorphic graphs."""
    comp = complement(g)
    work = comp if comp.size < g.size else g
    order = _min_order(work)
    return CanonicalCode(encode_graph6(permute(g, order)))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.size != g2.size:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_form(g1) == canonical_form(g2)


def _refine(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Split cells by per-cell neighbour counts until the partition is equitable.

    New cells are ordered by signature value, which depends only on the current
    partition, keeping the refinement isomorphism-invariant.
    """
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        for idx, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = rows[v]
                sig = tuple((row & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) > 1:
                cells[idx:idx + 1] = [groups[sig] for sig in sorted(groups)]
                break
        else:
            return cells


def _twin_representatives(rows: tuple[int, ...], cell: list[int]) -> list[int]:
    """One vertex per swap-automorphism class of the cell.

    u and v are twins when exchanging them fixes the graph, i.e. their rows
    agree outside {u, v}; branching on a twin of an earlier representative
    explores an ordering with an identical bitstring.
    """
    reps: list[int] = []
    for v in cell:
        bv = 1 << v
        for r in reps:
            if rows[v] & ~(1 << r) == rows[r] & ~bv:
                break
        else:
            reps.append(v)
    return reps


def _min_order(g: Graph) -> tuple[int, ...]:
    """Vertex ordering minimizing the upper-triangle adjacency bitstring."""
    n = g.n
    if n <= 1:
        return tuple(range(n))
    rows = g.rows
    best: list[tuple[int, tuple[int, ...]] | None] = [None]

    def leaf(cells: list[list[int]]) -> None:
        order = tuple(cell[0] for cell in cells)
        key = 0
        for j in range(1, n):
            oj = 1 << order[j]
            for i in range(j):
                key = key << 1 | (1 if rows[order[i]] & oj else 0)
        if best[0] is None or key < best[0][0]:
            best[0] = (key, order)

    def search(cells: list[list[int]]) -> None:
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            leaf(cells)
            return
        target = cells[idx]
        for v in _twin_representatives(rows, target):
            rest = [u for u in target if u != v]
            child = cells[:idx] + [[v], rest] + cells[idx + 1:]
            search(_refine(rows, child))

    initial: dict[int, list[int]] = {}
    for v in range(n):
        initial.setdefault(rows[v].bit_count(), []).append(v)
    search(_refine(rows, [initial[d] for d in sorted(initial)]))
    return best[0][1]
