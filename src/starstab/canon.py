"""Canonical forms of desk-scale graphs: two graphs are isomorphic iff their
canonical forms are equal.

The search refines an ordered partition by iterated neighbour counts, then
backtracks over the first non-singleton cell, individualizing one vertex per
automorphic-twin class (skipping a twin only drops an ordering that provably
yields the same key, so canonicity is exact, never heuristic). Each leaf is a
vertex ordering, keyed by its upper-triangle adjacency bits in graph6 column
order. The canonical code is the least key over the orderings the search
reaches, packed directly as graph6 text, which makes codes directly
comparable and storable.

A cell of mutual twins (say, the isolated vertices that pad a graph) splits
into its singletons in one step: in an equitable partition, individualizing a
twin splits nothing, so the search would descend one child per vertex in cell
order. The step pushes one path entry for the automorphism prune below.

Leaves with equal keys prune the search by the automorphism between them
(McKay 1981; McKay & Piperno 2014). If a leaf repeats the key of an earlier
leaf, the two orderings differ by an automorphism that fixes the vertices
individualized at their deepest shared node and maps the earlier child of
that node onto the current one. Refinement is isomorphism-invariant, so the
current child's subtree reaches exactly the keys of the earlier, finished
one; the search returns to the shared node and goes on with its next child.
This never drops a key the search would otherwise reach, so the least key,
and with it every code, is the same as without the pruning.

Dense graphs are searched through their complement rows: complementation
commutes with relabelling, and under any ordering the complement's key is the
bitwise negation of the graph's, so the code is the negated least key.
"""

from __future__ import annotations

from .errors import CapacityExceededError
from .graph import GRAPH6_MAX_ORDER, Graph, _graph6_text, _pair_bits


def canonical_form(g: Graph) -> str:
    """Canonical graph6 text: equal for two graphs iff they are isomorphic."""
    n = g.n
    if n > GRAPH6_MAX_ORDER:
        raise CapacityExceededError(f"canonical codes support order <= {GRAPH6_MAX_ORDER}, got {n}")
    npairs = n * (n - 1) // 2
    if 2 * g.size > npairs:
        full = (1 << n) - 1
        comp_rows = tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows))
        return _graph6_text(n, _min_key(comp_rows) ^ ((1 << npairs) - 1))
    return _graph6_text(n, _min_key(g.rows))


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


def _min_key(rows: tuple[int, ...]) -> int:
    """Least upper-triangle adjacency key over the orderings the search reaches."""
    seen: dict[int, tuple[int, ...]] = {}  # leaf key -> its individualization path
    path: list[int] = []

    def search(cells: list[list[int]]) -> int | None:
        # Returns the depth to resume at after an automorphism prune, else None.
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            key = _pair_bits(rows, [cell[0] for cell in cells])
            earlier = seen.get(key)
            if earlier is None:
                seen[key] = tuple(path)
                return None
            shared = 0
            while earlier[shared] == path[shared]:
                shared += 1
            return shared
        depth = len(path)
        target = cells[idx]
        reps = _twin_representatives(rows, target)
        for v in reps:
            if len(reps) == 1:
                # mutual twins: the cell splits into its singletons in order
                child = cells[:idx] + [[u] for u in target] + cells[idx + 1:]
            else:
                rest = [u for u in target if u != v]
                child = _refine(rows, cells[:idx] + [[v], rest] + cells[idx + 1:])
            path.append(v)
            resume = search(child)
            path.pop()
            if resume is not None and resume < depth:
                return resume
        return None

    search(_refine(rows, [list(range(len(rows)))] if rows else []))
    return min(seen)
