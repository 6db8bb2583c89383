"""Exhaustive desk-scale certification of minimality and extremal uniqueness.

The certifier visits every isomorphism class of graphs on n = r+k+1 vertices
at the claimed minimum size and one edge below it. Every census of order n and
size m is served from its sparser side, with e = min(m, C(n,2) - m) census
edges: each class is a graph with e edges and no isolated vertices, padded to
order n, or the complement of one. Each desk instance leaves at most a handful
of complement edges, so the census stays in the thousands of classes where a
direct edge-count census would be astronomically large. A census may try at
most MAX_CENSUS_WORK augmentation candidates; orders go up to the vertex cap.

Isomorph-free generation has two levels. Connected classes with e edges grow
from those with e-1 edges by one new edge: between two non-adjacent vertices,
or pendant to a new vertex. An edge is removable if it is pendant or lies on a
cycle, so deleting it (and the vertex it leaves isolated) keeps the graph
connected. Each edge has the key (larger endpoint degree, smaller endpoint
degree, common neighbours), and a candidate is canonicalized only if no
removable edge has a larger key than its new edge (canonical augmentation,
McKay 1998). No class is lost: every connected class with at least two edges
has a removable edge (a leaf edge if it is a tree, else an edge on a cycle),
and deleting one of largest key leaves a connected class with one edge
fewer. Keys and removability are isomorphism-invariant, so extending that
parent's stored representative by the image of the deleted edge gives a
candidate the filter accepts. The filter drops only duplicates, and those
that pass it are still deduplicated by canonical code, so no automorphism
orbits are needed.

A class without isolated vertices is the disjoint union of a multiset of
connected classes whose edges sum to e and whose orders fit the vertex
budget. Two different multisets give non-isomorphic unions, because the
components of a graph are determined up to isomorphism, so this level makes
no canonical call and needs no deduplication.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Iterator

from .canon import canonical_form
from .errors import CapacityExceededError, InvalidParameterError
from .graph import Graph, _check_order, complement, from_edges, pad
from .stability import is_star_stable, sparse_complement_guarantees_stable
from .theorem import extremal_family, stab_result

if TYPE_CHECKING:
    from .certificate import Certificate

# Augmentation candidates one census may try (83,935 at 14 edges and order 8,
# 113,607 at 11 edges and order 11); the smaller multiset level is not charged.
MAX_CENSUS_WORK = 100_000


def _edge_key(rows: list[int], u: int, v: int) -> tuple[int, int, int]:
    du, dv = rows[u].bit_count(), rows[v].bit_count()
    return max(du, dv), min(du, dv), (rows[u] & rows[v]).bit_count()


def _removable(rows: list[int], u: int, v: int) -> bool:
    """Whether deleting edge uv, and an endpoint it leaves isolated, keeps the
    graph connected: uv is a pendant edge, or v is reachable from u without it."""
    if rows[u].bit_count() == 1 or rows[v].bit_count() == 1:
        return True
    seen = 1 << u
    frontier = rows[u] ^ (1 << v)
    while frontier:
        if frontier >> v & 1:
            return True
        seen |= frontier
        reach = 0
        while frontier:
            reach |= rows[(frontier & -frontier).bit_length() - 1]
            frontier &= frontier - 1
        frontier = reach & ~seen
    return False


def _new_edge_is_largest(rows: list[int], u: int, v: int) -> bool:
    """Whether no removable edge has a larger key than the new edge uv, which
    is removable itself: it closes a cycle or is pendant."""
    key = _edge_key(rows, u, v)
    for a in range(len(rows)):
        w = rows[a] >> (a + 1) << (a + 1)
        while w:
            b = (w & -w).bit_length() - 1
            w &= w - 1
            if _edge_key(rows, a, b) > key and _removable(rows, a, b):
                return False
    return True


@lru_cache(maxsize=None)
def _connected_reps(e: int, cap: int) -> tuple[Graph, ...]:
    """One representative per connected iso class with e >= 1 edges and order
    <= cap, sorted by canonical code."""
    if e == 1:
        return (from_edges(2, [(0, 1)]),) if cap >= 2 else ()
    seen: dict[str, Graph] = {}
    for h in _connected_reps(e - 1, min(cap, e)):
        n = h.n
        non_edges = [(u, v) for v in range(n) for u in range(v) if not h.rows[u] >> v & 1]
        pendants = [(u, n) for u in range(n)] if n < cap else []
        for u, v in non_edges + pendants:
            rows = list(h.rows) + [0] * (v + 1 - n)  # a pendant edge adds vertex n
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if _new_edge_is_largest(rows, u, v):
                g = Graph(len(rows), tuple(rows))
                seen.setdefault(canonical_form(g), g)
    return tuple(g for _, g in sorted(seen.items()))


@lru_cache(maxsize=None)
def _edge_class_reps(e: int, cap: int) -> tuple[Graph, ...]:
    """One representative per iso class with e edges, no isolated vertices and
    order <= cap: the disjoint unions of multisets of connected classes, in
    multiset order."""
    parts = [(j, rep) for j in range(1, e + 1) for rep in _connected_reps(j, min(cap, j + 1))]
    reps: list[Graph] = []

    def unions(start: int, edges_left: int, rows: tuple[int, ...]) -> None:
        if not edges_left:
            reps.append(Graph(len(rows), rows))
            return
        for i in range(start, len(parts)):
            j, part = parts[i]
            if j > edges_left:
                break
            if len(rows) + part.n <= cap:
                shift = len(rows)
                unions(i, edges_left - j, rows + tuple(row << shift for row in part.rows))

    unions(0, e, ())
    return tuple(reps)


def enumerate_graphs_by_edges(e: int, max_vertices: int) -> Iterator[str]:
    """The canonical graph6 code of each iso class with e edges fitting in
    max_vertices, at order max_vertices, in increasing code order; a caller
    who wants graphs decodes them with decode_graph6. Arguments are checked
    at the first next()."""
    yield from sorted(map(canonical_form, graphs_of_order_and_size(max_vertices, e)))


def graphs_of_order_and_size(n: int, m: int) -> Iterator[Graph]:
    """One representative per iso class with order n and size m.

    The census runs on the sparser side, with e = min(m, C(n,2) - m) edges,
    and is refused with CapacityExceededError before building a connected
    level that takes it past MAX_CENSUS_WORK candidates. Classes come in
    census order, which is deterministic: each class, or its complement when
    e < m, is without its isolated vertices a multiset of connected classes
    with e edges in all; these are ordered by edge count, then by canonical
    code, and the multisets come in lexicographic order of their
    non-decreasing index lists. Representatives are not canonically labelled.
    Arguments are checked at the first next().
    """
    n = _check_order(n)
    if not (isinstance(m, int) and 0 <= m <= comb(n, 2)):
        raise InvalidParameterError(f"size {m!r} impossible at order {n}")
    e = min(m, comb(n, 2) - m)
    cap, work = min(n, 2 * e), 0
    for j in range(2, e + 1):  # level j adds a non-edge or a pendant edge to level j-1
        work += sum(comb(h.n, 2) - (j - 1) + (h.n if h.n < min(cap, j + 1) else 0)
                    for h in _connected_reps(j - 1, min(cap, j)))
        if work > MAX_CENSUS_WORK:
            raise CapacityExceededError(f"census work budget exceeded: {e} census edges at "
                                        f"order {n} need more than {MAX_CENSUS_WORK} candidates")
    for rep in _edge_class_reps(e, cap):
        g = pad(rep, n)
        yield g if e == m else complement(g)


def certify(r: int, k: int) -> Certificate:
    """Exhaustively verify the claimed minimum size and extremal set at (r, k).

    Checks that no graph of order r+k+1 with one edge fewer is stable, and
    that the stable classes at the claimed size are exactly the expected
    extremal family. A refutation is reported in the certificate, not raised;
    a census outside the census envelope raises CapacityExceededError.
    """
    result = stab_result(r, k)
    r, k, value = result.r, result.k, result.value
    n = r + k + 1

    def stable(g: Graph) -> bool:
        return sparse_complement_guarantees_stable(g, r) or is_star_stable(g, r, k).stable

    below = [stable(g) for g in graphs_of_order_and_size(n, value - 1)]
    found = sorted(canonical_form(g) for g in graphs_of_order_and_size(n, value) if stable(g))
    expected = sorted(canonical_form(h) for h in extremal_family(r, k))
    from .certificate import SCHEMA_VERSION, Certificate
    return Certificate(
        schema_version=SCHEMA_VERSION,
        r=r,
        k=k,
        claimed_value=value,
        minimality_ok=not any(below),
        candidates_below=len(below),
        extremal_found=tuple(found),
        extremal_expected=tuple(expected),
        match=found == expected,
    )
