"""Deciders for vertex fault tolerance.

A graph is k-fault stable for a pattern H when every deletion of k vertices
(with incident edges) leaves a subgraph isomorphic to H. For star patterns
the check reduces to a surviving degree bound; for general patterns it runs a
backtracking subgraph-isomorphism search per fault set. Fault sets are
enumerated in lexicographic order with early exit, so the reported witness is
always the lexicographically smallest failing one. A walk longer than
``MAX_FAULT_SETS`` is refused before it starts.

The star decider walks the include/exclude tree of vertices 0..n-1, include
first, which visits fault sets in the same lexicographic order. It skips a
subtree when a lower bound on surviving degrees shows that every fault set in
it leaves a star center, and counts the skipped sets as checked. So
``checked_fault_sets`` means the same for both deciders: C(n, k) when stable,
the witness's lexicographic rank plus one when not, and 0 when the graph is too
small for any pattern copy to survive.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import CapacityExceededError, InvalidParameterError
from .graph import Graph, induced_delete

__all__ = [
    "StabilityVerdict",
    "contains_subgraph",
    "is_stable_general",
    "is_star_stable",
    "sparse_complement_guarantees_stable",
]


# About 14x the largest walk the benchmark makes (C(22, 11)). The general
# decider runs a subgraph search per fault set. The star decider skips most
# sets of the paper's hosts, but where its bound never fires it spends about
# 2 us per set (a random 4-regular graph of order 24 at k = 5).
MAX_FAULT_SETS = 10_000_000


class StabilityVerdict(NamedTuple):
    """Outcome of a stability check.

    ``witness`` is present iff unstable: the lexicographically smallest fault
    set whose removal leaves no pattern copy. ``checked_fault_sets`` is the
    number of fault sets up to and including the witness in lexicographic
    order, or C(n, k) when stable, whether each was examined or skipped by a
    proof; it is 0 when the graph is too small for any copy to survive.
    """

    stable: bool
    witness: tuple[int, ...] | None
    checked_fault_sets: int


def contains_subgraph(g: Graph, pattern: Graph) -> bool:
    """True iff an injective edge-preserving map from pattern into g exists.

    Plain backtracking: pattern vertices in decreasing degree order, target
    candidates pruned by degree compatibility.
    """
    if pattern.n > g.n or pattern.size > g.size:
        return False
    order = sorted(range(pattern.n), key=lambda v: -pattern.degree(v))
    pdeg = pattern.degrees()
    gdeg = g.degrees()
    image = [0] * pattern.n
    placed = [False] * pattern.n

    def place(depth: int, used: int) -> bool:
        if depth == pattern.n:
            return True
        pv = order[depth]
        required = 0
        w = pattern.rows[pv]
        while w:
            q = (w & -w).bit_length() - 1
            w &= w - 1
            if placed[q]:
                required |= 1 << image[q]
        for tv in range(g.n):
            bit = 1 << tv
            if used & bit or gdeg[tv] < pdeg[pv]:
                continue
            if g.rows[tv] & required == required:
                image[pv] = tv
                placed[pv] = True
                if place(depth + 1, used | bit):
                    return True
                placed[pv] = False
        return False

    return place(0, 0)


def _trivial_unstable(g: Graph, k: int) -> StabilityVerdict:
    # Too few vertices for any fault set to leave a pattern copy; the smallest
    # fault set of size min(k, n) witnesses it.
    return StabilityVerdict(False, tuple(range(min(k, g.n))), 0)


def _check_walk_budget(n: int, k: int) -> None:
    if comb(n, k) > MAX_FAULT_SETS:
        raise CapacityExceededError(
            f"C({n}, {k}) fault sets exceed the walk budget of {MAX_FAULT_SETS}")


def _covered(rows: tuple[int, ...], r: int, alive: int, undecided: int, m: int) -> bool:
    """True when every choice of m more faults among ``undecided`` leaves a
    vertex of degree >= r.

    A survivor v keeps at least |N(v) & alive| - min(m, |N(v) & undecided|)
    neighbours. One such bound >= r settles it for a vertex sure to survive;
    for undecided vertices it takes m + 1, as m faults cannot remove them all.
    """
    sure = 0
    w = alive
    while w:
        bit = w & -w
        w ^= bit
        row = rows[bit.bit_length() - 1] & alive
        lost = (row & undecided).bit_count()
        if row.bit_count() - (lost if lost < m else m) >= r:
            if not bit & undecided:
                return True
            sure += 1
            if sure > m:
                return True
    return False


def is_star_stable(g: Graph, r: int, k: int) -> StabilityVerdict:
    """Decide whether g survives any k deletions with a degree-r vertex left.

    Equivalent to k-fault stability for the r-leaf star pattern: a surviving
    vertex of degree >= r is exactly a star center. The verdict, witness and
    count are those of a flat walk over ``combinations(range(n), k)``.
    """
    if r < 3:
        raise InvalidParameterError(f"star patterns require r >= 3, got {r}")
    if k < 0:
        raise InvalidParameterError(f"fault budget k must be >= 0, got {k}")
    if g.n < r + 1 + k:
        return _trivial_unstable(g, k)
    _check_walk_budget(g.n, k)
    # Depth-first over the include/exclude tree of vertices 0..n-1, include
    # first, so fault sets come in lexicographic order. A node is (i, faults,
    # m): vertices below i are decided, m faults remain to place among the
    # rest, and a covered node's comb(n - i, m) fault sets all count.
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    checked = 0
    stack = [(0, 0, k)]
    while stack:
        i, faults, m = stack.pop()
        if _covered(rows, r, full ^ faults, full >> i << i, m):
            checked += comb(n - i, m)
        elif m == 0:
            witness = tuple(v for v in range(n) if faults >> v & 1)
            return StabilityVerdict(False, witness, checked + 1)
        else:
            if n - i > m:
                stack.append((i + 1, faults, m))
            stack.append((i + 1, faults | 1 << i, m - 1))
    return StabilityVerdict(True, None, checked)


def is_stable_general(g: Graph, pattern: Graph, k: int) -> StabilityVerdict:
    """Exhaustive stability check for an arbitrary pattern at desk scale."""
    if k < 0:
        raise InvalidParameterError(f"fault budget k must be >= 0, got {k}")
    if pattern.n == 0:
        return StabilityVerdict(True, None, 0)
    if g.n - k < pattern.n:
        return _trivial_unstable(g, k)
    _check_walk_budget(g.n, k)
    checked = 0
    for fault in combinations(range(g.n), k):
        checked += 1
        if not contains_subgraph(induced_delete(g, fault), pattern):
            return StabilityVerdict(False, fault, checked)
    return StabilityVerdict(True, None, checked)


def sparse_complement_guarantees_stable(g: Graph, r: int) -> bool:
    """Accelerator: with fewer than ceil((r+1)/2) complement edges, at most r
    vertices miss any neighbour, so some survivor is always total.

    Only meaningful when g has at least r+1+k vertices; callers must ensure
    the order precondition separately.
    """
    return g.n * (g.n - 1) // 2 - g.size < (r + 2) // 2
