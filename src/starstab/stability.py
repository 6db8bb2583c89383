"""Deciders for vertex fault tolerance.

A graph is k-fault stable for a pattern H when every deletion of k vertices
(with incident edges) leaves a subgraph isomorphic to H. Both deciders run one
walk over the include/exclude tree of vertices 0..n-1, include first, which
meets the fault sets in lexicographic order, so the reported witness is always
the lexicographically smallest failing one. A decider supplies only a cover
test, a proof that every fault set below a tree node leaves a pattern copy:
for a star, a bound on surviving degrees; for a general pattern, a
backtracking search for a copy among the vertices sure to survive, run in place
on a vertex bitmask. The walk skips a covered subtree and counts its sets as
checked. So ``checked_fault_sets`` is C(n, k) when stable, the witness's
lexicographic rank plus one when not, and 0 when the graph is too small for any
pattern copy to survive. The empty pattern survives every fault set, so it is
stable with count C(n, k), which is 0 when k > n.

One decision may spend ``MAX_WORK`` units: a tree node or a search placement
costs one. A decision that needs more is refused mid-walk with
``CapacityExceededError``.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .errors import CapacityExceededError
from .graph import Graph, _check_fault_budget, _check_star_size


# 27x the largest test decision (37,270 nodes: C34(1,2,3), r = 5, k = 9) and
# 720x the largest benchmark one (1,392 units, seeds 1-10). At 2-12 us a node
# and 0.7 us a placement, an adversarial input is refused within about 10 s,
# what the star walk takes over 10^7 fault sets where its bound rarely fires
# (1.8 us a set).
MAX_WORK = 1_000_000


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


class _Budget:
    """The work units one decision has left."""

    __slots__ = ("left",)

    def __init__(self) -> None:
        self.left = MAX_WORK

    def charge(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise CapacityExceededError(f"the decision exceeds the work budget of {MAX_WORK} units")


def _embeds(rows: tuple[int, ...], alive: int, pattern: Graph, budget: _Budget) -> bool:
    """Whether the pattern has a copy in the subgraph induced on the vertex
    mask ``alive``: backtracking over pattern vertices in decreasing degree
    order, each placed on an unused vertex of high enough degree adjacent to
    the images of its placed neighbours, at one work unit per placement."""
    if pattern.n > alive.bit_count():
        return False
    deg = [(row & alive).bit_count() for row in rows]
    order = sorted(range(pattern.n), key=lambda v: -pattern.degree(v))
    pdeg = [pattern.degree(v) for v in order]
    # the pattern neighbours of order[d] that come before it
    back = [[q for q in order[:d] if pattern.rows[v] >> q & 1] for d, v in enumerate(order)]
    image = [0] * pattern.n

    def place(depth: int, free: int) -> bool:
        if depth == len(order):
            return True
        cands = free
        for q in back[depth]:
            cands &= rows[image[q]]
        while cands:
            bit = cands & -cands
            cands ^= bit
            tv = bit.bit_length() - 1
            if deg[tv] >= pdeg[depth]:
                budget.charge()
                image[order[depth]] = tv
                if place(depth + 1, free ^ bit):
                    return True
        return False

    return place(0, alive)


def _walk(n: int, k: int, smallest: int, covered: Callable[[int, int, int], bool],
          budget: _Budget) -> StabilityVerdict:
    """The k-subsets of vertices 0..n-1 in lexicographic order, as a
    depth-first include/exclude walk, include first, for a pattern copy of
    ``smallest`` vertices. A node (i, faults, m) has the vertices below i
    decided and m faults left to place. ``covered(alive, undecided, m)`` may
    hold only when every completion leaves a copy, and must be exact at a leaf
    (m == 0); a covered node's comb(n - i, m) sets all count. A node costs one
    work unit."""
    if max(n - k, 0) < smallest:
        # the smallest fault set of size min(k, n) leaves too few vertices
        return StabilityVerdict(False, tuple(range(min(k, n))), 0)
    full = (1 << n) - 1
    checked = 0
    stack = [(0, 0, k)]
    while stack:
        i, faults, m = stack.pop()
        budget.charge()
        if covered(full ^ faults, full >> i << i, m):
            checked += comb(n - i, m)
        elif m == 0:
            witness = tuple(v for v in range(n) if faults >> v & 1)
            return StabilityVerdict(False, witness, checked + 1)
        else:
            if n - i > m:
                stack.append((i + 1, faults, m))
            stack.append((i + 1, faults | 1 << i, m - 1))
    return StabilityVerdict(True, None, checked)


def is_star_stable(g: Graph, r: int, k: int) -> StabilityVerdict:
    """Decide whether g survives any k deletions with a degree-r vertex left.

    Equivalent to k-fault stability for the r-leaf star pattern: a surviving
    vertex of degree >= r is exactly a star center.
    """
    r = _check_star_size(r)
    k = _check_fault_budget(k)
    rows = g.rows

    def covered(alive: int, undecided: int, m: int) -> bool:
        # A survivor v keeps at least |N(v) & alive| - min(m, |N(v) & undecided|)
        # neighbours. One such bound >= r settles it for a vertex sure to
        # survive; for undecided vertices it takes m + 1, as m faults cannot
        # remove them all.
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

    return _walk(g.n, k, r + 1, covered, _Budget())


def is_stable_general(g: Graph, pattern: Graph, k: int) -> StabilityVerdict:
    """Stability for an arbitrary pattern. A tree node is covered when a copy
    lies among the vertices sure to survive: the decided survivors at an
    inner node, all survivors at a leaf."""
    k = _check_fault_budget(k)
    budget = _Budget()
    return _walk(g.n, k, pattern.n, lambda alive, undecided, m: _embeds(
        g.rows, alive & ~undecided if m else alive, pattern, budget), budget)


def sparse_complement_guarantees_stable(g: Graph, r: int) -> bool:
    """Accelerator: with fewer than ceil((r+1)/2) complement edges, at most r
    vertices miss any neighbour, so some survivor is always total.

    Only meaningful when g has at least r+1+k vertices; callers must ensure
    the order precondition separately.
    """
    return g.n * (g.n - 1) // 2 - g.size < (r + 2) // 2
