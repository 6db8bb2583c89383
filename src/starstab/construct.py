"""Bruck-Cypher-Ho spare-vertex construction and constructive fault recovery.

Given a pattern graph H on n vertices, a fault budget k and a labelling, the
tuple of labels whose entry v is the label of pattern vertex v (a bijection
onto 1..n), the construction appends k spare vertices labelled n+1..n+k and,
for every pattern edge with labels i and j, inserts all edges between the
label intervals {i..i+k} and {j..j+k}. For every H, isolated vertices
included, the result tolerates any k vertex faults: relabelling survivors
greedily by smallest free label re-embeds H. Recovery refuses any other result.

:func:`star_stable` is the star's expansion under the identity labelling. That it is the
join of K_{k+1} on labels 1..k+1 with r isolated vertices is a property the tests check.

Labels are 1-based throughout this module, matching the convention that label
l sits at internal vertex index l-1 in the result graph.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidParameterError
from .graph import Graph, _check_fault_budget, _check_order, star


class LabeledInstance(NamedTuple):
    """A constructed fault-tolerant graph together with its provenance."""

    pattern: Graph
    k: int
    labelling: tuple[int, ...]
    result: Graph


def bch_construct(pattern: Graph, k: int, labelling: Sequence[int]) -> LabeledInstance:
    """Expand the pattern with k spare vertices under the given labelling.

    The result graph lives on labels 1..n+k (vertex index = label - 1) and its
    edge set is exactly the union, over pattern edges with labels i and j, of
    all pairs between {i..i+k} and {j..j+k}.
    """
    k = _check_fault_budget(k)
    n = pattern.n
    labels = tuple(labelling)
    if not all(isinstance(x, int) for x in labels):
        raise InvalidParameterError(f"labels must be integers, got {labelling!r}")
    labelling = tuple(map(int, labels))
    if sorted(labelling) != list(range(1, n + 1)):
        raise InvalidParameterError(f"labelling must be a bijection onto 1..{n}, got {labelling}")
    _check_order(n + k)
    # 0-based labels i, j: rows i..i+k take the block at j, rows j..j+k the block at i.
    block = (1 << k + 1) - 1
    rows = [0] * (n + k)
    for u, v in pattern.edges():
        i, j = labelling[u] - 1, labelling[v] - 1
        for a in range(i, i + k + 1):
            rows[a] |= block << j
        for b in range(j, j + k + 1):
            rows[b] |= block << i
    result = Graph(n + k, [row & ~(1 << v) for v, row in enumerate(rows)])
    return LabeledInstance(pattern, k, labelling, result)


def star_stable(r: int, k: int) -> Graph:
    """The star's expansion under the identity labelling: r+k+1 vertices, (k+1)(2r+k)/2 edges."""
    return star_instance(r, k).result


def recovery_embedding(instance: LabeledInstance,
                       faults: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Greedy re-embedding of the pattern after deleting ``faults`` (labels):
    the injective, edge-preserving (pattern label, surviving label) pairs.

    Pattern labels are processed in increasing order; each receives the
    smallest surviving result label not yet assigned. The result must be the
    expansion of the instance's pattern, k and labelling; then, with f <= k
    faults, label i lands in {i..i+f} and every pattern edge on a result edge.
    """
    k, n = instance.k, instance.pattern.n
    if bch_construct(instance.pattern, k, instance.labelling).result != instance.result:
        raise InvalidParameterError("result is not the expansion of its pattern, k and labelling")
    all_labels = range(1, n + k + 1)
    faults = tuple(faults)
    for f in faults:
        if not (isinstance(f, int) and f in all_labels):
            raise InvalidParameterError(f"fault label {f} is not a vertex label of the result")
    fset = frozenset(faults)
    if len(fset) > k:
        raise InvalidParameterError(f"{len(fset)} faults exceed the budget k={k}")
    return tuple(zip(range(1, n + 1), [l for l in all_labels if l not in fset]))


def star_instance(r: int, k: int) -> LabeledInstance:
    """Constructed star instance: the center at label 1, leaves at 2..r+1."""
    return bch_construct(star(r), k, tuple(range(1, r + 2)))
