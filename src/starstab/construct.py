"""Bruck-Cypher-Ho spare-vertex construction and constructive fault recovery.

Given a pattern graph H on n vertices, a fault budget k and a labelling, the
tuple of labels whose entry v is the label of pattern vertex v (a bijection
onto 1..n), the construction appends k spare vertices labelled n+1..n+k and,
for every pattern edge with labels i and j, inserts all edges between the
label intervals {i..i+k} and {j..j+k}. For every H, isolated vertices
included, the result tolerates any k vertex faults: relabelling survivors
greedily by smallest free label re-embeds H. Recovery refuses any other result.

For star patterns the outcome is independent of the labelling: it is the
join of a (k+1)-clique with r isolated vertices, built by :func:`star_stable`.

Labels are 1-based throughout this module, matching the convention that label
l sits at internal vertex index l-1 in the result graph.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidParameterError
from .graph import (Graph, _check_fault_budget, _check_order, _check_star_size, complete,
                    conjunction, empty, from_edges, star)


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
    try:
        labelling = tuple(map(operator.index, labelling))
    except TypeError:
        raise InvalidParameterError(f"labels must be integers, got {labelling!r}") from None
    if sorted(labelling) != list(range(1, n + 1)):
        raise InvalidParameterError(f"labelling must be a bijection onto 1..{n}, got {labelling}")
    _check_order(n + k)
    edges = []
    for u, v in pattern.edges():
        i, j = labelling[u], labelling[v]
        for a in range(i, i + k + 1):
            for b in range(j, j + k + 1):
                if a != b:
                    edges.append((a - 1, b - 1))
    return LabeledInstance(pattern, k, labelling, from_edges(n + k, edges))


def star_stable(r: int, k: int) -> Graph:
    """The unique spare-vertex expansion of a star: join of K_{k+1} and r
    isolated vertices, on r+k+1 vertices with (k+1)(2r+k)/2 edges."""
    _check_star_size(r)
    _check_fault_budget(k)
    _check_order(r + k + 1)
    return conjunction(complete(k + 1), empty(r))


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
