"""Bruck-Cypher-Ho spare-vertex construction and constructive fault recovery.

Given a pattern graph H on n vertices, a fault budget k and a labelling, the
tuple of labels whose entry v is the label of pattern vertex v (a bijection
onto 1..n), the construction appends k spare vertices labelled n+1..n+k and,
for every pattern edge with labels i and j, inserts all edges between the
label intervals {i..i+k} and {j..j+k}. The result tolerates any k vertex
faults: relabelling survivors greedily by smallest free label re-embeds H.

For star patterns the outcome is independent of the labelling: it is the join
of a (k+1)-clique with r isolated vertices, produced directly by
:func:`star_stable`.

Labels are 1-based throughout this module, matching the convention that label
l sits at internal vertex index l-1 in the result graph.
"""

from __future__ import annotations

import warnings
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidParameterError
from .graph import (Graph, _check_rk, _check_vertex_budget, complete, conjunction, empty,
                    from_edges, star)

__all__ = [
    "IsolatedPatternWarning",
    "LabeledInstance",
    "bch_construct",
    "recovery_embedding",
    "star_instance",
    "star_stable",
]


class IsolatedPatternWarning(UserWarning):
    """The pattern has isolated vertices; the construction still works, but
    stability-preservation arguments that assume none do not apply."""


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
    if k < 0:
        raise InvalidParameterError(f"fault budget k must be >= 0, got {k}")
    n = pattern.n
    labelling = tuple(labelling)
    if sorted(labelling) != list(range(1, n + 1)):
        raise InvalidParameterError(f"labelling must be a bijection onto 1..{n}, got {labelling}")
    _check_vertex_budget(n + k)
    if any(not pattern.rows[v] for v in range(n)):
        warnings.warn(
            "pattern has isolated vertices; construction proceeds but "
            "stability-preservation assumptions do not apply",
            IsolatedPatternWarning,
            stacklevel=2,
        )
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
    _check_rk(r, k)
    _check_vertex_budget(r + k + 1)
    return conjunction(complete(k + 1), empty(r))


def recovery_embedding(instance: LabeledInstance,
                       faults: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Greedy re-embedding of the pattern after deleting ``faults`` (labels):
    the injective, edge-preserving (pattern label, surviving label) pairs.

    Pattern labels are processed in increasing order; each receives the
    smallest surviving result label not yet assigned. With f <= k faults the
    image of label i always lands in {i..i+f}, and every pattern edge maps to
    a surviving edge.
    """
    fset = frozenset(faults)
    k, n = instance.k, instance.pattern.n
    if len(fset) > k:
        raise InvalidParameterError(f"{len(fset)} faults exceed the budget k={k}")
    all_labels = range(1, n + k + 1)
    for f in fset:
        if f not in all_labels:
            raise InvalidParameterError(f"fault label {f} is not a vertex label of the result")
    survivors = [l for l in all_labels if l not in fset]
    pairs = tuple((i + 1, survivors[i]) for i in range(n))
    _validate_embedding(instance, fset, pairs)
    return pairs


def _validate_embedding(
    instance: LabeledInstance,
    faults: frozenset,
    pairs: Sequence[tuple[int, int]],
) -> None:
    psi = dict(pairs)
    images = list(psi.values())
    if len(set(images)) != len(images):
        raise InvalidParameterError("embedding must be injective")
    nfaults = len(faults)
    for src, dst in pairs:
        if not src <= dst <= src + nfaults <= src + instance.k or dst in faults:
            raise InvalidParameterError(
                f"image of label {src} is {dst}, not a surviving label within the shift bound")
    labels = instance.labelling
    for u, v in instance.pattern.edges():
        a, b = psi[labels[u]], psi[labels[v]]
        if not instance.result.adjacent(a - 1, b - 1):
            raise InvalidParameterError(
                f"pattern edge with labels ({labels[u]}, {labels[v]}) lost under the embedding")


def star_instance(r: int, k: int) -> LabeledInstance:
    """Constructed star instance: the center at label 1, leaves at 2..r+1."""
    return bch_construct(star(r), k, tuple(range(1, r + 2)))
