"""Exhaustive desk-scale certification of minimality and extremal uniqueness.

The certifier visits every isomorphism class of graphs on n = r+k+1 vertices
at the claimed minimum size and one edge below it. Dense graphs are reached
through their sparse complements: each desk instance leaves at most a handful
of complement edges, so the census stays in the hundreds of classes where a
direct edge-count census would be astronomically large.

Isomorph-free generation is incremental: classes with e edges and no isolated
vertices are produced by adding one edge (between existing vertices, one new
endpoint, or two new endpoints) to every class with e-1 edges, deduplicating
by canonical code at each level. Removing an edge and dropping the at most two
vertices it isolates maps any class back to a smaller one, so every class is
reached. Support only ever grows along that path, which makes pruning by a
vertex budget safe.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from pathlib import Path
from typing import Iterator

from .canon import canonical_form
from .errors import CapacityExceededError, InvalidParameterError, SchemaMismatchError
from .graph import Graph, complement, decode_graph6, empty, pad, with_edge
from .stability import is_star_stable, sparse_complement_guarantees_stable
from .theorem import extremal_family, stab_value

__all__ = [
    "Certificate",
    "SCHEMA_VERSION",
    "certify",
    "enumerate_graphs_by_edges",
    "graphs_of_order_and_size",
    "read_certificate",
    "write_certificate",
]

SCHEMA_VERSION = "1"

MAX_CENSUS_ORDER = 16
MAX_COMPLEMENT_BUDGET = 8
# Below this order the class counts stay tiny for every edge count, so the
# complement-edge budget is not needed to keep the census bounded.
SMALL_ORDER_EXEMPTION = 8


@dataclass(frozen=True)
class Certificate:
    """Persisted record of one exhaustive verification run."""

    schema_version: str
    r: int
    k: int
    claimed_value: int
    minimality_ok: bool
    candidates_below: int
    extremal_found: tuple[str, ...]
    extremal_expected: tuple[str, ...]
    match: bool
    elapsed: float


def _extensions(h: Graph, cap: int) -> Iterator[Graph]:
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if not h.adjacent(u, v):
                yield with_edge(h, u, v)
    if h.n + 1 <= cap:
        grown = pad(h, h.n + 1)
        for u in range(h.n):
            yield with_edge(grown, u, h.n)
    if h.n + 2 <= cap:
        yield with_edge(pad(h, h.n + 2), h.n, h.n + 1)


@lru_cache(maxsize=None)
def _edge_class_reps(e: int, cap: int) -> tuple[Graph, ...]:
    """Canonical representatives of iso classes with e edges, no isolated
    vertices, and order <= cap, sorted by canonical code."""
    if e == 0:
        return (empty(0),)
    parents = _edge_class_reps(e - 1, min(cap, 2 * (e - 1)))
    seen: dict[str, None] = {}
    for h in parents:
        for candidate in _extensions(h, cap):
            seen.setdefault(canonical_form(candidate).code, None)
    return tuple(decode_graph6(code) for code in sorted(seen))


def enumerate_graphs_by_edges(e: int, max_vertices: int) -> Iterator[Graph]:
    """One representative per iso class with e edges fitting in max_vertices,
    padded with isolated vertices to order max_vertices."""
    if e < 0:
        raise InvalidParameterError(f"edge count must be >= 0, got {e}")
    if not 0 <= max_vertices <= MAX_CENSUS_ORDER:
        raise InvalidParameterError(
            f"max_vertices must be in 0..{MAX_CENSUS_ORDER}, got {max_vertices}")
    padded = (pad(rep, max_vertices) for rep in _edge_class_reps(e, min(max_vertices, 2 * e)))
    for _, g in sorted((canonical_form(g).code, g) for g in padded):
        yield g


def graphs_of_order_and_size(n: int, m: int) -> Iterator[Graph]:
    """One representative per iso class with order n and size m.

    Classes come in census order: by the canonical code of each class's
    sparse complement without its isolated vertices.
    """
    if not 0 <= n <= MAX_CENSUS_ORDER:
        raise InvalidParameterError(f"order must be in 0..{MAX_CENSUS_ORDER}, got {n}")
    if not 0 <= m <= comb(n, 2):
        raise InvalidParameterError(f"size {m} impossible at order {n}")
    e = comb(n, 2) - m
    for rep in _edge_class_reps(e, min(n, 2 * e)):
        yield complement(pad(rep, n))


def certify(r: int, k: int) -> Certificate:
    """Exhaustively verify the claimed minimum size and extremal set at (r, k).

    Checks that no graph of order r+k+1 with one edge fewer is stable, and
    that the stable classes at the claimed size are exactly the expected
    extremal family. A refutation is reported in the certificate, not raised.
    """
    value = stab_value(r, k)
    n = r + k + 1
    if n > MAX_CENSUS_ORDER:
        raise CapacityExceededError(
            f"order budget exceeded: r+k+1 = {n} > {MAX_CENSUS_ORDER}")
    budget = comb(n, 2) - value + 1
    if budget > MAX_COMPLEMENT_BUDGET and n > SMALL_ORDER_EXEMPTION:
        raise CapacityExceededError(
            f"complement-edge budget exceeded: C({n},2) - {value} + 1 = {budget} "
            f"> {MAX_COMPLEMENT_BUDGET} at order {n} > {SMALL_ORDER_EXEMPTION}")
    start = time.perf_counter()
    candidates_below = 0
    minimality_ok = True
    for g in graphs_of_order_and_size(n, value - 1):
        candidates_below += 1
        if sparse_complement_guarantees_stable(g, r) or is_star_stable(g, r, k).stable:
            minimality_ok = False
    found = sorted(
        canonical_form(g).code
        for g in graphs_of_order_and_size(n, value)
        if sparse_complement_guarantees_stable(g, r) or is_star_stable(g, r, k).stable
    )
    expected = sorted(canonical_form(h).code for h in extremal_family(r, k))
    return Certificate(
        schema_version=SCHEMA_VERSION,
        r=r,
        k=k,
        claimed_value=value,
        minimality_ok=minimality_ok,
        candidates_below=candidates_below,
        extremal_found=tuple(found),
        extremal_expected=tuple(expected),
        match=found == expected,
        elapsed=time.perf_counter() - start,
    )


def write_certificate(cert: Certificate, path: str | Path) -> None:
    payload = dataclasses.asdict(cert)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_certificate(path: str | Path) -> Certificate:
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"unsupported certificate schema {version!r}, expected {SCHEMA_VERSION!r}")
    fields = {f.name for f in dataclasses.fields(Certificate)}
    missing = fields - payload.keys()
    if missing:
        raise SchemaMismatchError(f"certificate missing fields: {sorted(missing)}")
    values = {name: payload[name] for name in fields}
    for name in ("extremal_found", "extremal_expected"):
        values[name] = tuple(values[name])
    return Certificate(**values)
