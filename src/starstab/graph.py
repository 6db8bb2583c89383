"""Simple undirected graphs on up to 64 vertices, stored as bitset adjacency rows.

Vertices are the integers 0..n-1. ``rows[v]`` is an int whose bit ``u`` is set
iff ``uv`` is an edge, so each neighbourhood fits in one machine word and
degree/intersection queries are single popcounts. Graph values are immutable;
every operation returns a new graph, which makes them safe to share between
concurrent workers.

graph6 serialization follows the standard format for orders up to 62: a header
byte ``n + 63`` followed by the upper-triangle adjacency bits in column-major
order (pairs (0,1), (0,2), (1,2), (0,3), ...), packed into 6-bit groups, each
offset by 63, zero-padded at the end.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import CapacityExceededError, Graph6ParseError, InvalidParameterError

MAX_ORDER = 64
GRAPH6_MAX_ORDER = 62


class Graph:
    """Immutable loop-free symmetric adjacency over vertices 0..n-1.

    A value: equality and hash by ``(n, rows)``, a constructor-style repr,
    positional ``match`` patterns, and no assignment after construction.
    """

    __slots__ = __match_args__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: tuple[int, ...]) -> None:
        if n < 0:
            raise InvalidParameterError(f"order must be >= 0, got {n}")
        _check_vertex_budget(n)
        if len(rows) != n:
            raise InvalidParameterError("adjacency row count does not match order")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise InvalidParameterError(f"row {v} has bits outside the vertex range")
            if row >> v & 1:
                raise InvalidParameterError(f"loop at vertex {v}")
            w = row
            while w:
                u = (w & -w).bit_length() - 1
                if not rows[u] >> v & 1:
                    raise InvalidParameterError(f"asymmetric adjacency between {u} and {v}")
                w &= w - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.n, self.rows) == (other.n, other.rows)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, rows={self.rows!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Graph, (self.n, self.rows)

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.rows) // 2

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        for u in range(self.n):
            w = self.rows[u] >> (u + 1) << (u + 1)
            while w:
                yield u, (w & -w).bit_length() - 1
                w &= w - 1


def _check_rk(r: int, k: int) -> None:
    """The parameters of a star question: r >= 3 leaves, fault budget k >= 0."""
    if r < 3:
        raise InvalidParameterError(f"star patterns require r >= 3, got {r}")
    if k < 0:
        raise InvalidParameterError(f"fault budget k must be >= 0, got {k}")


def _check_vertex_budget(n: int) -> None:
    if n > MAX_ORDER:
        raise CapacityExceededError(f"order {n} exceeds the {MAX_ORDER}-vertex cap")


def empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    _check_vertex_budget(n)
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    _check_vertex_budget(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given edges (duplicates are fine)."""
    _check_vertex_budget(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise InvalidParameterError(f"loop at vertex {u} rejected")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def with_edge(g: Graph, u: int, v: int) -> Graph:
    """Copy of g with edge uv added."""
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise InvalidParameterError(f"cannot add edge ({u}, {v})")
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def pad(g: Graph, n: int) -> Graph:
    """g with isolated vertices appended up to order n."""
    if n < g.n:
        raise InvalidParameterError(f"cannot pad order {g.n} down to {n}")
    _check_vertex_budget(n)
    return Graph(n, g.rows + (0,) * (n - g.n))


def star(r: int) -> Graph:
    """The star with one center (vertex 0) and r leaves; defined for r >= 3."""
    if r < 3:
        raise InvalidParameterError(f"star requires r >= 3, got {r}")
    _check_vertex_budget(r + 1)
    leaves = ((1 << (r + 1)) - 1) ^ 1
    return Graph(r + 1, (leaves,) + (1,) * r)


def conjunction(g1: Graph, g2: Graph) -> Graph:
    """Join of g1 and g2: both edge sets plus every edge across the two parts.

    The result has order |g1| + |g2| and size ||g1|| + ||g2|| + |g1|*|g2|.
    """
    n1, n2 = g1.n, g2.n
    _check_vertex_budget(n1 + n2)
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n2) - 1) << n1
    rows = [g1.rows[v] | mask2 for v in range(n1)]
    rows += [(g2.rows[v] << n1) | mask1 for v in range(n2)]
    return Graph(n1 + n2, tuple(rows))


def near_complete_regular(n: int) -> Graph:
    """The (n-2)-regular graph on n vertices: complement of a perfect matching.

    Exists only for even n; the missing matching pairs are (0,1), (2,3), ...
    """
    if n < 2 or n % 2:
        raise InvalidParameterError(f"(n-2)-regular graph needs even n >= 2, got {n}")
    _check_vertex_budget(n)
    full = (1 << n) - 1
    rows = []
    for v in range(n):
        partner = v ^ 1
        rows.append(full ^ (1 << v) ^ (1 << partner))
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows)))


def induced_delete(g: Graph, faults: Iterable[int]) -> Graph:
    """Induced subgraph on the vertices outside ``faults``, reindexed contiguously.

    Surviving vertices keep their relative order.
    """
    fset = frozenset(faults)
    for v in fset:
        if not 0 <= v < g.n:
            raise InvalidParameterError(f"fault vertex {v} out of range for order {g.n}")
    keep = [v for v in range(g.n) if v not in fset]
    newindex = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        w = g.rows[v]
        while w:
            u = (w & -w).bit_length() - 1
            w &= w - 1
            if u in newindex:
                rows[newindex[v]] |= 1 << newindex[u]
    return Graph(len(keep), tuple(rows))


def permute(g: Graph, order: Sequence[int]) -> Graph:
    """Relabel g so that new vertex i is old vertex order[i]."""
    if sorted(order) != list(range(g.n)):
        raise InvalidParameterError("order must be a permutation of the vertices")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    rows = [0] * g.n
    for i, v in enumerate(order):
        w = g.rows[v]
        while w:
            u = (w & -w).bit_length() - 1
            w &= w - 1
            rows[i] |= 1 << pos[u]
    return Graph(g.n, tuple(rows))


def _pair_bits(rows: Sequence[int], order: Sequence[int]) -> int:
    """Upper-triangle adjacency bits of ``rows`` under the vertex order
    ``order``, in graph6 column order with pair (0,1) as the highest bit."""
    bits = 0
    for j in range(1, len(order)):
        vj = order[j]
        for i in range(j):
            bits = bits << 1 | (rows[order[i]] >> vj & 1)
    return bits


def _graph6_text(n: int, bits: int) -> str:
    """graph6 text of order n from its pair bits as :func:`_pair_bits` lays them out."""
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    bits <<= 6 * nbytes - npairs
    return chr(n + 63) + "".join(
        chr((bits >> shift & 63) + 63) for shift in range(6 * nbytes - 6, -1, -6))


def encode_graph6(g: Graph) -> str:
    """Standard graph6 text for graphs of order <= 62 (single-byte header)."""
    if g.n > GRAPH6_MAX_ORDER:
        raise CapacityExceededError(f"graph6 output supports order <= {GRAPH6_MAX_ORDER}, got {g.n}")
    return _graph6_text(g.n, _pair_bits(g.rows, range(g.n)))


def decode_graph6(text: str | bytes) -> Graph:
    """Parse graph6 text; inverse of :func:`encode_graph6`."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6ParseError("graph6 input is not ASCII") from exc
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6ParseError("empty graph6 string")
    header = ord(s[0])
    if header == 126:
        raise Graph6ParseError("long-form graph6 headers (order > 62) are unsupported")
    if not 63 <= header <= 63 + GRAPH6_MAX_ORDER:
        raise Graph6ParseError(f"bad graph6 header byte {header}")
    n = header - 63
    npairs = n * (n - 1) // 2
    body = s[1:]
    if len(body) != (npairs + 5) // 6:
        raise Graph6ParseError(f"graph6 body has {len(body)} bytes, expected {(npairs + 5) // 6}")
    bits = 0
    for ch in body:
        b = ord(ch)
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"graph6 body byte {b} out of range")
        bits = bits << 6 | (b - 63)
    padding = len(body) * 6 - npairs
    if bits & ((1 << padding) - 1):
        raise Graph6ParseError("nonzero padding bits in graph6 body")
    bits >>= padding
    rows = [0] * n
    pos = npairs
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def export_dot(g: Graph, index_base: int = 0) -> str:
    """Deterministic DOT text: one line per vertex, then one per edge (u < v)."""
    lines = ["graph {"]
    for v in range(g.n):
        lines.append(f"  {v + index_base};")
    for u, v in g.edges():
        lines.append(f"  {u + index_base} -- {v + index_base};")
    lines.append("}")
    return "\n".join(lines) + "\n"
