"""Simple undirected graphs on up to 64 vertices, stored as bitset adjacency rows.

Vertices are the integers 0..n-1. ``rows[v]`` is an int whose bit ``u`` is set
iff ``uv`` is an edge, so each neighbourhood fits in one machine word and
degree/intersection queries are single popcounts. Graph values are immutable;
every operation returns a new graph, which makes them safe to share between
concurrent workers. The builders compose the ``Graph`` constructor,
:func:`from_edges`, :func:`complement` and :func:`conjunction`, so each
row-level operation is written once.

graph6 serialization follows the standard format: a header byte ``n + 63`` (at
orders 63 and 64 the long form, ``~`` and n in three 6-bit groups), then the
upper-triangle adjacency bits in column-major order (pairs (0,1), (0,2),
(1,2), (0,3), ...), packed into 6-bit groups, each offset by 63, zero-padded.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import CapacityExceededError, Graph6ParseError, InvalidParameterError

MAX_ORDER = 64


class Graph:
    """Immutable loop-free symmetric adjacency over vertices 0..n-1.

    A value: equality and hash by ``(n, rows)``, a constructor-style repr,
    positional ``match`` patterns, and no assignment after construction.
    """

    __slots__ = __match_args__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Iterable[int]) -> None:
        n = _check_order(n)
        rows = list(rows)
        if len(rows) != n:
            raise InvalidParameterError("adjacency row count does not match order")
        # Every row is checked as an int before the symmetry walk reads it.
        for v, row in enumerate(rows):
            if not isinstance(row, int):
                raise InvalidParameterError(f"row {v} is not an int: {row!r}")
            rows[v] = int(row)
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise InvalidParameterError(f"row {v} has bits outside the vertex range")
            if row >> v & 1:
                raise InvalidParameterError(f"loop at vertex {v}")
            while row:
                u = (row & -row).bit_length() - 1
                if not rows[u] >> v & 1:
                    raise InvalidParameterError(f"asymmetric adjacency between {u} and {v}")
                row &= row - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

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

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        for u in range(self.n):
            w = self.rows[u] >> (u + 1) << (u + 1)
            while w:
                yield u, (w & -w).bit_length() - 1
                w &= w - 1


def _check_star_size(r: int) -> int:
    """A star size is an int >= 3."""
    if not isinstance(r, int) or r < 3:
        raise InvalidParameterError(f"star size r must be an int >= 3, got {r!r}")
    return int(r)


def _check_fault_budget(k: int) -> int:
    """A fault budget is an int >= 0."""
    if not isinstance(k, int) or k < 0:
        raise InvalidParameterError(f"fault budget k must be an int >= 0, got {k!r}")
    return int(k)


def _check_vertex(v: int, n: int) -> int:
    """A vertex of an order-n graph is an int in 0..n-1."""
    if not (isinstance(v, int) and 0 <= v < n):
        raise InvalidParameterError(f"vertex {v!r} out of range for order {n}")
    return int(v)


def _check_order(n: int) -> int:
    """An order is an int from 0 up to the vertex cap."""
    if not isinstance(n, int):
        raise InvalidParameterError(f"order must be an int, got {n!r}")
    if n < 0:
        raise InvalidParameterError(f"order must be >= 0, got {n}")
    if n > MAX_ORDER:
        raise CapacityExceededError(f"order {n} exceeds the {MAX_ORDER}-vertex cap")
    return int(n)


def empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    _check_order(n)
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    return complement(empty(n))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given edges (duplicates are fine)."""
    _check_order(n)
    rows = [0] * n
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise InvalidParameterError(f"edge {edge!r} is not a pair of vertices") from None
        u, v = _check_vertex(u, n), _check_vertex(v, n)
        if u == v:
            raise InvalidParameterError(f"loop at vertex {u} rejected")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# Used only by the tests and by perfbench/tracing.py, whose SPANS wraps it by name.
def with_edge(g: Graph, u: int, v: int) -> Graph:
    """Copy of g with edge uv added."""
    return from_edges(g.n, [*g.edges(), (u, v)])


def pad(g: Graph, n: int) -> Graph:
    """g with isolated vertices appended up to order n."""
    _check_order(n)
    if n < g.n:
        raise InvalidParameterError(f"cannot pad order {g.n} down to {n}")
    return Graph(n, g.rows + (0,) * (n - g.n))


def star(r: int) -> Graph:
    """The star with one center (vertex 0) and r leaves; defined for r >= 3."""
    _check_star_size(r)
    _check_order(r + 1)
    return conjunction(empty(1), empty(r))


def conjunction(g1: Graph, g2: Graph) -> Graph:
    """Join of g1 and g2: both edge sets plus every edge across the two parts.

    The result has order |g1| + |g2| and size ||g1|| + ||g2|| + |g1|*|g2|.
    """
    n1, n2 = g1.n, g2.n
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n2) - 1) << n1
    rows = [g1.rows[v] | mask2 for v in range(n1)]
    rows += [(g2.rows[v] << n1) | mask1 for v in range(n2)]
    return Graph(n1 + n2, tuple(rows))


def near_complete_regular(n: int) -> Graph:
    """The (n-2)-regular graph on n vertices: complement of a perfect matching.

    Exists only for even n; the missing matching pairs are (0,1), (2,3), ...
    """
    if not isinstance(n, int) or n < 2 or n % 2:
        raise InvalidParameterError(f"(n-2)-regular graph needs even n >= 2, got {n!r}")
    return complement(from_edges(n, [(v, v + 1) for v in range(0, n, 2)]))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows)))


# Used only by the tests and by perfbench/tracing.py, whose SPANS wraps it by name.
def induced_delete(g: Graph, faults: Iterable[int]) -> Graph:
    """Subgraph induced on the vertices outside ``faults``, which keep their order."""
    fset = frozenset(_check_vertex(v, g.n) for v in faults)
    return _induced(g, [v for v in range(g.n) if v not in fset])


# Used only by the tests and by perfbench/tracing.py, whose SPANS wraps it by name.
def permute(g: Graph, order: Sequence[int]) -> Graph:
    """Relabel g so that new vertex i is old vertex order[i]."""
    if not all(isinstance(v, int) for v in order) or sorted(order) != list(range(g.n)):
        raise InvalidParameterError("order must be a permutation of the vertices")
    return _induced(g, order)


def _induced(g: Graph, order: Sequence[int]) -> Graph:
    """Subgraph induced on the listed vertices: new vertex i is old vertex
    order[i], and edges to vertices outside the list are dropped."""
    pos = {v: i for i, v in enumerate(order)}
    return from_edges(len(order), [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos])


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
    # The header is one group, or for the long form '~' (63) and n in three groups.
    header, hbytes = (n, 1) if n < 63 else (63 << 18 | n, 4)
    bits = (header << npairs | bits) << (-npairs % 6)
    nbytes = hbytes + (npairs + 5) // 6
    return "".join(chr((bits >> shift & 63) + 63) for shift in range(6 * nbytes - 6, -1, -6))


def _from_groups(text: str, error: str) -> int:
    """The int in big-endian 6-bit groups offset by 63; other bytes are refused by ``error``."""
    value = 0
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise Graph6ParseError(error.format(ord(ch)))
        value = value << 6 | ord(ch) - 63
    return value


def encode_graph6(g: Graph) -> str:
    """Standard graph6 text: a one-byte header up to order 62, the long form above."""
    return _graph6_text(g.n, _pair_bits(g.rows, range(g.n)))


def decode_graph6(text: str | bytes) -> Graph:
    """Parse graph6 text; inverse of :func:`encode_graph6`."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6ParseError("graph6 input is not ASCII") from exc
    s = text.strip(" \t\n\r\v\f")  # string.whitespace: ASCII whitespace only
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6ParseError("empty graph6 string")
    head, body = (s[1:4], s[4:]) if s[0] == "~" else (s[0], s[1:])  # '~': the long form
    n = _from_groups(head, "bad graph6 header byte {}")
    if s[0] == "~":
        if len(s) < 4:
            raise Graph6ParseError("truncated graph6 long-form header")
        if s[1] == "~":
            raise Graph6ParseError(f"graph6 8-byte header: orders past the {MAX_ORDER}-vertex cap")
        if n < 63:
            raise Graph6ParseError(f"graph6 long-form header names order {n}, below 63")
        _check_order(n)
    npairs = n * (n - 1) // 2
    if len(body) != (npairs + 5) // 6:
        raise Graph6ParseError(f"graph6 body has {len(body)} bytes, expected {(npairs + 5) // 6}")
    bits = _from_groups(body, "graph6 body byte {} out of range")
    padding = len(body) * 6 - npairs
    if bits & ((1 << padding) - 1):
        raise Graph6ParseError("nonzero padding bits in graph6 body")
    bits >>= padding
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return from_edges(n, (p for p, bit in zip(pairs, f"{bits:0{npairs}b}") if bit == "1"))


def export_dot(g: Graph, index_base: int = 0) -> str:
    """Deterministic DOT text: one line per vertex, then one per edge (u < v)."""
    if not isinstance(index_base, int):
        raise InvalidParameterError(f"index_base must be an int, got {index_base!r}")
    lines = ["graph {"]
    for v in range(g.n):
        lines.append(f"  {v + index_base};")
    for u, v in g.edges():
        lines.append(f"  {u + index_base} -- {v + index_base};")
    lines.append("}")
    return "\n".join(lines) + "\n"
