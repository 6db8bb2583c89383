"""Graphs, generators and (r, k) grids shared by the test modules and scripts
(not collected by pytest)."""

from itertools import combinations

from starstab import from_edges

# The (r, k) pairs of the certification grid of acceptance criterion 6.
CERTIFICATION_GRID = [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2),
                      (4, 7), (4, 8), (4, 9), (4, 10), (5, 0), (5, 1), (5, 2)]
# The four-vertex pattern of the worked example: a triangle with a pendant vertex.
WORKED_PATTERN = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_labelling(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return tuple(labels)


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def is_connected(g):
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = g.rows[v] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << g.n) - 1


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def adjacent(g, u, v):
    return bool(g.rows[u] >> v & 1)


def degrees(g):
    return tuple(row.bit_count() for row in g.rows)
