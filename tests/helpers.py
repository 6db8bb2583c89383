"""Graph generators shared by the test modules (not collected by pytest)."""

from itertools import combinations

from starstab import from_edges


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
