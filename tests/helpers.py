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


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
