"""Acceptance suite: one test per criterion, timed against its stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
import warnings
from contextlib import contextmanager
from itertools import combinations
from math import comb

from starstab import (
    IsolatedPatternWarning,
    bch_construct,
    canonical_form,
    certify,
    complete,
    conjunction,
    decode_graph6,
    empty,
    encode_graph6,
    from_edges,
    graphs_of_order_and_size,
    is_stable_general,
    is_star_stable,
    near_complete_regular,
    recovery_embedding,
    star,
    star_stable,
)
from starstab.construct import star_instance


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {seconds}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget: {elapsed:.2f}s"


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_labelling(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return tuple(labels)


def all_order6_classes():
    for m in range(comb(6, 2) + 1):
        yield from graphs_of_order_and_size(6, m)


def test_criterion_1_worked_example_reproduction():
    with budget("1 worked-example reproduction", 1):
        pattern = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        first = bch_construct(pattern, 2, (3, 4, 1, 2)).result
        second = bch_construct(pattern, 2, (1, 2, 3, 4)).result
        assert sorted((u + 1, v + 1) for u, v in first.edges()) == [
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
            (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
        ]
        assert first.size == 13
        assert second == complete(6)
        assert second.size == 15
        assert canonical_form(first) != canonical_form(second)


def test_criterion_2_star_construction_uniqueness_suite():
    with budget("2 star construction uniqueness", 10):
        rng = random.Random(2024)
        for r in range(3, 9):
            for k in range(0, 6):
                target = star_stable(r, k)
                target_code = canonical_form(target)
                expected_degrees = sorted([r + k] * (k + 1) + [k + 1] * r)
                for _ in range(50):
                    built = bch_construct(star(r), k, random_labelling(rng, r + 1)).result
                    assert 2 * built.size == (k + 1) * (2 * r + k)
                    assert sorted(built.degrees()) == expected_degrees
                    assert canonical_form(built) == target_code


def test_criterion_3_construction_is_stable():
    with budget("3 constructed graphs pass exhaustive stability", 60):
        rng = random.Random(777)
        for _ in range(25):
            n = rng.randrange(2, 6)
            pattern = random_graph(rng, n, rng.random())
            k = rng.randrange(0, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IsolatedPatternWarning)
                instance = bch_construct(pattern, k, random_labelling(rng, n))
            assert is_stable_general(instance.result, pattern, k).stable


def test_criterion_4_recovery_embedding_correctness():
    with budget("4 greedy recovery embedding", 10):
        for r in (3, 4, 5):
            for k in (1, 2, 3):
                instance = star_instance(r, k)
                g = instance.result
                labels = range(1, g.n + 1)
                pattern_edges = [
                    (instance.labelling[u], instance.labelling[v])
                    for u, v in instance.pattern.edges()
                ]
                for size in range(0, k + 1):
                    for faults in combinations(labels, size):
                        mapping = dict(recovery_embedding(instance, faults))
                        images = list(mapping.values())
                        assert len(set(images)) == len(images)
                        assert not set(images) & set(faults)
                        for src, dst in mapping.items():
                            assert src <= dst <= src + k
                        for i, j in pattern_edges:
                            assert g.adjacent(mapping[i] - 1, mapping[j] - 1)


def test_criterion_5_regular_graph_parity_and_uniqueness():
    with budget("5 matching-complement stability parity", 30):
        # (a) the complement of a perfect matching on r+k+1 vertices is
        # star-stable exactly for even r with odd k
        for r in range(3, 7):
            for k in range(0, 6):
                n = r + k + 1
                if n % 2:
                    continue
                verdict = is_star_stable(near_complete_regular(n), r, k)
                assert verdict.stable == (r % 2 == 0 and k % 2 == 1)
        # (b) among all 156 order-6 classes, the matching complement is the
        # only graph without a total vertex that survives one fault for r=4
        low_degree_stable = []
        total = 0
        for g in all_order6_classes():
            total += 1
            if max(g.degrees(), default=0) < 5 and is_star_stable(g, 4, 1).stable:
                low_degree_stable.append(g)
        assert total == 156
        assert len(low_degree_stable) == 1
        assert canonical_form(low_degree_stable[0]) == canonical_form(near_complete_regular(6))


def test_criterion_6_certification_grid():
    grid = [
        (3, 0, 3, 1), (3, 1, 7, 1), (3, 2, 12, 1), (3, 3, 18, 1),
        (4, 0, 4, 1), (4, 1, 9, 1), (4, 2, 15, 1),
        (4, 7, 60, 2), (4, 8, 72, 2), (4, 9, 84, 1), (4, 10, 98, 1),
        (5, 0, 5, 1), (5, 1, 11, 1), (5, 2, 18, 1),
    ]
    with budget("6 certification grid", 600):
        for r, k, value, n_extremal in grid:
            start = time.perf_counter()
            cert = certify(r, k)
            elapsed = time.perf_counter() - start
            assert elapsed < 60, f"certify({r},{k}) took {elapsed:.1f}s"
            assert cert.claimed_value == value
            assert cert.minimality_ok
            assert cert.match
            assert len(cert.extremal_found) == n_extremal
            assert cert.extremal_found == cert.extremal_expected
        # the unique extremal classes beyond the boundary are pinned exactly
        assert certify(4, 9).extremal_found == (
            canonical_form(near_complete_regular(14)),)
        assert certify(4, 10).extremal_found == (
            canonical_form(conjunction(near_complete_regular(14), complete(1))),)


def test_criterion_7_oracle_equivalences():
    with budget("7 oracle equivalences", 60):
        classes = list(all_order6_classes())
        assert len(classes) == 156
        for r, k in [(3, 1), (3, 2), (4, 1)]:
            pattern = star(r)
            for g in classes:
                assert is_star_stable(g, r, k).stable == \
                    is_stable_general(g, pattern, k).stable
        # census counts agree with direct labeled enumeration for every size
        for n in range(0, 7):
            pairs = list(combinations(range(n), 2))
            by_size = {}
            for mask in range(1 << len(pairs)):
                g = from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                by_size.setdefault(g.size, set()).add(canonical_form(g))
            for m in range(comb(n, 2) + 1):
                produced = {canonical_form(g) for g in graphs_of_order_and_size(n, m)}
                assert produced == by_size.get(m, set())


def test_criterion_8_serialization():
    with budget("8 graph6 serialization", 5):
        assert encode_graph6(complete(4)) == "C~"
        assert encode_graph6(empty(4)) == "C?"
        assert encode_graph6(star(3)) == "Cs"
        rng = random.Random(8)
        for _ in range(1000):
            g = random_graph(rng, rng.randrange(0, 17), rng.random())
            assert decode_graph6(encode_graph6(g)) == g
