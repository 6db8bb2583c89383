import os
import random
import subprocess
import sys
import textwrap
import warnings
from itertools import combinations
from pathlib import Path

import pytest

import starstab
from starstab import (
    CapacityExceededError,
    InvalidParameterError,
    IsolatedPatternWarning,
    bch_construct,
    canonical_form,
    complete,
    conjunction,
    empty,
    extremal_family,
    from_edges,
    recovery_embedding,
    star,
    star_stable,
)
from starstab.construct import star_instance


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_labelling(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return tuple(labels)


WORKED_PATTERN = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])


PATH3 = from_edges(3, [(0, 1), (1, 2)])


class TestLabelling:
    def test_identity(self):
        # any sequence of labels is kept as a tuple
        assert bch_construct(PATH3, 1, range(1, 4)).labelling == (1, 2, 3)

    def test_rejects_non_bijection(self):
        for labels in ((1, 1, 2), (0, 1, 2)):
            with pytest.raises(InvalidParameterError) as excinfo:
                bch_construct(PATH3, 1, labels)
            assert str(excinfo.value) == f"labelling must be a bijection onto 1..3, got {labels}"


class TestBchConstruct:
    def test_worked_example_first_labelling(self):
        instance = bch_construct(WORKED_PATTERN, 2, (3, 4, 1, 2))
        got = sorted((u + 1, v + 1) for u, v in instance.result.edges())
        assert got == [
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
            (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
        ]

    def test_worked_example_second_labelling(self):
        instance = bch_construct(WORKED_PATTERN, 2, (1, 2, 3, 4))
        assert instance.result == complete(6)

    def test_zero_budget_reproduces_pattern(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randrange(2, 7)
            pattern = random_graph(rng, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IsolatedPatternWarning)
                instance = bch_construct(pattern, 0, random_labelling(rng, n))
            assert canonical_form(instance.result) == canonical_form(pattern)

    def test_interval_edges_all_present(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randrange(2, 6)
            k = rng.randrange(0, 3)
            pattern = random_graph(rng, n, 0.6)
            labelling = random_labelling(rng, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IsolatedPatternWarning)
                instance = bch_construct(pattern, k, labelling)
            assert instance.result.n == n + k
            for u, v in pattern.edges():
                i, j = labelling[u], labelling[v]
                for a in range(i, i + k + 1):
                    for b in range(j, j + k + 1):
                        if a != b:
                            assert instance.result.adjacent(a - 1, b - 1)

    def test_isolated_pattern_warns(self):
        with pytest.warns(IsolatedPatternWarning):
            bch_construct(empty(3), 1, (1, 2, 3))

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            bch_construct(star(3), -1, (1, 2, 3, 4))

    def test_wrong_labelling_length(self):
        with pytest.raises(InvalidParameterError):
            bch_construct(star(3), 1, (1, 2, 3))


class TestStarStable:
    def test_figure_instance(self):
        g = star_stable(8, 7)
        assert (g.n, g.size) == (16, 92)

    def test_zero_budget_is_the_star(self):
        assert star_stable(3, 0) == star(3)

    def test_small_degrees(self):
        g = star_stable(3, 1)
        assert (g.n, g.size) == (5, 7)
        assert sorted(g.degrees(), reverse=True) == [4, 4, 2, 2, 2]

    def test_degree_multiset(self):
        for r in range(3, 7):
            for k in range(0, 4):
                degs = sorted(star_stable(r, k).degrees(), reverse=True)
                assert degs == [r + k] * (k + 1) + [k + 1] * r

    def test_size_formula(self):
        for r in range(3, 9):
            for k in range(0, 6):
                assert 2 * star_stable(r, k).size == (k + 1) * (2 * r + k)

    def test_low_degree_vertices_independent(self):
        for r, k in [(3, 2), (5, 1), (4, 3)]:
            g = star_stable(r, k)
            low = [v for v in range(g.n) if g.degree(v) == k + 1]
            assert len(low) == r
            assert all(not g.adjacent(u, v) for u, v in combinations(low, 2))

    def test_construction_matches_for_any_labelling(self):
        rng = random.Random(37)
        for r in range(3, 6):
            for k in range(0, 4):
                built = bch_construct(star(r), k, random_labelling(rng, r + 1)).result
                assert canonical_form(built) == canonical_form(star_stable(r, k))

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            star_stable(2, 1)
        with pytest.raises(InvalidParameterError):
            star_stable(3, -1)


class TestRecoveryEmbedding:
    def test_center_fault_shifts_everything(self):
        instance = star_instance(3, 1)
        embedding = recovery_embedding(instance, [1])
        assert embedding == ((1, 2), (2, 3), (3, 4), (4, 5))
        # the re-embedded star edges all survive
        g = instance.result
        for leaf in (3, 4, 5):
            assert g.adjacent(2 - 1, leaf - 1)

    def test_no_faults_identity(self):
        instance = star_instance(4, 2)
        embedding = recovery_embedding(instance, [])
        assert all(src == dst for src, dst in embedding)

    def test_worked_example_spare_faults(self):
        instance = bch_construct(WORKED_PATTERN, 2, (1, 2, 3, 4))
        embedding = recovery_embedding(instance, [5, 6])
        assert embedding == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_too_many_faults(self):
        instance = star_instance(3, 1)
        with pytest.raises(InvalidParameterError):
            recovery_embedding(instance, [1, 2])

    def test_unknown_fault_label(self):
        instance = star_instance(3, 1)
        with pytest.raises(InvalidParameterError):
            recovery_embedding(instance, [6])

    def test_shift_bound_exhaustive_small(self):
        instance = star_instance(4, 2)
        n_total = instance.result.n
        for size in range(0, 3):
            for faults in combinations(range(1, n_total + 1), size):
                embedding = recovery_embedding(instance, faults)
                images = [dst for _, dst in embedding]
                assert len(set(images)) == len(images)
                for src, dst in embedding:
                    assert src <= dst <= src + size

    def test_lost_pattern_edge_refused_under_optimize_flag(self):
        # python -O strips assert statements; the embedding check must still run.
        code = textwrap.dedent("""
            from starstab import InvalidParameterError, from_edges, recovery_embedding
            from starstab.construct import LabeledInstance, star_instance

            instance = star_instance(3, 1)
            g = instance.result
            # labels 2 and 3 carry the center-leaf edge once label 1 has failed
            broken_result = from_edges(g.n, [e for e in g.edges() if e != (1, 2)])
            broken = LabeledInstance(instance.pattern, instance.k, instance.labelling,
                                     broken_result)
            try:
                recovery_embedding(broken, [1])
            except InvalidParameterError as exc:
                print("refused:", exc)
            else:
                raise SystemExit("corrupted instance accepted")
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(starstab.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("refused: pattern edge with labels (1, 2) lost")


def test_default_star_labelling_center_first():
    assert star_instance(4, 1).labelling == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("build, order", [
    (lambda: star_stable(4, 61), 66),
    (lambda: extremal_family(4, 60), 65),
    (lambda: bch_construct(star(3), 61, (1, 2, 3, 4)), 65),
    (lambda: conjunction(empty(40), empty(30)), 70),
], ids=["star_stable", "extremal_family", "bch_construct", "conjunction"])
def test_vertex_cap_names_the_full_order(build, order):
    with pytest.raises(CapacityExceededError, match=f"^order {order} exceeds the 64-vertex cap$"):
        build()
