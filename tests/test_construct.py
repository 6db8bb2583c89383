import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations, permutations
from pathlib import Path

import pytest

import starstab
from starstab import (
    CapacityExceededError,
    InvalidParameterError,
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
from starstab.cli import main
from starstab.construct import star_instance
from helpers import (
    WORKED_PATTERN, adjacent, all_labeled_graphs, degrees, random_graph, random_labelling,
)


def reference_expansion(pattern, k, labelling):
    """The expansion edge by edge: every label pair between {i..i+k} and
    {j..j+k} for each pattern edge with labels i and j."""
    edges = []
    for u, v in pattern.edges():
        i, j = labelling[u], labelling[v]
        for a in range(i, i + k + 1):
            for b in range(j, j + k + 1):
                if a != b:
                    edges.append((a - 1, b - 1))
    return from_edges(pattern.n + k, edges)


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

    def test_fault_budget_must_be_an_int(self):
        with pytest.raises(InvalidParameterError, match="fault budget k"):
            bch_construct(PATH3, 1.0, (1, 2, 3))

    def test_labels_are_integers(self):
        class Label:  # an integer by __index__ only, which the int rule refuses
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        for labels in ((1.0, 2.0, 3.0, 4.0), [Label(v) for v in (1, 2, 3, 4)]):
            with pytest.raises(InvalidParameterError, match="^labels must be integers, got "):
                bch_construct(star(3), 1, labels)
        labelling = bch_construct(star(3), 1, (True, 2, 3, 4)).labelling
        assert labelling == (1, 2, 3, 4) and type(labelling[0]) is int


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
            instance = bch_construct(pattern, 0, random_labelling(rng, n))
            assert canonical_form(instance.result) == canonical_form(pattern)

    def test_matches_reference_on_every_small_labelled_pattern(self):
        calls = 0
        for n in range(5):
            for pattern in all_labeled_graphs(n):
                for labelling in permutations(range(1, n + 1)):
                    for k in range(4):
                        built = bch_construct(pattern, k, labelling).result
                        assert built == reference_expansion(pattern, k, labelling)
                        calls += 1
        assert calls == 4 * (1 + 1 + 2 * 2 + 8 * 6 + 64 * 24)

    def test_matches_reference_on_random_patterns(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randrange(5, 9)
            pattern = random_graph(rng, n, rng.random())
            labelling = random_labelling(rng, n)
            k = rng.randrange(0, 5)
            assert bch_construct(pattern, k, labelling).result == \
                reference_expansion(pattern, k, labelling)
        # fixed order-5 inputs, besides the seeded ones
        for edges, k, labelling in [
            ([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 1,
             (4, 3, 1, 2, 5)),
            ([(0, 2), (1, 4), (2, 3)], 1, (5, 3, 1, 2, 4)),
            ([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 0, (5, 3, 4, 1, 2)),
        ]:
            pattern = from_edges(5, edges)
            assert bch_construct(pattern, k, labelling).result == \
                reference_expansion(pattern, k, labelling)

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            bch_construct(star(3), -1, (1, 2, 3, 4))

    def test_wrong_labelling_length(self):
        with pytest.raises(InvalidParameterError):
            bch_construct(star(3), 1, (1, 2, 3))


class TestStarStable:
    def test_is_the_join_of_a_clique_and_isolated_vertices(self):
        # labelled equality: labels 1..k+1 form the clique, the r leaves follow
        pairs = 0
        for r in range(3, 64):
            for k in range(64 - r):
                assert star_stable(r, k) == conjunction(complete(k + 1), empty(r))
                pairs += 1
        assert pairs == 1_891

    def test_figure_instance(self):
        g = star_stable(8, 7)
        assert (g.n, g.size) == (16, 92)

    def test_zero_budget_is_the_star(self):
        assert star_stable(3, 0) == star(3)

    def test_small_degrees(self):
        g = star_stable(3, 1)
        assert (g.n, g.size) == (5, 7)
        assert sorted(degrees(g), reverse=True) == [4, 4, 2, 2, 2]

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
            assert adjacent(g, 2 - 1, leaf - 1)

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

    def test_fault_labels_must_be_ints(self):
        with pytest.raises(InvalidParameterError, match="fault label 1.0"):
            recovery_embedding(star_instance(3, 1), [1.0])

    def test_unknown_label_is_named_before_the_budget(self):
        with pytest.raises(InvalidParameterError, match="^fault label 9 is not a vertex label"):
            recovery_embedding(star_instance(3, 1), [1, 2, 9])

    # The result must be the expansion of the instance's own pattern, k and
    # labelling; a bad labelling is refused by the construction's own check.
    @pytest.mark.parametrize("edit, message", [
        (lambda i: i._replace(labelling=(0, 1, 2, 3)),
         "labelling must be a bijection onto 1..4, got (0, 1, 2, 3)"),
        (lambda i: i._replace(labelling=(1, 2, 3)),
         "labelling must be a bijection onto 1..4, got (1, 2, 3)"),
        (lambda i: i._replace(result=from_edges(5, [*i.result.edges(), (3, 4)])),
         "result is not the expansion of its pattern, k and labelling"),
        (lambda i: i._replace(result=from_edges(5, list(i.result.edges())[1:])),
         "result is not the expansion of its pattern, k and labelling"),
        (lambda i: i._replace(k=0),
         "result is not the expansion of its pattern, k and labelling"),
    ], ids=["label-zero", "short-labelling", "extra-edge", "missing-edge", "other-k"])
    def test_instance_that_is_not_its_expansion(self, edit, message):
        with pytest.raises(InvalidParameterError) as excinfo:
            recovery_embedding(edit(star_instance(3, 1)), [])
        assert str(excinfo.value) == message

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
        assert proc.stdout == ("refused: result is not the expansion of its pattern, "
                               "k and labelling\n")


def test_recovery_lemma_on_every_small_connected_pattern():
    # The library checks only that the result is the expansion of its own
    # pattern, k and labelling; the lemma on such a result is checked here:
    # for every labelled pattern of order 1-4 (disconnected ones and ones with
    # isolated vertices included) under every labelling, k <= 2 and every
    # fault set of size f <= k, the map is injective, avoids the faults, sends
    # label i into {i..i+f} and keeps every pattern edge.
    calls = 0
    for n in range(1, 5):
        for pattern in all_labeled_graphs(n):
            for labelling in permutations(range(1, n + 1)):
                for k in range(3):
                    instance = bch_construct(pattern, k, labelling)
                    for size in range(k + 1):
                        for faults in combinations(range(1, n + k + 1), size):
                            embedding = recovery_embedding(instance, faults)
                            psi = dict(embedding)
                            assert sorted(psi) == list(range(1, n + 1))
                            assert len(set(psi.values())) == n
                            assert not set(psi.values()) & set(faults)
                            assert all(src <= dst <= src + size for src, dst in embedding)
                            for u, v in pattern.edges():
                                a, b = psi[labelling[u]], psi[labelling[v]]
                                assert adjacent(instance.result, a - 1, b - 1)
                            calls += 1
    assert calls == 45_675


def test_default_star_labelling_center_first():
    assert star_instance(4, 1).labelling == (1, 2, 3, 4, 5)


def test_star_builders_refuse_the_order_before_the_budget(capsys):
    message = "order 101 exceeds the 64-vertex cap"
    for build in (star_stable, star_instance):
        with pytest.raises(CapacityExceededError, match=f"^{message}$"):
            build(100, -1)
    assert main(["construct", "--r", "100", "--k", "-1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("build, order", [
    (lambda: star_stable(4, 61), 66),
    (lambda: extremal_family(4, 60), 65),
    (lambda: bch_construct(star(3), 61, (1, 2, 3, 4)), 65),
    (lambda: conjunction(empty(40), empty(30)), 70),
], ids=["star_stable", "extremal_family", "bch_construct", "conjunction"])
def test_vertex_cap_names_the_full_order(build, order):
    with pytest.raises(CapacityExceededError, match=f"^order {order} exceeds the 64-vertex cap$"):
        build()
