import random
from itertools import combinations

import pytest

from starstab import (
    CapacityExceededError,
    InvalidParameterError,
    canonical_form,
    complement,
    complete,
    contains_subgraph,
    empty,
    from_edges,
    graphs_of_order_and_size,
    induced_delete,
    is_stable_general,
    is_star_stable,
    near_complete_regular,
    pad,
    stab_value,
    star,
    star_stable,
    with_edge,
)
from starstab.stability import sparse_complement_guarantees_stable


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_stable_by_subsets(g, r, k):
    """Reference oracle for graphs of order exactly r+k+1.

    At exact order, stability is equivalent to every (r+1)-subset containing a
    vertex adjacent to all other vertices of the subset.
    """
    if g.n != r + k + 1:
        raise InvalidParameterError(
            f"subset criterion applies at order r+k+1 = {r + k + 1}, got {g.n}")
    for subset in combinations(range(g.n), r + 1):
        smask = 0
        for v in subset:
            smask |= 1 << v
        if not any(smask & ~(1 << v) & ~g.rows[v] == 0 for v in subset):
            return False
    return True


WORKED_PATTERN = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
# the 13-edge fault-tolerant expansion of WORKED_PATTERN, 1-based labels
WORKED_EXPANSION = from_edges(6, [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
    (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
])


class TestContainsSubgraph:
    def test_complete_contains_everything_small(self):
        assert contains_subgraph(complete(6), WORKED_PATTERN)

    def test_triangle_free_host(self):
        assert not contains_subgraph(cycle(5), complete(3))

    def test_construction_survives_one_deletion(self):
        g = star_stable(3, 1)
        for v in range(g.n):
            assert contains_subgraph(induced_delete(g, {v}), star(3))

    def test_pattern_larger_than_host(self):
        assert not contains_subgraph(complete(3), complete(4))

    def test_empty_pattern(self):
        assert contains_subgraph(empty(0), empty(0))
        assert contains_subgraph(complete(3), empty(0))

    def test_self_containment(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 7))
            assert contains_subgraph(g, g)

    def test_subgraph_not_induced(self):
        # a path embeds into a cycle even though no induced copy exists
        assert contains_subgraph(cycle(4), from_edges(4, [(0, 1), (1, 2), (2, 3)]))


class TestIsStarStable:
    def test_large_join_instance(self):
        assert is_star_stable(star_stable(8, 7), 8, 7).stable

    def test_matching_complement_parity_small(self):
        assert is_star_stable(near_complete_regular(6), 4, 1).stable
        verdict = is_star_stable(near_complete_regular(6), 3, 2)
        assert not verdict.stable
        assert verdict.witness == (0, 1)  # first matching pair

    def test_too_small_graph(self):
        verdict = is_star_stable(complete(4), 4, 1)
        assert not verdict.stable
        assert verdict.witness == (0,)

    def test_zero_budget(self):
        assert is_star_stable(star(3), 3, 0).stable
        assert not is_star_stable(cycle(4), 3, 0).stable

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            is_star_stable(complete(5), 2, 1)
        with pytest.raises(InvalidParameterError):
            is_star_stable(complete(5), 3, -1)

    def test_witness_is_lexicographically_smallest(self):
        rng = random.Random(43)
        for _ in range(15):
            g = random_graph(rng, 6, 0.6)
            verdict = is_star_stable(g, 3, 2)
            if verdict.stable:
                continue
            full = (1 << g.n) - 1
            for fault in combinations(range(g.n), 2):
                alive = full
                for v in fault:
                    alive ^= 1 << v
                fails = all(
                    (g.rows[v] & alive).bit_count() < 3
                    for v in range(g.n) if alive >> v & 1
                )
                if fails:
                    assert fault == verdict.witness
                    break

    def test_witness_validity_recheck(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(5, 9), 0.5)
            verdict = is_star_stable(g, 3, 1)
            if not verdict.stable:
                survivor = induced_delete(g, verdict.witness)
                assert survivor.max_degree() < 3


class TestIsStableGeneral:
    def test_worked_expansion_is_two_fault_stable(self):
        assert is_stable_general(WORKED_EXPANSION, WORKED_PATTERN, 2).stable

    def test_pattern_stable_for_itself(self):
        rng = random.Random(53)
        for _ in range(10):
            g = random_graph(rng, rng.randrange(1, 7))
            assert is_stable_general(g, g, 0).stable

    def test_star_center_is_a_single_point_of_failure(self):
        verdict = is_stable_general(star(3), star(3), 1)
        assert not verdict.stable
        assert verdict.witness == (0,)

    def test_agrees_with_star_specialized_check(self):
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randrange(4, 9)
            g = random_graph(rng, n, rng.random())
            r = rng.randrange(3, 5)
            k = rng.randrange(0, 3)
            assert is_stable_general(g, star(r), k).stable == is_star_stable(g, r, k).stable

    def test_checked_fault_set_count(self):
        verdict = is_stable_general(star_stable(3, 1), star(3), 1)
        assert verdict.stable
        assert verdict.checked_fault_sets == 5


class TestFaultSetBudget:
    def test_walk_of_exactly_the_budget_runs(self, monkeypatch):
        g = star_stable(4, 3)  # order 8: C(8, 3) = 56 fault sets
        monkeypatch.setattr("starstab.stability.MAX_FAULT_SETS", 56)
        assert is_star_stable(g, 4, 3).checked_fault_sets == 56
        assert is_stable_general(g, star(4), 3).checked_fault_sets == 56
        monkeypatch.setattr("starstab.stability.MAX_FAULT_SETS", 55)
        with pytest.raises(CapacityExceededError):
            is_star_stable(g, 4, 3)
        with pytest.raises(CapacityExceededError):
            is_stable_general(g, star(4), 3)

    def test_both_deciders_refuse_an_oversized_walk(self):
        g = complete(40)  # C(40, 20) is about 1.4e11 fault sets
        with pytest.raises(CapacityExceededError):
            is_star_stable(g, 3, 20)
        with pytest.raises(CapacityExceededError):
            is_stable_general(g, star(3), 20)

    def test_trivially_unstable_input_is_answered_not_refused(self):
        verdict = is_star_stable(complete(40), 30, 20)
        assert not verdict.stable
        assert verdict.checked_fault_sets == 0


class TestSubsetCriterion:
    def test_requires_exact_order(self):
        with pytest.raises(InvalidParameterError):
            star_stable_by_subsets(complete(6), 3, 1)

    def test_agrees_at_exact_order(self):
        rng = random.Random(61)
        for _ in range(40):
            r = rng.randrange(3, 5)
            k = rng.randrange(0, 3)
            g = random_graph(rng, r + k + 1, rng.random())
            assert star_stable_by_subsets(g, r, k) == is_star_stable(g, r, k).stable

    def test_agrees_on_every_certify_census_class(self):
        # the classes certify decides: order r+k+1, one edge below the claimed
        # minimum and at it
        for r, k in [(3, 0), (3, 1), (3, 2), (4, 1), (4, 2)]:
            value = stab_value(r, k)
            for m in (value - 1, value):
                for g in graphs_of_order_and_size(r + k + 1, m):
                    expected = star_stable_by_subsets(g, r, k)
                    assert is_star_stable(g, r, k).stable == expected
                    if sparse_complement_guarantees_stable(g, r):
                        assert expected


class TestSparseComplementAccelerator:
    def test_never_contradicts_exhaustive_check(self):
        rng = random.Random(67)
        hits = 0
        for _ in range(200):
            r = rng.randrange(3, 5)
            k = rng.randrange(0, 3)
            g = random_graph(rng, r + k + 1, 0.9)
            if sparse_complement_guarantees_stable(g, r):
                hits += 1
                assert is_star_stable(g, r, k).stable
        assert hits > 0

    def test_applies_beyond_exact_order(self):
        g = complement(from_edges(8, [(0, 1)]))
        assert sparse_complement_guarantees_stable(g, 3)
        assert is_star_stable(g, 3, 2).stable


class TestEdgeMonotonicity:
    def test_adding_edges_preserves_stability(self):
        rng = random.Random(71)
        found = 0
        while found < 12:
            r, k = 3, rng.randrange(0, 3)
            g = random_graph(rng, r + k + 1 + rng.randrange(0, 2), 0.7)
            if not is_star_stable(g, r, k).stable:
                continue
            found += 1
            missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not g.adjacent(u, v)]
            if missing:
                u, v = rng.choice(missing)
                assert is_star_stable(with_edge(g, u, v), r, k).stable


class TestClassifyLowDegree:
    # at order r+k+1, a graph without a total vertex can be stable only if it
    # is the complement of a perfect matching, and only for even r with odd k
    @staticmethod
    def is_regular_survivor(g):
        return canonical_form(g) == canonical_form(near_complete_regular(g.n))

    def test_survivor(self):
        g = near_complete_regular(6)
        assert g.max_degree() < 5
        assert is_star_stable(g, 4, 1).stable

    def test_wrong_parity_is_unstable(self):
        assert not is_star_stable(near_complete_regular(6), 3, 2).stable

    def test_total_vertex_not_applicable(self):
        # the rule says nothing about graphs with a total vertex: this one is
        # stable without being the regular survivor
        g = star_stable(4, 1)
        assert g.max_degree() == 5
        assert is_star_stable(g, 4, 1).stable
        assert not self.is_regular_survivor(g)

    def test_never_contradicts_exhaustive_check(self):
        rng = random.Random(73)
        for _ in range(60):
            r = rng.randrange(3, 5)
            k = rng.randrange(0, 3)
            g = random_graph(rng, r + k + 1, rng.random())
            if g.max_degree() == r + k:
                continue
            expected = r % 2 == 0 and k % 2 == 1 and self.is_regular_survivor(g)
            assert is_star_stable(g, r, k).stable == expected

    def test_exhaustive_order_six_agreement(self):
        regular = canonical_form(near_complete_regular(6))
        for r, k in [(4, 1), (3, 2)]:
            survivors = [
                canonical_form(g)
                for m in range(16)
                for g in graphs_of_order_and_size(6, m)
                if g.max_degree() < 5 and is_star_stable(g, r, k).stable
            ]
            assert survivors == ([regular] if r % 2 == 0 and k % 2 else [])


class TestIsolatedVertexReading:
    # adding or removing isolated vertices preserves stability as long as the
    # pattern itself has no isolated vertices
    def test_padding_preserves_stability(self):
        g = star_stable(3, 1)
        assert is_stable_general(g, star(3), 1).stable
        assert is_stable_general(pad(g, 7), star(3), 1).stable

    def test_removing_isolated_vertices_preserves_stability(self):
        g = pad(star_stable(3, 1), 7)
        trimmed = induced_delete(g, {5, 6})
        assert is_stable_general(trimmed, star(3), 1).stable
