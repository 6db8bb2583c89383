import random
from itertools import combinations, permutations
from math import comb

import pytest

from starstab import (
    CapacityExceededError,
    InvalidParameterError,
    StabilityVerdict,
    bch_construct,
    canonical_form,
    complement,
    complete,
    empty,
    from_edges,
    graphs_of_order_and_size,
    is_stable_general,
    is_star_stable,
    near_complete_regular,
    pad,
    stab_value,
    star,
    star_stable,
)
from starstab.graph import induced_delete, with_edge
from starstab.stability import _Budget, _embeds, sparse_complement_guarantees_stable
from helpers import WORKED_PATTERN, adjacent, all_labeled_graphs, cycle, degrees, random_graph


def contains_subgraph(g, pattern):
    """Whether pattern has a copy in g, found within a work budget of its own."""
    return _embeds(g.rows, (1 << g.n) - 1, pattern, _Budget())


def circulant(n, distances):
    return from_edges(n, [(i, (i + d) % n) for i in range(n) for d in distances])


def complete_bipartite(a, b):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def reference_star_walk(g, r, k):
    """The flat walk is_star_stable must reproduce: every k-subset in
    lexicographic order, each checked for a survivor of degree >= r.

    For graphs of order at least r+k+1.
    """
    full = (1 << g.n) - 1
    checked = 0
    for fault in combinations(range(g.n), k):
        checked += 1
        alive = full
        for v in fault:
            alive ^= 1 << v
        if not any((g.rows[v] & alive).bit_count() >= r
                   for v in range(g.n) if alive >> v & 1):
            return StabilityVerdict(False, fault, checked)
    return StabilityVerdict(True, None, checked)


def reference_general_walk(g, pattern, k):
    """The flat walk is_stable_general must reproduce: every k-subset in
    lexicographic order, each checked by a subgraph search in a new graph
    with the fault set deleted."""
    if max(g.n - k, 0) < pattern.n:
        return StabilityVerdict(False, tuple(range(min(k, g.n))), 0)
    checked = 0
    for fault in combinations(range(g.n), k):
        checked += 1
        if not contains_subgraph(induced_delete(g, fault), pattern):
            return StabilityVerdict(False, fault, checked)
    return StabilityVerdict(True, None, checked)


def reference_contains(g, pattern):
    """Subgraph containment by trying every injective map."""
    return any(all(adjacent(g, image[u], image[v]) for u, v in pattern.edges())
               for image in permutations(range(g.n), pattern.n))


# the nine connected patterns of order 2 to 4
CONNECTED_PATTERNS = [
    complete(2),
    from_edges(3, [(0, 1), (1, 2)]),
    complete(3),
    from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    star(3),
    cycle(4),
    from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    complete(4),
]


# the (r, k) pairs whose census classes the oracle tests decide
CENSUS_PAIRS = [(3, 0), (3, 1), (3, 2), (4, 1), (4, 2)]


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

    def test_every_labelled_host_up_to_order_five(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                for pattern in CONNECTED_PATTERNS:
                    assert contains_subgraph(g, pattern) == reference_contains(g, pattern)


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

    def test_star_size_must_be_an_int(self):
        with pytest.raises(InvalidParameterError, match="star size r must be an int >= 3, got 3.5"):
            is_star_stable(complete(5), 3.5, 1)

    def test_witness_is_lexicographically_smallest(self):
        rng = random.Random(43)
        for _ in range(15):
            g = random_graph(rng, 6, 0.6)
            verdict = is_star_stable(g, 3, 2)
            if not verdict.stable:
                assert verdict.witness == reference_star_walk(g, 3, 2).witness

    def test_witness_validity_recheck(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(5, 9), 0.5)
            verdict = is_star_stable(g, 3, 1)
            if not verdict.stable:
                survivor = induced_delete(g, verdict.witness)
                assert max(degrees(survivor), default=0) < 3


class TestAgainstReferenceWalk:
    # the pruned walk must give the flat walk's verdict, witness and count
    def test_every_labelled_graph_up_to_order_six(self):
        for n in range(4, 7):
            for g in all_labeled_graphs(n):
                for r in range(3, n):
                    for k in range(n - r):
                        assert is_star_stable(g, r, k) == reference_star_walk(g, r, k)

    def test_random_labelled_graphs_of_orders_seven_to_twelve(self):
        rng = random.Random(79)
        for _ in range(2000):
            n = rng.randrange(7, 13)
            g = random_graph(rng, n, rng.random())
            r = rng.randrange(3, n)
            k = rng.randrange(n - r)
            assert is_star_stable(g, r, k) == reference_star_walk(g, r, k)

    def test_census_classes(self):
        for r, k in CENSUS_PAIRS:
            value = stab_value(r, k)
            for m in (value - 1, value):
                for g in graphs_of_order_and_size(r + k + 1, m):
                    assert is_star_stable(g, r, k) == reference_star_walk(g, r, k)


class TestAgainstReferenceGeneralWalk:
    # the pruned general walk must give the flat walk's verdict, witness and
    # count; a cover that searched undecided vertices too would fail here
    def test_every_labelled_graph_up_to_order_five(self):
        for n in range(2, 6):
            for g in all_labeled_graphs(n):
                for pattern in CONNECTED_PATTERNS:
                    for k in range(n + 1):
                        assert (is_stable_general(g, pattern, k)
                                == reference_general_walk(g, pattern, k))

    def test_random_hosts_of_orders_six_to_nine(self):
        rng = random.Random(83)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(6, 10), rng.random())
            pattern = rng.choice(CONNECTED_PATTERNS)
            k = rng.randrange(4)
            assert is_stable_general(g, pattern, k) == reference_general_walk(g, pattern, k)

    def test_spare_vertex_hosts_of_orders_six_to_nine(self):
        rng = random.Random(89)
        for _ in range(60):
            pattern = rng.choice(CONNECTED_PATTERNS)
            k = rng.randrange(max(0, 6 - pattern.n), 10 - pattern.n)
            labels = list(range(1, pattern.n + 1))
            rng.shuffle(labels)
            g = bch_construct(pattern, k, tuple(labels)).result
            # the host tolerates k faults; k + 1 can break it
            for faults in (k, k + 1):
                assert (is_stable_general(g, pattern, faults)
                        == reference_general_walk(g, pattern, faults))


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
            # both walk in lexicographic order: same witness and count too
            assert is_stable_general(g, star(r), k) == is_star_stable(g, r, k)

    def test_fault_budget_must_be_an_int(self):
        with pytest.raises(InvalidParameterError, match="fault budget k"):
            is_stable_general(star_stable(3, 1), star(3), 1.0)

    def test_checked_fault_set_count(self):
        verdict = is_stable_general(star_stable(3, 1), star(3), 1)
        assert verdict.stable
        assert verdict.checked_fault_sets == 5

    def test_empty_pattern_survives_every_fault_set(self):
        # every fault set leaves a copy of the empty pattern, so all C(n, k)
        # count, and there are none when k > n
        for n in range(5):
            for host in (empty(n), complete(n)):
                for k in range(7):
                    expected = (True, None, comb(n, k))
                    assert is_stable_general(host, empty(0), k) == expected
                    assert reference_general_walk(host, empty(0), k) == expected


class TestFaultSetBudget:
    # one decision may spend MAX_WORK units: a walk node or a search placement
    def test_walk_of_exactly_the_budget_runs(self, monkeypatch):
        # the star walk of C34(1,2,3) at r = 5, k = 9 visits 37,270 nodes
        g = circulant(34, [1, 2, 3])
        monkeypatch.setattr("starstab.stability.MAX_WORK", 37_270)
        assert not is_star_stable(g, 5, 9).stable
        monkeypatch.setattr("starstab.stability.MAX_WORK", 37_269)
        with pytest.raises(CapacityExceededError):
            is_star_stable(g, 5, 9)
        # 9 nodes and 20 placements: the five covered nodes (the four leaves
        # and the node with 0..3 alive) each place the star's four vertices
        g, pattern = star_stable(3, 1), star(3)
        monkeypatch.setattr("starstab.stability.MAX_WORK", 29)
        assert is_stable_general(g, pattern, 1).checked_fault_sets == 5
        monkeypatch.setattr("starstab.stability.MAX_WORK", 28)
        with pytest.raises(CapacityExceededError):
            is_stable_general(g, pattern, 1)

    def test_both_deciders_refuse_an_oversized_walk(self, monkeypatch):
        # the star walk of C40(1,2,3) at r = 5, k = 10 visits about 317,000 nodes
        monkeypatch.setattr("starstab.stability.MAX_WORK", 10_000)
        g = circulant(40, [1, 2, 3])
        with pytest.raises(CapacityExceededError):
            is_star_stable(g, 5, 10)
        with pytest.raises(CapacityExceededError):
            is_stable_general(g, star(5), 10)

    def test_subgraph_search_is_bounded(self, monkeypatch):
        # one fault set, but the bipartite host has no odd cycle to find
        monkeypatch.setattr("starstab.stability.MAX_WORK", 100_000)
        g = complete_bipartite(10, 10)
        with pytest.raises(CapacityExceededError):
            contains_subgraph(g, cycle(9))
        with pytest.raises(CapacityExceededError):
            is_stable_general(g, cycle(9), 0)

    def test_each_search_has_a_budget_of_its_own(self, monkeypatch):
        # K4 into K4 places its four vertices on the first try
        monkeypatch.setattr("starstab.stability.MAX_WORK", 4)
        assert contains_subgraph(complete(4), complete(4))
        assert contains_subgraph(complete(4), complete(4))
        monkeypatch.setattr("starstab.stability.MAX_WORK", 3)
        with pytest.raises(CapacityExceededError):
            contains_subgraph(complete(4), complete(4))

    def test_trivially_unstable_input_is_answered_not_refused(self):
        verdict = is_star_stable(complete(40), 30, 20)
        assert not verdict.stable
        assert verdict.checked_fault_sets == 0

    def test_hosts_decided_at_the_root_are_answered(self):
        assert is_star_stable(complete(40), 3, 20) == (True, None, comb(40, 20))
        assert is_star_stable(star_stable(20, 15), 20, 15) == (True, None, comb(36, 15))
        # not at the root: 37,270 nodes, within the budget
        verdict = is_star_stable(circulant(34, [1, 2, 3]), 5, 9)
        assert verdict.witness == (0, 2, 6, 10, 14, 18, 22, 26, 30)


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
        for r, k in CENSUS_PAIRS:
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


class TestWalkSubsumesSparseComplement:
    def test_root_decides_every_shortcut_hit(self, monkeypatch):
        # Fewer than ceil((r+1)/2) complement edges leave at least k+1 total
        # vertices at order r+k+1, so the degree cover fires at the walk's
        # root: one work unit decides every graph the shortcut accepts.
        monkeypatch.setattr("starstab.stability.MAX_WORK", 1)
        pairs = hits = 0
        for n in range(4, 9):
            for m in range(comb(n, 2) + 1):
                for g in graphs_of_order_and_size(n, m):
                    for r in range(3, n):
                        pairs += 1
                        if sparse_complement_guarantees_stable(g, r):
                            hits += 1
                            k = n - r - 1
                            assert is_star_stable(g, r, k) == (True, None, comb(n, k))
        assert (pairs, hits) == (66_453, 65)


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
                       if not adjacent(g, u, v)]
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
        assert max(degrees(g), default=0) < 5
        assert is_star_stable(g, 4, 1).stable

    def test_wrong_parity_is_unstable(self):
        assert not is_star_stable(near_complete_regular(6), 3, 2).stable

    def test_total_vertex_not_applicable(self):
        # the rule says nothing about graphs with a total vertex: this one is
        # stable without being the regular survivor
        g = star_stable(4, 1)
        assert max(degrees(g), default=0) == 5
        assert is_star_stable(g, 4, 1).stable
        assert not self.is_regular_survivor(g)

    def test_never_contradicts_exhaustive_check(self):
        rng = random.Random(73)
        for _ in range(60):
            r = rng.randrange(3, 5)
            k = rng.randrange(0, 3)
            g = random_graph(rng, r + k + 1, rng.random())
            if max(degrees(g), default=0) == r + k:
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
                if max(degrees(g), default=0) < 5 and is_star_stable(g, r, k).stable
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
