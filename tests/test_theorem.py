from math import comb

import pytest

from starstab import (
    CapacityExceededError,
    InvalidParameterError,
    canonical_form,
    complement,
    conjunction,
    complete,
    extremal_family,
    graphs_of_order_and_size,
    is_star_stable,
    k0,
    k1,
    near_complete_regular,
    stab_result,
    stab_value,
    star_stable,
)
from starstab.theorem import (
    BOUNDARY_A,
    BOUNDARY_B,
    CASE_3,
    CASE_4,
    CONSTRUCTION_G_RK,
    EVEN_R_SMALL_K,
    ODD_R,
    REGULAR_PLUS_TOTAL,
    REGULAR_SURVIVOR,
    stab_case,
)


class TestBoundaryConstants:
    def test_values(self):
        assert k1(4) == 7
        assert k0(4) == 9
        assert k0(6) == 25

    def test_parity_and_gap(self):
        for r in range(4, 13, 2):
            assert k1(r) % 2 == 1
            assert k0(r) % 2 == 1
            assert k0(r) - k1(r) == 2

    def test_odd_r_rejected(self):
        with pytest.raises(InvalidParameterError):
            k1(5)
        with pytest.raises(InvalidParameterError):
            k0(3)


class TestCaseDispatch:
    def test_examples(self):
        assert stab_case(5, 100) == ODD_R
        assert stab_case(4, 7) == BOUNDARY_A
        assert stab_result(4, 7).k1 == 7
        assert stab_case(4, 8) == BOUNDARY_B
        assert stab_case(4, 9) == CASE_3
        assert stab_result(4, 9).k0 == 9
        assert stab_case(4, 10) == CASE_4
        assert stab_case(4, 3) == EVEN_R_SMALL_K

    def test_odd_r_has_no_boundary_constants(self):
        result = stab_result(3, 5)
        assert result.k0 is None and result.k1 is None

    def test_partition_is_total_and_unique(self):
        for r in range(3, 11):
            for k in range(0, 200):
                case = stab_case(r, k)
                if r % 2:
                    assert case == ODD_R
                    continue
                low, high = k1(r), k0(r)
                predicates = {
                    EVEN_R_SMALL_K: k < low,
                    BOUNDARY_A: k == low,
                    BOUNDARY_B: k == low + 1,
                    CASE_3: k % 2 == 1 and k >= high,
                    CASE_4: k % 2 == 0 and k > high,
                }
                assert sum(predicates.values()) == 1
                assert predicates[case]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            stab_case(2, 0)
        with pytest.raises(InvalidParameterError):
            stab_case(4, -1)


class TestStabValue:
    def test_examples(self):
        assert stab_value(3, 0) == 3
        assert stab_value(8, 7) == 92
        assert stab_value(4, 9) == 84
        assert stab_value(4, 10) == 98

    def test_small_grid_formula(self):
        for k in range(0, 4):
            assert stab_value(3, k) == (k + 1) * (6 + k) // 2
            assert stab_value(5, k) == (k + 1) * (10 + k) // 2

    def test_always_integer(self):
        for r in range(3, 11):
            for k in range(0, 120):
                case = stab_case(r, k)
                value = stab_value(r, k)
                if case in (ODD_R, EVEN_R_SMALL_K, BOUNDARY_A, BOUNDARY_B):
                    assert 2 * value == (k + 1) * (2 * r + k)
                elif case == CASE_3:
                    assert 2 * value == (r + k) ** 2 - 1
                else:
                    assert 2 * value == (r + k) ** 2

    def test_boundary_formulas_coincide(self):
        # at k = k1 the join-size formula equals the regular-graph size,
        # and at k = k1 + 1 it equals the total-vertex extension size
        for r in range(4, 9, 2):
            k = k1(r)
            assert (k + 1) * (2 * r + k) == (r + k) ** 2 - 1
            k += 1
            assert (k + 1) * (2 * r + k) == (r + k) ** 2


class TestIntegerArguments:
    def test_stab_value_refuses_a_float_r(self):
        with pytest.raises(InvalidParameterError, match="star size r must be an int >= 3, got 4.0"):
            stab_value(4.0, 2)

    def test_boundary_constants_refuse_a_float_r(self):
        for constant in (k0, k1):
            with pytest.raises(InvalidParameterError):
                constant(4.0)

    def test_census_refuses_a_float_size(self):
        with pytest.raises(InvalidParameterError, match="impossible"):
            list(graphs_of_order_and_size(4, 2.0))


class TestExtremalFamily:
    def test_single_extremal_small(self):
        family = extremal_family(3, 1)
        assert len(family) == 1
        assert family[0].size == 7
        assert canonical_form(family[0]) == canonical_form(star_stable(3, 1))

    def test_two_extremal_at_lower_boundary(self):
        family = extremal_family(4, 7)
        assert len(family) == 2
        assert all(g.size == 60 for g in family)
        assert canonical_form(family[0]) == canonical_form(star_stable(4, 7))
        assert canonical_form(family[1]) == canonical_form(near_complete_regular(12))
        assert canonical_form(family[0]) != canonical_form(family[1])

    def test_two_extremal_at_upper_boundary(self):
        family = extremal_family(4, 8)
        assert len(family) == 2
        assert all(g.size == 72 for g in family)
        total = conjunction(near_complete_regular(12), complete(1))
        assert canonical_form(family[1]) == canonical_form(total)

    def test_sole_regular_beyond_boundary(self):
        family = extremal_family(4, 9)
        assert len(family) == 1
        assert canonical_form(family[0]) == canonical_form(near_complete_regular(14))

    def test_sole_total_extension_beyond_boundary(self):
        family = extremal_family(4, 10)
        assert len(family) == 1
        total = conjunction(near_complete_regular(14), complete(1))
        assert canonical_form(family[0]) == canonical_form(total)

    def test_descriptor_counts(self):
        assert stab_result(3, 4).extremal_descriptors == (CONSTRUCTION_G_RK,)
        assert stab_result(4, 7).extremal_descriptors == (CONSTRUCTION_G_RK, REGULAR_SURVIVOR)
        assert stab_result(4, 8).extremal_descriptors == (CONSTRUCTION_G_RK, REGULAR_PLUS_TOTAL)
        assert stab_result(4, 9).extremal_descriptors == (REGULAR_SURVIVOR,)
        assert stab_result(4, 10).extremal_descriptors == (REGULAR_PLUS_TOTAL,)

    def test_family_members_are_stable_with_exact_size(self):
        for r in range(3, 9):
            for k in range(0, 13):
                if r + k + 1 > 16:
                    continue
                value = stab_value(r, k)
                family = extremal_family(r, k)
                codes = {canonical_form(g) for g in family}
                assert len(codes) == len(family)
                for g in family:
                    assert g.n == r + k + 1
                    assert g.size == value
                    assert is_star_stable(g, r, k).stable

    def test_capacity(self):
        with pytest.raises(CapacityExceededError):
            extremal_family(4, 60)


def complement_component_orders(g):
    """Orders of the components of g's complement with at least 2 vertices,
    largest first."""
    h = complement(g).rows
    left, orders = (1 << g.n) - 1, []
    while left:
        seen = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                reach |= h[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = reach & ~seen
            seen |= frontier
        left &= ~seen
        if seen.bit_count() > 1:
            orders.append(seen.bit_count())
    return tuple(sorted(orders, reverse=True))


def stable_by_complement_rule(g, r):
    """At order r+k+1, deleting k vertices leaves r+1 of them, and G is
    unstable iff some r+1 vertices induce no isolated vertex in G's complement.
    A complement component of s >= 2 vertices supplies any count in {0} and
    [2, s], so G is stable iff its floor((r+1)/2) largest such components hold
    at most r vertices in all."""
    return sum(complement_component_orders(g)[:(r + 1) // 2]) <= r


def densest_complement_cliques(r, n):
    """Oracle for the theorem: the largest sum of C(s_i, 2) over multisets of
    clique orders s_i >= 2 on at most n vertices whose floor((r+1)/2) largest
    hold at most r vertices, with every multiset that attains it.

    Parts come in non-increasing order, and the first floor((r+1)/2) of them
    share a budget of r vertices. A branch is cut when even filling the
    vertices left with parts of the largest order allowed, a convex bound,
    falls short of the best sum found."""
    head = (r + 1) // 2
    best, optima = -1, []

    def search(parts, total, left, cap, budget):
        nonlocal best, optima
        if total > best:
            best, optima = total, []
        if total == best:
            optima.append(tuple(parts))
        c = min(cap, left, budget)
        if c < 2 or total + (left // c) * comb(c, 2) + comb(left % c, 2) < best:
            return
        for s in range(c, 1, -1):
            parts.append(s)
            search(parts, total + comb(s, 2), left - s, s,
                   budget - s if len(parts) < head else s)
            parts.pop()

    search([], 0, n, n, r)
    return best, optima


class TestTheoremOracle:
    def test_value_and_extremal_family_at_every_order(self):
        pairs = 0
        for n in range(4, 65):
            for r in range(3, n):
                k = n - r - 1
                best, optima = densest_complement_cliques(r, n)
                assert stab_value(r, k) == comb(n, 2) - best, (r, k)
                family = extremal_family(r, k)
                # the complement of each extremal graph is a union of cliques
                orders = [complement_component_orders(g) for g in family]
                assert all(sum(map(comb, o, [2] * len(o))) == comb(n, 2) - g.size
                           for o, g in zip(orders, family))
                assert sorted(orders) == sorted(optima), (r, k)
                pairs += 1
        assert pairs == 1891

    def test_complement_rule_matches_the_decider(self):
        decisions = 0
        for n in range(4, 9):
            for m in range(comb(n, 2) + 1):
                for g in graphs_of_order_and_size(n, m):
                    for r in range(3, n):
                        assert stable_by_complement_rule(g, r) == \
                            is_star_stable(g, r, n - r - 1).stable, (g, r)
                        decisions += 1
        assert decisions == 66453
