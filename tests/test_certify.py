import dataclasses
import json
from itertools import combinations
from math import comb

import pytest

from starstab import (
    CapacityExceededError,
    Certificate,
    InvalidParameterError,
    SchemaMismatchError,
    canonical_form,
    certify,
    complete,
    enumerate_graphs_by_edges,
    from_edges,
    graphs_of_order_and_size,
    pad,
    read_certificate,
    star_stable,
    write_certificate,
)


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


def is_connected_support(g):
    """Connectivity of the graph restricted to its non-isolated vertices."""
    live = [v for v in range(g.n) if g.rows[v]]
    if not live:
        return False
    seen = 1 << live[0]
    frontier = seen
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = g.rows[v] & ~seen
        seen |= new
        frontier |= new
    return seen.bit_count() == len(live)


def connected_class_count(e):
    """Oracle: connected iso classes with e edges, by raw edge-subset search.

    A connected graph with e edges spans at most e+1 vertices, so exhausting
    all e-subsets of pairs on 2..e+1 vertices (keeping those covering every
    vertex) visits each class at least once.
    """
    codes = set()
    for n in range(2, e + 2):
        pairs = list(combinations(range(n), 2))
        if len(pairs) < e:
            continue
        for chosen in combinations(pairs, e):
            covered = set()
            for u, v in chosen:
                covered.add(u)
                covered.add(v)
            if len(covered) != n:
                continue
            g = from_edges(n, chosen)
            if is_connected(g):
                codes.add(canonical_form(g).code)
    return len(codes)


def class_count_by_decomposition(e):
    """Oracle: classes with e edges and no isolated vertices, counted as
    multisets of connected components summing to e edges."""
    counts = [0] + [connected_class_count(j) for j in range(1, e + 1)]
    dp = [1] + [0] * e
    for j in range(1, e + 1):
        ndp = [0] * (e + 1)
        for total in range(e + 1):
            if not dp[total]:
                continue
            m = 0
            while total + j * m <= e:
                ndp[total + j * m] += dp[total] * comb(counts[j] + m - 1, m)
                m += 1
        dp = ndp
    return dp[e]


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


class TestEnumerateByEdges:
    def test_zero_edges(self):
        classes = list(enumerate_graphs_by_edges(0, 5))
        assert len(classes) == 1
        assert classes[0].n == 5 and classes[0].size == 0

    def test_three_edges_four_vertices(self):
        got = {canonical_form(g).code for g in enumerate_graphs_by_edges(3, 4)}
        triangle = pad(from_edges(3, [(0, 1), (1, 2), (0, 2)]), 4)
        p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        claw = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert got == {canonical_form(g).code for g in (triangle, p4, claw)}

    @pytest.mark.parametrize("e", range(1, 7))
    def test_matches_component_decomposition_oracle(self, e):
        produced = list(enumerate_graphs_by_edges(e, min(2 * e, 16)))
        assert len(produced) == class_count_by_decomposition(e)
        codes = [canonical_form(g).code for g in produced]
        assert len(set(codes)) == len(codes)
        assert all(g.size == e for g in produced)

    def test_six_edges_twelve_vertices(self):
        assert sum(1 for _ in enumerate_graphs_by_edges(6, 12)) == 68

    def test_larger_levels_satisfy_decomposition_identity(self):
        # for e = 7, 8 the raw-subset oracle is out of reach, so validate the
        # counts through the component-multiset identity instead, feeding it
        # the enumerator's own connected-class counts (the identity is an
        # independent structural constraint on the level counts)
        connected = {0: 0}
        totals = {}
        for e in range(1, 9):
            classes = list(enumerate_graphs_by_edges(e, min(2 * e, 16)))
            totals[e] = len(classes)
            connected[e] = sum(1 for g in classes if is_connected_support(g))
        for e in (7, 8):
            dp = [1] + [0] * e
            for j in range(1, e + 1):
                ndp = [0] * (e + 1)
                for total in range(e + 1):
                    if not dp[total]:
                        continue
                    m = 0
                    while total + j * m <= e:
                        ndp[total + j * m] += dp[total] * comb(connected[j] + m - 1, m)
                        m += 1
                dp = ndp
            assert totals[e] == dp[e]
        assert totals[7] == 177
        assert totals[8] == 497

    def test_deterministic_sorted_order(self):
        codes = [canonical_form(g).code for g in enumerate_graphs_by_edges(4, 8)]
        assert codes == sorted(codes)
        assert codes == [canonical_form(g).code for g in enumerate_graphs_by_edges(4, 8)]

    def test_support_budget_excludes_wide_graphs(self):
        # with 3 edges only the triangle fits in 3 vertices
        assert sum(1 for _ in enumerate_graphs_by_edges(3, 3)) == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            list(enumerate_graphs_by_edges(-1, 5))
        with pytest.raises(InvalidParameterError):
            list(enumerate_graphs_by_edges(2, 17))


class TestGraphsOfOrderAndSize:
    def test_complete_graph_class(self):
        classes = list(graphs_of_order_and_size(4, 6))
        assert len(classes) == 1
        assert classes[0] == complete(4)

    def test_contains_the_join_construction(self):
        codes = {canonical_form(g).code for g in graphs_of_order_and_size(5, 7)}
        assert canonical_form(star_stable(3, 1)).code in codes

    def test_dense_census_count_matches_sparse_level(self):
        assert sum(1 for _ in graphs_of_order_and_size(12, 60)) == 68

    @pytest.mark.parametrize("n", range(0, 6))
    def test_complete_census_small_orders(self, n):
        by_size = {}
        for g in all_labeled_graphs(n):
            by_size.setdefault(g.size, set()).add(canonical_form(g).code)
        for m in range(comb(n, 2) + 1):
            produced = list(graphs_of_order_and_size(n, m))
            codes = {canonical_form(g).code for g in produced}
            assert len(codes) == len(produced)
            assert codes == by_size.get(m, set())
            assert all(g.n == n and g.size == m for g in produced)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            list(graphs_of_order_and_size(4, 7))
        with pytest.raises(InvalidParameterError):
            list(graphs_of_order_and_size(17, 1))


class TestCertify:
    def test_smallest_instance(self):
        cert = certify(3, 1)
        assert cert.claimed_value == 7
        assert cert.minimality_ok
        assert cert.candidates_below == 6
        assert cert.match
        assert cert.extremal_found == (canonical_form(star_stable(3, 1)).code,)
        assert cert.extremal_found == cert.extremal_expected

    def test_zero_budget_instance(self):
        cert = certify(3, 0)
        assert cert.claimed_value == 3
        assert cert.minimality_ok and cert.match
        assert len(cert.extremal_found) == 1

    def test_deterministic_modulo_elapsed(self):
        a = dataclasses.replace(certify(3, 2), elapsed=0.0)
        b = dataclasses.replace(certify(3, 2), elapsed=0.0)
        assert a == b

    def test_order_budget(self):
        with pytest.raises(CapacityExceededError, match="order budget"):
            certify(4, 13)

    def test_complement_budget(self):
        with pytest.raises(CapacityExceededError, match="complement-edge budget"):
            certify(5, 3)

    def test_small_orders_exempt_from_complement_budget(self):
        cert = certify(5, 0)
        assert cert.claimed_value == 5
        assert cert.minimality_ok and cert.match


class TestCertificatePersistence:
    def test_roundtrip(self, tmp_path):
        cert = certify(3, 1)
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        assert read_certificate(path) == cert

    def test_unknown_schema_rejected(self, tmp_path):
        cert = certify(3, 0)
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = "0"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaMismatchError):
            read_certificate(path)

    def test_missing_field_rejected(self, tmp_path):
        cert = certify(3, 0)
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        payload = json.loads(path.read_text())
        del payload["match"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaMismatchError):
            read_certificate(path)

    def test_refutation_is_persistable(self, tmp_path):
        refutation = Certificate(
            schema_version="1", r=3, k=1, claimed_value=6, minimality_ok=False,
            candidates_below=6, extremal_found=("C~",), extremal_expected=("D}o",),
            match=False, elapsed=0.1,
        )
        path = tmp_path / "refuted.json"
        write_certificate(refutation, path)
        back = read_certificate(path)
        assert back == refutation
        assert not back.match
