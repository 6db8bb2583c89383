import hashlib
import importlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Iterator

import pytest

import starstab
from starstab import (
    CapacityExceededError,
    Certificate,
    Graph,
    InvalidParameterError,
    SchemaMismatchError,
    canonical_form,
    certify,
    complete,
    decode_graph6,
    empty,
    enumerate_graphs_by_edges,
    from_edges,
    graphs_of_order_and_size,
    pad,
    read_certificate,
    stab_value,
    star_stable,
    write_certificate,
)
from starstab.certificate import _MAX_CERTIFICATE_BYTES
from starstab.certify import _connected_reps, _edge_class_reps
from starstab.graph import with_edge
from helpers import CERTIFICATION_GRID, adjacent, all_labeled_graphs, is_connected


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
                codes.add(canonical_form(g))
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


def _extensions(h: Graph, cap: int) -> Iterator[Graph]:
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if not adjacent(h, u, v):
                yield with_edge(h, u, v)
    if h.n + 1 <= cap:
        grown = pad(h, h.n + 1)
        for u in range(h.n):
            yield with_edge(grown, u, h.n)
    if h.n + 2 <= cap:
        yield with_edge(pad(h, h.n + 2), h.n, h.n + 1)


@lru_cache(maxsize=None)
def reference_edge_class_reps(e: int, cap: int) -> tuple[Graph, ...]:
    """Oracle: canonical representatives of iso classes with e edges, no
    isolated vertices, and order <= cap, sorted by canonical code. Every
    class with e-1 edges gets every possible edge, and all candidates are
    deduplicated by canonical code."""
    if e == 0:
        return (empty(0),)
    parents = reference_edge_class_reps(e - 1, min(cap, 2 * (e - 1)))
    seen: dict[str, None] = {}
    for h in parents:
        for candidate in _extensions(h, cap):
            seen.setdefault(canonical_form(candidate), None)
    return tuple(decode_graph6(code) for code in sorted(seen))


def census_levels(r, k):
    """The (e, cap) census levels that certify(r, k) asks for."""
    n = r + k + 1
    for m in (stab_value(r, k) - 1, stab_value(r, k)):
        e = comb(n, 2) - m
        yield e, min(n, 2 * e)


GRID_LEVELS = sorted({level for r, k in CERTIFICATION_GRID for level in census_levels(r, k)})


class TestEnumerateByEdges:
    def test_zero_edges(self):
        classes = [decode_graph6(code) for code in enumerate_graphs_by_edges(0, 5)]
        assert len(classes) == 1
        assert classes[0].n == 5 and classes[0].size == 0

    def test_three_edges_four_vertices(self):
        got = set(enumerate_graphs_by_edges(3, 4))
        triangle = pad(from_edges(3, [(0, 1), (1, 2), (0, 2)]), 4)
        p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        claw = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert got == {canonical_form(g) for g in (triangle, p4, claw)}

    @pytest.mark.parametrize("e", range(1, 7))
    def test_matches_component_decomposition_oracle(self, e):
        codes = list(enumerate_graphs_by_edges(e, min(2 * e, 16)))
        assert len(codes) == class_count_by_decomposition(e)
        assert len(set(codes)) == len(codes)
        assert all(decode_graph6(code).size == e for code in codes)

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
            classes = [decode_graph6(code) for code in enumerate_graphs_by_edges(e, min(2 * e, 16))]
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
        codes = list(enumerate_graphs_by_edges(4, 8))
        assert codes == sorted(codes)
        assert codes == list(enumerate_graphs_by_edges(4, 8))

    @pytest.mark.parametrize("e, n", [(0, 5), (3, 4), (6, 12), (8, 16), (14, 8), (28, 8),
                                      (8, 62)])
    def test_each_line_is_its_class_code_in_increasing_order(self, e, n):
        lines = list(enumerate_graphs_by_edges(e, n))
        assert all(canonical_form(decode_graph6(line)) == line for line in lines)
        assert all(a < b for a, b in zip(lines, lines[1:]))

    def test_one_canonical_search_per_class(self, monkeypatch):
        census = sys.modules["starstab.certify"]  # the package attribute is the function
        list(graphs_of_order_and_size(16, 8))  # warm the census caches
        calls = 0

        def counted(g):
            nonlocal calls
            calls += 1
            return canonical_form(g)

        monkeypatch.setattr(census, "canonical_form", counted)
        assert sum(1 for _ in enumerate_graphs_by_edges(8, 16)) == calls == 497

    def test_support_budget_excludes_wide_graphs(self):
        # with 3 edges only the triangle fits in 3 vertices
        assert sum(1 for _ in enumerate_graphs_by_edges(3, 3)) == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            list(enumerate_graphs_by_edges(-1, 5))
        # no order cap below the vertex cap: a path and two disjoint edges
        assert len(list(enumerate_graphs_by_edges(2, 17))) == 2
        with pytest.raises(InvalidParameterError, match="impossible"):
            list(enumerate_graphs_by_edges(30, 8))


class TestCensusLevels:
    def test_grid_reaches_twenty_five_levels(self):
        assert len(GRID_LEVELS) == 25

    @pytest.mark.parametrize("e, cap", GRID_LEVELS)
    def test_same_classes_as_reference(self, e, cap):
        reps = _edge_class_reps(e, cap)
        codes = [canonical_form(g) for g in reps]
        assert len(set(codes)) == len(codes)
        assert set(codes) == {canonical_form(g) for g in reference_edge_class_reps(e, cap)}
        assert all(g.size == e and g.n <= cap and all(g.rows) for g in reps)

    # Published counts quoted from OEIS, not re-checked against the online
    # entries: A002905, connected graphs with e edges, and A000664, graphs
    # with e edges and no isolated vertices.
    def test_connected_level_counts_match_oeis_a002905(self):
        for e, count in enumerate([1, 1, 3, 5, 12, 30, 79, 227, 710, 2322], start=1):
            reps = _connected_reps(e, e + 1)
            assert len({canonical_form(g) for g in reps}) == len(reps) == count
            assert all(g.size == e and is_connected(g) for g in reps)

    def test_edge_class_counts_match_oeis_a000664(self):
        for e, count in enumerate([1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613], start=1):
            reps = _edge_class_reps(e, 2 * e)
            assert len(reps) == count
            assert all(g.size == e and all(g.rows) for g in reps)


class TestGraphsOfOrderAndSize:
    def test_complete_graph_class(self):
        classes = list(graphs_of_order_and_size(4, 6))
        assert len(classes) == 1
        assert classes[0] == complete(4)

    def test_contains_the_join_construction(self):
        codes = {canonical_form(g) for g in graphs_of_order_and_size(5, 7)}
        assert canonical_form(star_stable(3, 1)) in codes

    def test_dense_census_count_matches_sparse_level(self):
        assert sum(1 for _ in graphs_of_order_and_size(12, 60)) == 68

    @pytest.mark.parametrize("n", range(0, 6))
    def test_complete_census_small_orders(self, n):
        by_size = {}
        for g in all_labeled_graphs(n):
            by_size.setdefault(g.size, set()).add(canonical_form(g))
        for m in range(comb(n, 2) + 1):
            produced = list(graphs_of_order_and_size(n, m))
            codes = {canonical_form(g) for g in produced}
            assert len(codes) == len(produced)
            assert codes == by_size.get(m, set())
            assert all(g.n == n and g.size == m for g in produced)

    def test_census_order_is_deterministic(self):
        first = list(graphs_of_order_and_size(8, 17))
        _connected_reps.cache_clear()
        _edge_class_reps.cache_clear()
        assert list(graphs_of_order_and_size(8, 17)) == first

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            list(graphs_of_order_and_size(4, 7))
        assert list(graphs_of_order_and_size(17, 1)) == [from_edges(17, [(0, 1)])]
        with pytest.raises(CapacityExceededError, match="64-vertex cap"):
            next(graphs_of_order_and_size(65, 1))

    def test_every_size_at_order_eight(self):
        # each size is served from its sparser side, at most 14 census edges;
        # the digest is over each size's sorted class codes, one per line, in
        # size order: the bytes of enumerate --edges m --max-vertices 8
        total, digest = 0, hashlib.sha256()
        for m in range(comb(8, 2) + 1):
            classes = list(graphs_of_order_and_size(8, m))
            assert all(g.n == 8 and g.size == m for g in classes)
            total += len(classes)
            codes = sorted(map(canonical_form, classes))
            digest.update("".join(code + "\n" for code in codes).encode())
        assert total == 12346  # graphs on 8 vertices, OEIS A000088
        assert digest.hexdigest() == (
            "f5ff3fd6cea6a4aae93d0b9cffd18310c7a64b72f5ba8b968f7b02a79d1eb8c4")


class TestCensusEnvelope:
    # at most MAX_CENSUS_WORK augmentation candidates on the sparser side,
    # whether the census is asked for by edges, by order and size, or by
    # certify; the order is bounded by the vertex cap alone

    def test_generators_serve_eight_edges_at_order_sixteen(self):
        assert len(list(enumerate_graphs_by_edges(8, 16))) == 497
        assert len(list(graphs_of_order_and_size(16, comb(16, 2) - 8))) == 497

    def test_generators_serve_any_edge_count_up_to_order_eight(self):
        for n in range(8):
            for e in range(comb(n, 2) + 1):
                assert (len(list(enumerate_graphs_by_edges(e, n)))
                        == len(list(graphs_of_order_and_size(n, comb(n, 2) - e))))
        assert len(list(enumerate_graphs_by_edges(9, 8))) == 402
        assert len(list(graphs_of_order_and_size(8, comb(8, 2) - 9))) == 402

    def test_generators_serve_nine_edges_at_orders_nine_and_sixteen(self):
        # 7,811 and 8,234 candidates
        for n, count in ((9, 771), (16, 1474)):
            assert len(list(enumerate_graphs_by_edges(9, n))) == count
            assert len(list(graphs_of_order_and_size(n, comb(n, 2) - 9))) == count

    @pytest.mark.parametrize("e, n, budget", [
        # one candidate short of the 7,811 and 8,234 that nine edges take
        pytest.param(9, 9, 7_810, id="9-9"),
        pytest.param(9, 16, 8_233, id="9-16"),
        # more census edges than MAX_CENSUS_WORK candidates allow at order n
        pytest.param(11, 11, None, id="11-11"),
        pytest.param(11, 22, None, id="11-22"),
        pytest.param(12, 9, None, id="12-9"),
        pytest.param(13, 16, None, id="13-16"),
    ])
    def test_generators_refuse_beyond_the_edge_budget(self, e, n, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(importlib.import_module("starstab.certify"),
                                "MAX_CENSUS_WORK", budget)
        with pytest.raises(CapacityExceededError, match="census work budget"):
            next(enumerate_graphs_by_edges(e, n))
        with pytest.raises(CapacityExceededError, match="census work budget"):
            next(graphs_of_order_and_size(n, comb(n, 2) - e))

    def test_certify_serves_order_sixteen_within_the_edge_budget(self):
        # four census edges at order 16; no instance needs exactly eight there
        cert = certify(3, 12)
        assert cert.minimality_ok and cert.match

    def test_certify_serves_nine_edges_at_order_sixteen(self):
        cert = certify(4, 11)
        assert cert.minimality_ok and cert.match

    def test_certify_serves_r3_at_every_order_with_canonical_codes(self):
        for k in range(13, 61):
            cert = certify(3, k)
            assert cert.minimality_ok and cert.match, k

    def test_certify_refuses_beyond_the_vertex_caps(self):
        with pytest.raises(CapacityExceededError, match="^order 65 exceeds the 64-vertex cap$"):
            certify(3, 61)
        with pytest.raises(CapacityExceededError, match="^order 66 exceeds the 64-vertex cap$"):
            certify(3, 62)


class TestCertify:
    def test_smallest_instance(self):
        cert = certify(3, 1)
        assert cert.claimed_value == 7
        assert cert.minimality_ok
        assert cert.candidates_below == 6
        assert cert.match
        assert cert.extremal_found == (canonical_form(star_stable(3, 1)),)
        assert cert.extremal_found == cert.extremal_expected

    def test_zero_budget_instance(self):
        cert = certify(3, 0)
        assert cert.claimed_value == 3
        assert cert.minimality_ok and cert.match
        assert len(cert.extremal_found) == 1

    def test_deterministic(self, tmp_path):
        # the record holds no wall time, so two runs write the same bytes
        assert certify(3, 2) == certify(3, 2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_certificate(certify(3, 2), a)
        write_certificate(certify(3, 2), b)
        assert a.read_bytes() == b.read_bytes()
        assert "elapsed" not in json.loads(a.read_text())

    def test_order_budget(self):
        # order 20 is served, but 11 census edges there are not
        with pytest.raises(CapacityExceededError, match="census work budget"):
            certify(4, 15)

    def test_complement_budget(self):
        with pytest.raises(CapacityExceededError, match="census work budget"):
            certify(5, 5)

    def test_small_orders_within_the_work_budget(self):
        cert = certify(5, 0)
        assert cert.claimed_value == 5
        assert cert.minimality_ok and cert.match


class TestCensusWorkBudget:
    # One census may try MAX_CENSUS_WORK augmentation candidates, counted from
    # the level sizes alone, so the check does not depend on the level caches.
    # The count must equal the candidates a cold build actually tries: the
    # _new_edge_is_largest calls with both level caches empty. Fresh caches
    # stand in for the module's own, which other tests keep warm.
    @pytest.mark.parametrize("n, m, work, classes", [
        (8, 14, 83_935, 1646), (9, 9, 7_811, 771), (16, 9, 8_234, 1474),
    ], ids=["14-edges-order-8", "9-edges-order-9", "9-edges-order-16"])
    def test_census_of_exactly_the_budget_runs(self, monkeypatch, n, m, work, classes):
        census = importlib.import_module("starstab.certify")
        calls = 0
        new_edge_is_largest = census._new_edge_is_largest

        def counted(*args):
            nonlocal calls
            calls += 1
            return new_edge_is_largest(*args)

        monkeypatch.setattr(census, "_new_edge_is_largest", counted)
        monkeypatch.setattr(census, "MAX_CENSUS_WORK", work)
        for name in ("_connected_reps", "_edge_class_reps"):
            monkeypatch.setattr(census, name, lru_cache(getattr(census, name).__wrapped__))
        assert len(list(graphs_of_order_and_size(n, m))) == classes
        assert calls == work
        monkeypatch.setattr(census, "MAX_CENSUS_WORK", work - 1)
        with pytest.raises(CapacityExceededError, match=f"{m} census edges at order {n}"):
            next(graphs_of_order_and_size(n, m))

    def test_certify_serves_eleven_edges_at_order_nine(self):
        # 11 census edges at order 9 below the claimed size: 58,835 candidates
        cert = certify(5, 3)
        assert cert.minimality_ok and cert.match


class TestCertificatePersistence:
    def test_roundtrip(self, tmp_path):
        cert = certify(3, 1)
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        assert read_certificate(path) == cert

    def test_write_returns_the_text_written(self, tmp_path):
        path = tmp_path / "cert.json"
        text = write_certificate(certify(3, 1), path)
        assert path.read_bytes() == text.encode()

    def test_unknown_schema_rejected(self, tmp_path):
        cert = certify(3, 0)
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = "0"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaMismatchError):
            read_certificate(path)

    def test_schema_1_file_refused(self, tmp_path):
        # schema "1" held the wall time elapsed; certify writes such a file anew
        path = tmp_path / "cert.json"
        write_certificate(certify(3, 0), path)
        payload = {**json.loads(path.read_text()), "schema_version": "1", "elapsed": 0.1}
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaMismatchError,
                           match="^unsupported certificate schema '1', expected '2'$"):
            read_certificate(path)

    def test_missing_field_rejected(self, tmp_path):
        cert = certify(3, 0)
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        payload = json.loads(path.read_text())
        del payload["match"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaMismatchError, match=r"^certificate missing fields: \['match'\]$"):
            read_certificate(path)

    def test_unknown_keys_rejected(self, tmp_path):
        # the file holds exactly the fields: a stray schema "1" elapsed is refused too
        path = tmp_path / "cert.json"
        write_certificate(certify(3, 0), path)
        payload = {**json.loads(path.read_text()), "elapsed": 0.1, "bogus": [1]}
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaMismatchError,
                           match=r"^certificate unknown fields: \['bogus', 'elapsed'\]$"):
            read_certificate(path)

    @pytest.mark.parametrize("edit", [
        lambda payload: [payload],
        lambda payload: {**payload, "extremal_found": 5},
    ], ids=["array", "non-list-codes"])
    def test_malformed_file_rejected(self, tmp_path, edit):
        path = tmp_path / "cert.json"
        write_certificate(certify(3, 0), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(SchemaMismatchError):
            read_certificate(path)

    # Values the JSON loader accepts but the field annotations do not: true and
    # false are neither integers nor numbers.
    @pytest.mark.parametrize("field, value", [
        ("r", 3.5), ("k", "0"), ("claimed_value", True), ("candidates_below", None),
        ("minimality_ok", 1), ("match", "no"), ("extremal_found", [1, None]),
        ("extremal_expected", ["C~", 5]),
    ])
    def test_field_of_the_wrong_type_rejected(self, tmp_path, field, value):
        path = tmp_path / "cert.json"
        write_certificate(certify(3, 0), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        with pytest.raises(SchemaMismatchError, match=f"certificate field {field} has the wrong type"):
            read_certificate(path)

    @pytest.mark.parametrize("text", [
        lambda text: b"not a certificate",
        lambda text: text[:len(text) // 2],
        lambda text: b"\xff" + text,
    ], ids=["not-json", "truncated", "not-utf8"])
    def test_undecodable_file_rejected(self, tmp_path, text):
        path = tmp_path / "cert.json"
        write_certificate(certify(3, 0), path)
        path.write_bytes(text(path.read_bytes()))
        with pytest.raises(SchemaMismatchError, match="^certificate is not JSON text: "):
            read_certificate(path)

    # A certificate padded with spaces is legal JSON at any length; past the
    # bound it is refused after reading one byte more.
    @pytest.mark.parametrize("size, refused", [
        (_MAX_CERTIFICATE_BYTES, False), (_MAX_CERTIFICATE_BYTES + 1, True),
    ], ids=["at-bound", "past-bound"])
    def test_file_is_read_within_a_byte_bound(self, tmp_path, size, refused):
        path = tmp_path / "cert.json"
        cert = certify(3, 0)
        path.write_bytes(write_certificate(cert, path).encode().ljust(size))
        if refused:
            with pytest.raises(SchemaMismatchError, match=(
                    f"^certificate is longer than {_MAX_CERTIFICATE_BYTES} bytes$")):
                read_certificate(path)
        else:
            assert read_certificate(path) == cert

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_refused(self):
        # in a child limited to 1 GiB of address space, so a reader without the
        # bound fails with MemoryError instead of taking the host's memory
        code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from starstab import read_certificate\n"
                "read_certificate('/dev/zero')\n")
        env = {**os.environ, "PYTHONPATH": str(Path(starstab.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.endswith(
            f"SchemaMismatchError: certificate is longer than {_MAX_CERTIFICATE_BYTES} bytes\n")

    def test_refutation_is_persistable(self, tmp_path):
        refutation = Certificate(
            schema_version="2", r=3, k=1, claimed_value=6, minimality_ok=False,
            candidates_below=6, extremal_found=("C~",), extremal_expected=("D}o",),
            match=False,
        )
        path = tmp_path / "refuted.json"
        write_certificate(refutation, path)
        back = read_certificate(path)
        assert back == refutation
        assert not back.match
