import hashlib
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import starstab
from starstab import (
    canonical_form,
    certify,
    decode_graph6,
    encode_graph6,
    from_edges,
    stab_value,
    star,
    star_stable,
    write_certificate,
)
from starstab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_star_zero_budget(self, capsys):
        code, out, _ = run(capsys, "construct", "--r", "3", "--k", "0")
        assert code == 0
        assert out.strip() == "Cs"

    def test_star_expansion_matches_library(self, capsys):
        code, out, _ = run(capsys, "construct", "--r", "4", "--k", "2")
        assert code == 0
        assert canonical_form(decode_graph6(out.strip())) == canonical_form(star_stable(4, 2))

    def test_pattern_file_with_custom_labelling(self, capsys, tmp_path):
        pattern = tmp_path / "h.g6"
        pattern.write_text("Cr\n")  # a 4-cycle
        code1, out1, _ = run(capsys, "construct", "--pattern", str(pattern), "--k", "1")
        code2, out2, _ = run(capsys, "construct", "--pattern", str(pattern), "--k", "1",
                             "--labelling", "4,3,2,1")
        assert code1 == code2 == 0
        g1, g2 = decode_graph6(out1.strip()), decode_graph6(out2.strip())
        assert g1.n == g2.n == 5

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "construct", "--r", "3", "--k", "0", "--dot")
        assert code == 0
        assert "1 -- 2;" in out

    def test_pattern_and_r_mutually_exclusive(self, capsys, tmp_path):
        pattern = tmp_path / "h.g6"
        pattern.write_text("Cs\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["construct", "--r", "3", "--pattern", str(pattern), "--k", "1"])
        assert excinfo.value.code == 2

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "construct", "--pattern", "/nonexistent.g6", "--k", "1")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_bad_labelling(self, capsys):
        code, out, err = run(capsys, "construct", "--r", "3", "--k", "1",
                             "--labelling", "1,2,3")
        assert (code, out) == (2, "")
        assert err == "error: labelling must be a bijection onto 1..4, got (1, 2, 3)\n"

    def test_labelling_that_is_not_integers(self, capsys):
        code, out, err = run(capsys, "construct", "--r", "3", "--k", "1",
                             "--labelling", "a,b")
        assert (code, out) == (2, "")
        assert err == "error: labelling must be comma-separated integers, got 'a,b'\n"


class TestVerify:
    def test_stable_star_instance(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(encode_graph6(star_stable(3, 1)) + "\n")
        code, out, _ = run(capsys, "verify", "--graph", str(path), "--r", "3", "--k", "1")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["stable"] is True
        assert verdict["witness"] is None
        assert verdict["checked_fault_sets"] == 5

    def test_unstable_reports_one_based_witness(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(encode_graph6(star(3)) + "\n")
        code, out, _ = run(capsys, "verify", "--graph", str(path), "--r", "3", "--k", "1")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["stable"] is False
        assert verdict["witness"] == [1]

    def test_general_pattern_mode(self, capsys, tmp_path):
        gpath = tmp_path / "g.g6"
        gpath.write_text(encode_graph6(star_stable(3, 1)) + "\n")
        ppath = tmp_path / "h.g6"
        ppath.write_text(encode_graph6(star(3)) + "\n")
        code, out, _ = run(capsys, "verify", "--graph", str(gpath),
                           "--pattern", str(ppath), "--k", "1")
        assert code == 0
        assert json.loads(out)["stable"] is True

    def test_empty_pattern_survives_every_fault_set(self, capsys, tmp_path):
        gpath = tmp_path / "g.g6"
        gpath.write_text(encode_graph6(star(3)) + "\n")
        ppath = tmp_path / "h.g6"
        ppath.write_text("?\n")
        code, out, _ = run(capsys, "verify", "--graph", str(gpath),
                           "--pattern", str(ppath), "--k", "2")
        assert code == 0
        assert json.loads(out) == {"stable": True, "witness": None, "checked_fault_sets": 6}

    def test_oversized_fault_set_walk_exits_2(self, capsys, tmp_path, monkeypatch):
        # the star walk of C40(1,2,3) at r = 5, k = 10 visits about 317,000 nodes
        monkeypatch.setattr("starstab.stability.MAX_WORK", 10_000)
        path = tmp_path / "g.g6"
        path.write_text(encode_graph6(
            from_edges(40, [(i, (i + d) % 40) for i in range(40) for d in (1, 2, 3)])) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--graph", str(path), "--r", "5", "--k", "10")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "work budget" in err

    def test_unbounded_subgraph_search_exits_2(self, capsys, tmp_path, monkeypatch):
        # one fault set, but K_{10,10} has no 9-cycle and the search must say so
        monkeypatch.setattr("starstab.stability.MAX_WORK", 100_000)
        gpath, ppath = tmp_path / "g.g6", tmp_path / "h.g6"
        gpath.write_text(encode_graph6(
            from_edges(20, [(i, j) for i in range(10) for j in range(10, 20)])) + "\n")
        ppath.write_text(encode_graph6(from_edges(9, [(i, (i + 1) % 9) for i in range(9)])) + "\n")
        code, out, err = run(capsys, "verify", "--graph", str(gpath),
                             "--pattern", str(ppath), "--k", "0")
        assert code == 2
        assert out == ""
        assert "work budget" in err

    # star_stable(16, 10) has order 27 and C(27, 10) = 8,436,285 fault sets;
    # each of its 11 total vertices keeps degree >= 16 after any 10 deletions
    def test_redundant_host_of_order_27_is_decided_fast(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(encode_graph6(star_stable(16, 10)) + "\n")
        proc = run_cli_subprocess("verify", "--graph", str(path), "--r", "16", "--k", "10",
                                  timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "stable": True, "witness": None, "checked_fault_sets": 8436285}

    def test_deleted_leaf_edge_is_witnessed_by_the_other_total_vertices(self, tmp_path):
        # totals are 0..10 and leaves 11..26: without the edge (0, 11), total 0
        # keeps only 15 leaves once the other totals fail
        g = star_stable(16, 10)
        g = from_edges(g.n, [e for e in g.edges() if e != (0, 11)])
        path = tmp_path / "g.g6"
        path.write_text(encode_graph6(g) + "\n")
        proc = run_cli_subprocess("verify", "--graph", str(path), "--r", "16", "--k", "10",
                                  timeout=5)
        assert proc.returncode == 0, proc.stderr
        # the witness comes right after every fault set containing vertex 0
        assert json.loads(proc.stdout) == {
            "stable": False, "witness": list(range(2, 12)),
            "checked_fault_sets": comb(26, 9) + 1}


def run_cli_subprocess(*argv, timeout=30):
    env = {**os.environ, "PYTHONPATH": str(Path(starstab.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-m", "starstab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=timeout)


class TestStab:
    def test_large_instance_value(self, capsys):
        code, out, _ = run(capsys, "stab", "--r", "8", "--k", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 92
        assert payload["case"] == "EVEN_R_SMALL_K"
        assert payload["k0"] == 49 and payload["k1"] == 47
        assert len(payload["extremal"]) == 1

    def test_odd_r_has_null_boundaries(self, capsys):
        code, out, _ = run(capsys, "stab", "--r", "3", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "ODD_R"
        assert payload["k0"] is None and payload["k1"] is None

    # One instance of each regime, with its exact stdout.
    @pytest.mark.parametrize("r, k, line", [
        (3, 2, '{"case": "ODD_R", "extremal": ["E~z_"], "k": 2, "k0": null, "k1": null, '
               '"r": 3, "value": 12}'),
        (4, 2, '{"case": "EVEN_R_SMALL_K", "extremal": ["F~zf?"], "k": 2, "k0": 9, "k1": 7, '
               '"r": 4, "value": 15}'),
        (4, 7, '{"case": "BOUNDARY_A", "extremal": ["K~~~~~~~v}^w", "K~~~vnnv|~n~"], "k": 7, '
               '"k0": 9, "k1": 7, "r": 4, "value": 60}'),
        (4, 8, '{"case": "BOUNDARY_B", "extremal": ["L~~~~~~~~~^{~w", "L~~~~zz|~^z~n~"], '
               '"k": 8, "k0": 9, "k1": 7, "r": 4, "value": 72}'),
        (4, 9, '{"case": "CASE_3", "extremal": ["M~~~~zz|~^z~n~^~_"], "k": 9, "k0": 9, '
               '"k1": 7, "r": 4, "value": 84}'),
        (4, 10, '{"case": "CASE_4", "extremal": ["N~~~~~}~^v}~z~v~v~w"], "k": 10, "k0": 9, '
                '"k1": 7, "r": 4, "value": 98}'),
    ], ids=["ODD_R", "EVEN_R_SMALL_K", "BOUNDARY_A", "BOUNDARY_B", "CASE_3", "CASE_4"])
    def test_stdout_is_pinned_in_each_regime(self, capsys, r, k, line):
        assert run(capsys, "stab", "--r", str(r), "--k", str(k)) == (0, line + "\n", "")

    def test_invalid_parameters_exit_2(self, capsys):
        code, out, err = run(capsys, "stab", "--r", "2", "--k", "0")
        assert code == 2
        assert out == ""

    def test_order_above_vertex_cap_refused_before_search(self):
        # order 66: refused before the extremal graphs are built or canonicalized
        proc = run_cli_subprocess("stab", "--r", "4", "--k", "61")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert (proc.stdout, proc.stderr) == ("", "error: order 66 exceeds the 64-vertex cap\n")

    def test_perfect_matching_complement_of_order_30_finishes(self):
        # the complement of a 15-pair matching has 2^15 * 15! automorphisms;
        # twin swaps alone leave about 15! leaves to search
        proc = run_cli_subprocess("stab", "--r", "6", "--k", "23")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["value"] == stab_value(6, 23)
        assert payload["extremal"]
        for code in payload["extremal"]:
            g = decode_graph6(code)
            assert (g.n, g.size) == (30, stab_value(6, 23))


class TestExtremal:
    def test_writes_one_file_per_class(self, capsys, tmp_path):
        outdir = tmp_path / "fam"
        code, out, _ = run(capsys, "extremal", "--r", "4", "--k", "7", "--out", str(outdir))
        assert code == 0
        files = sorted(outdir.glob("*.g6"))
        assert len(files) == 2
        assert sorted(out.split()) == [str(f) for f in files]
        sizes = {decode_graph6(f.read_text()).size for f in files}
        assert sizes == {60}

    def test_refused_call_leaves_no_directory(self, capsys, tmp_path):
        outdir = tmp_path / "fam"
        code, out, err = run(capsys, "extremal", "--r", "3", "--k", "61", "--out", str(outdir))
        assert (code, out) == (2, "")
        assert err == "error: order 65 exceeds the 64-vertex cap\n"
        assert not outdir.exists()


class TestCertify:
    def test_verified_instance(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certify", "--r", "3", "--k", "1", "--out", str(cert_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True and payload["minimality_ok"] is True
        assert json.loads(cert_path.read_text()) == payload

    def test_prints_the_text_it_writes(self, capsys, tmp_path):
        # the printed text is the value written, not the file read back
        cert_path = tmp_path / "cert.json"
        _, written, _ = run(capsys, "certify", "--r", "3", "--k", "0", "--out", str(cert_path))
        code, out, _ = run(capsys, "certify", "--r", "3", "--k", "0", "--out", os.devnull)
        assert code == 0
        assert out == written == cert_path.read_text()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_out_dev_stdout_shows_the_text_twice(self, tmp_path):
        # reading the certificate back from a pipe would wait for its own end
        cert_path = tmp_path / "cert.json"
        write_certificate(certify(3, 0), cert_path)
        proc = run_cli_subprocess("certify", "--r", "3", "--k", "0", "--out", "/dev/stdout")
        assert (proc.returncode, proc.stdout) == (0, cert_path.read_text() * 2)

    def test_capacity_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "certify", "--r", "5", "--k", "5",
                           "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert "census work budget" in err

    def test_boundary_instance_lists_two_classes(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certify", "--r", "4", "--k", "7", "--out", str(cert_path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["extremal_found"]) == 2
        assert payload["extremal_found"] == payload["extremal_expected"]

    def test_refutation_exits_1_and_persists(self, capsys, tmp_path, monkeypatch):
        import starstab.cli as cli
        from starstab import Certificate

        refutation = Certificate(
            schema_version="2", r=3, k=1, claimed_value=7, minimality_ok=True,
            candidates_below=6, extremal_found=(), extremal_expected=("D}o",),
            match=False,
        )
        monkeypatch.setattr(cli, "certify", lambda r, k: refutation)
        cert_path = tmp_path / "cert.json"
        code, out, err = run(capsys, "certify", "--r", "3", "--k", "1",
                             "--out", str(cert_path))
        assert code == 1
        assert "refuted" in err
        assert json.loads(cert_path.read_text())["match"] is False


class TestRecover:
    def test_center_fault(self, capsys):
        code, out, _ = run(capsys, "recover", "--r", "3", "--k", "1", "--faults", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["mapping"] == [[1, 2], [2, 3], [3, 4], [4, 5]]

    def test_duplicate_faults_echoed_once(self, capsys):
        code, out, _ = run(capsys, "recover", "--r", "3", "--k", "1", "--faults", "2,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["faults"] == [2]
        assert payload["mapping"] == [[1, 1], [2, 3], [3, 4], [4, 5]]

    def test_budget_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "recover", "--r", "3", "--k", "1", "--faults", "1,2")
        assert code == 2

    def test_faults_that_are_not_integers(self, capsys):
        code, out, err = run(capsys, "recover", "--r", "3", "--k", "1", "--faults", "1,x")
        assert (code, out) == (2, "")
        assert err == "error: faults must be comma-separated labels, got '1,x'\n"


class TestEnumerate:
    def test_line_per_class(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--edges", "3", "--max-vertices", "4")
        assert code == 0
        lines = out.split()
        assert len(lines) == 3
        assert all(decode_graph6(line).size == 3 for line in lines)

    def test_census_beyond_the_edge_budget_is_refused_fast(self):
        # each builds the levels below the one that overruns: 30,401 candidates
        for e, n in ((13, 16), (11, 22)):
            proc = run_cli_subprocess("enumerate", "--edges", str(e), "--max-vertices", str(n),
                                      timeout=5)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == (f"error: census work budget exceeded: {e} census edges at "
                                   f"order {n} need more than 100000 candidates\n")

    def test_dense_census_runs_on_the_sparse_side(self):
        # K8 from its empty complement; a census of 28 edges took 8 s
        proc = run_cli_subprocess("enumerate", "--edges", "28", "--max-vertices", "8",
                                  timeout=2)
        assert proc.returncode == 0
        assert proc.stdout == "G~~~~{\n"

    def test_more_edges_than_pairs_exits_2(self):
        proc = run_cli_subprocess("enumerate", "--edges", "30", "--max-vertices", "8")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "size 30 impossible at order 8" in proc.stderr

    def test_census_at_the_canonical_order_cap_is_pinned_and_fast(self):
        # each class has 46 to 57 isolated vertices, one cell of mutual
        # twins that its one canonical search splits in one step
        proc = run_cli_subprocess("enumerate", "--edges", "8", "--max-vertices", "62",
                                  timeout=3)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "6a9e5b5fed4bbab61c9cf9ea396eb590293b5e246e2dc7a4491ae5e08a3fcc95")


class TestIntegerArguments:
    # An integer argument is an optional ASCII '-' then ASCII digits; int()
    # alone also reads underscores, surrounding whitespace and other digits.
    # int() refuses more digits than Python's limit, and so does the CLI.
    PAST_DIGIT_LIMIT = "1" * (sys.get_int_max_str_digits() + 1)

    @pytest.mark.parametrize("argv, refused", [
        (("stab", "--r", "\u0664", "--k", "1"), "--r: invalid int value: '\u0664'"),
        (("stab", "--r", "4", "--k", "1_0"), "--k: invalid int value: '1_0'"),
        (("stab", "--r", " 4", "--k", "1"), "--r: invalid int value: ' 4'"),
        (("construct", "--r", "3", "--k", "1 "), "--k: invalid int value: '1 '"),
        (("verify", "--graph", "g.g6", "--r", "3", "--k", "+1"), "--k: invalid int value: '+1'"),
        (("enumerate", "--edges", "3", "--max-vertices", "4_0"),
         "--max-vertices: invalid int value: '4_0'"),
        (("enumerate", "--edges", "", "--max-vertices", "4"), "--edges: invalid int value: ''"),
        pytest.param(("stab", "--r", "4", "--k", PAST_DIGIT_LIMIT),
                     f"--k: invalid int value: '{PAST_DIGIT_LIMIT}'", id="past-digit-limit"),
    ])
    def test_scalar_refused_by_the_parser(self, capsys, argv, refused):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {refused}\n")

    @pytest.mark.parametrize("argv, message", [
        (("recover", "--r", "3", "--k", "1", "--faults", "\u0661,2"),
         "faults must be comma-separated labels, got '\u0661,2'"),
        (("recover", "--r", "3", "--k", "1", "--faults", "1_0"),
         "faults must be comma-separated labels, got '1_0'"),
        (("recover", "--r", "3", "--k", "1", "--faults", "1, 2"),
         "faults must be comma-separated labels, got '1, 2'"),
        (("construct", "--r", "3", "--k", "1", "--labelling", "\uff11,2,3,4"),
         "labelling must be comma-separated integers, got '\uff11,2,3,4'"),
        (("construct", "--r", "3", "--k", "1", "--labelling", "1,-,3,4"),
         "labelling must be comma-separated integers, got '1,-,3,4'"),
        (("stab", "--r", "4", "--k", "-1"), "fault budget k must be an int >= 0, got -1"),
        pytest.param(("recover", "--r", "3", "--k", "1", "--faults", PAST_DIGIT_LIMIT),
                     f"faults must be comma-separated labels, got '{PAST_DIGIT_LIMIT}'",
                     id="past-digit-limit"),
    ])
    def test_list_and_library_refusals_keep_their_messages(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("policy", ["default", "error"])
def test_isolated_pattern_round_trip(tmp_path, monkeypatch, policy):
    # a pattern with isolated vertices is expanded like any other, silently
    monkeypatch.setenv("PYTHONWARNINGS", policy)  # "error" is python -W error
    pattern, host = tmp_path / "h.g6", tmp_path / "g.g6"
    pattern.write_text("C@\n")  # one edge and two isolated vertices
    proc = run_cli_subprocess("construct", "--pattern", str(pattern), "--k", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "D@K\n", "")
    host.write_text(proc.stdout)
    proc = run_cli_subprocess("verify", "--graph", str(host), "--pattern", str(pattern),
                              "--k", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["stable"] is True


@pytest.mark.parametrize("argv", [
    ("construct", "--pattern", "{}", "--k", "1"),
    ("verify", "--graph", "{}", "--r", "3", "--k", "1"),
], ids=["construct", "verify"])
def test_graph_file_that_is_not_ascii_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "g.g6"
    path.write_bytes(b"C\xff\n")
    code, out, err = run(capsys, *(arg.format(path) for arg in argv))
    assert (code, out, err) == (2, "", "error: graph6 input is not ASCII\n")


@pytest.mark.parametrize("size, refused", [(4096, False), (4097, True)])
def test_graph_file_is_read_within_a_byte_bound(capsys, tmp_path, size, refused):
    # "Cs" padded with spaces is a legal file at any length; past the bound
    # it is refused after reading one byte more, so /dev/zero is refused too
    path = tmp_path / "g.g6"
    path.write_text("Cs".ljust(size))
    code, out, err = run(capsys, "verify", "--graph", str(path), "--r", "3", "--k", "0")
    if refused:
        assert (code, out, err) == (2, "", "error: graph6 input is longer than 4096 bytes\n")
    else:
        assert (code, json.loads(out)["stable"]) == (0, True)


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_identical_invocations_identical_output(capsys):
    _, out1, _ = run(capsys, "stab", "--r", "4", "--k", "7")
    _, out2, _ = run(capsys, "stab", "--r", "4", "--k", "7")
    assert out1 == out2
