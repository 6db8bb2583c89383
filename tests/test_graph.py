import json
import os
import pickle
import random
import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import pytest

import starstab
from starstab import (
    CapacityExceededError,
    Graph,
    Graph6ParseError,
    InvalidParameterError,
    certify,
    complement,
    complete,
    conjunction,
    decode_graph6,
    empty,
    encode_graph6,
    export_dot,
    from_edges,
    near_complete_regular,
    pad,
    read_certificate,
    star,
    write_certificate,
)
from starstab.graph import induced_delete, permute, with_edge
from helpers import adjacent, degrees, random_graph


def _int_fields(value):
    """The values that a record, or each record of a list, annotates as an int
    or a tuple of ints, with those of its Graph fields; a None is skipped."""
    if isinstance(value, list):
        for item in value:
            yield from _int_fields(item)
        return
    for name, hint in typing.get_type_hints(type(value)).items():
        field = getattr(value, name)
        if hint is Graph:
            yield from _int_fields(field)
        elif _names_int(hint) and field is not None:
            yield from field if isinstance(field, tuple) else (field,)


def _names_int(hint):
    return hint is int or any(_names_int(arg) for arg in typing.get_args(hint))


class TestGraphType:
    def test_rejects_loop(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, (1, 2))

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, (2, 0))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, (4, 0))

    def test_rejects_order_above_cap(self):
        with pytest.raises(CapacityExceededError):
            Graph(65, (0,) * 65)

    def test_owns_its_rows(self):
        rows = [2, 1]
        g = Graph(2, rows)
        rows.append(0)
        assert g.rows == (2, 1)
        assert hash(g) == hash(Graph(2, (2, 1)))

    def test_rejects_rows_that_are_not_ints(self):
        with pytest.raises(InvalidParameterError, match="row 0 is not an int"):
            Graph(2, (1.5, 0))
        # row 0 names vertex 1, so row 1 is checked before the symmetry walk reads it
        for bad in (1.0, "1", None):
            with pytest.raises(InvalidParameterError, match="row 1 is not an int"):
                Graph(2, (2, bad))
        with pytest.raises(InvalidParameterError, match="adjacency row count does not match order"):
            Graph(2, (0,))

    def test_from_edges_rejects_loop_and_range(self):
        with pytest.raises(InvalidParameterError):
            from_edges(3, [(1, 1)])
        with pytest.raises(InvalidParameterError):
            from_edges(3, [(0, 3)])

    def test_handshake(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(0, 12))
            assert sum(degrees(g)) == 2 * g.size

    def test_edges_listing(self):
        g = from_edges(4, [(2, 0), (3, 1)])
        assert list(g.edges()) == [(0, 2), (1, 3)]


# (type, constructor arguments, repr, a field, arguments of a different value)
VALUES = [
    (Graph, (2, (2, 1)), "Graph(n=2, rows=(2, 1))", "rows", (2, (0, 0))),
]


@pytest.mark.parametrize("cls, args, text, field, other_args", VALUES,
                         ids=[v[0].__name__ for v in VALUES])
class TestValueSemantics:
    def test_equal_values_are_equal_and_hash_equal(self, cls, args, text, field, other_args):
        a, b = cls(*args), cls(*args)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != cls(*other_args)
        assert pickle.loads(pickle.dumps(a)) == a

    def test_unequal_to_another_type(self, cls, args, text, field, other_args):
        value = cls(*args)
        assert value != args
        assert value != args[0]
        assert value != text

    def test_repr(self, cls, args, text, field, other_args):
        assert repr(cls(*args)) == text

    def test_positional_match_pattern(self, cls, args, text, field, other_args):
        match cls(*args):
            case Graph(n, rows):
                fields = (n, rows)
            case _:
                fields = None
        assert fields == args

    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, text, field, other_args):
        value = cls(*args)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(*args)


def test_invalid_values_refused_under_optimize_flag():
    # python -O strips assert statements; construction must still validate.
    code = textwrap.dedent("""
        from starstab import Graph, InvalidParameterError, bch_construct, from_edges

        path3 = from_edges(3, [(0, 1), (1, 2)])
        for make in (lambda: Graph(2, (1, 2)), lambda: Graph(2, (2, 0)),
                     lambda: Graph(1, (0, 0)), lambda: bch_construct(path3, 1, (1, 1, 3))):
            try:
                make()
            except InvalidParameterError as exc:
                print("refused:", exc)
            else:
                raise SystemExit("invalid value accepted")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(starstab.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "refused: loop at vertex 0",
        "refused: asymmetric adjacency between 1 and 0",
        "refused: adjacency row count does not match order",
        "refused: labelling must be a bijection onto 1..3, got (1, 1, 3)",
    ]


class TestStar:
    def test_small(self):
        g = star(3)
        assert (g.n, g.size) == (4, 3)
        assert sorted(degrees(g), reverse=True) == [3, 1, 1, 1]
        assert all(not adjacent(g, u, v) for u in range(1, 4) for v in range(1, 4) if u != v)

    def test_order_and_size(self):
        g = star(8)
        assert (g.n, g.size) == (9, 8)

    def test_rejects_small_r(self):
        with pytest.raises(InvalidParameterError):
            star(2)


class TestConjunction:
    def test_k2_with_three_isolated(self):
        g = conjunction(complete(2), empty(3))
        assert (g.n, g.size) == (5, 7)

    def test_two_singletons_give_an_edge(self):
        assert conjunction(empty(1), empty(1)) == complete(2)

    def test_eight_by_eight(self):
        g = conjunction(complete(8), empty(8))
        assert (g.n, g.size) == (16, 92)

    def test_with_empty_graph(self):
        assert conjunction(complete(6), empty(0)) == complete(6)

    def test_capacity(self):
        with pytest.raises(CapacityExceededError):
            conjunction(empty(40), empty(30))

    def test_order_size_arithmetic_random(self):
        rng = random.Random(11)
        for _ in range(40):
            g1 = random_graph(rng, rng.randrange(0, 9))
            g2 = random_graph(rng, rng.randrange(0, 9))
            g = conjunction(g1, g2)
            assert g.n == g1.n + g2.n
            assert g.size == g1.size + g2.size + g1.n * g2.n


class TestNearCompleteRegular:
    def test_six(self):
        g = near_complete_regular(6)
        assert g.size == 12
        assert all(d == 4 for d in degrees(g))

    def test_twelve(self):
        assert near_complete_regular(12).size == 60

    def test_odd_rejected(self):
        with pytest.raises(InvalidParameterError):
            near_complete_regular(5)

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_regularity_and_matching_complement(self, n):
        g = near_complete_regular(n)
        assert all(d == n - 2 for d in degrees(g))
        comp = complement(g)
        assert comp.size == n // 2
        assert all(d == 1 for d in degrees(comp))


class TestComplement:
    def test_complete_and_empty(self):
        assert complement(complete(4)).size == 0
        assert complement(empty(3)) == complete(3)

    def test_matching_from_near_regular(self):
        comp = complement(near_complete_regular(6))
        assert comp.size == 3
        assert sorted(degrees(comp)) == [1] * 6

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(0, 12))
            assert complement(complement(g)) == g


class TestInducedDelete:
    def test_complete_minus_vertex(self):
        assert induced_delete(complete(5), {0}) == complete(4)

    def test_star_minus_center(self):
        assert induced_delete(star(3), {0}) == empty(3)

    def test_near_regular_minus_matching_pair(self):
        # brute check on the 6-vertex instance: dropping one non-adjacent pair
        # leaves four vertices that each still miss exactly one neighbour
        g = near_complete_regular(6)
        assert not adjacent(g, 0, 1)
        h = induced_delete(g, {0, 1})
        assert h.n == 4
        assert all(d == 2 for d in degrees(h))

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            induced_delete(complete(3), {3})

    def test_empty_fault_set(self):
        g = star(4)
        assert induced_delete(g, frozenset()) == g

    def test_reindexes_contiguously(self):
        g = from_edges(5, [(0, 4), (2, 4)])
        h = induced_delete(g, {1, 3})
        assert h == from_edges(3, [(0, 2), (1, 2)])


class TestPermutePad:
    def test_permute_roundtrip(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(1, 10)
            g = random_graph(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            inverse = [0] * n
            for i, v in enumerate(order):
                inverse[v] = i
            assert permute(permute(g, order), inverse) == g

    def test_permute_validates(self):
        with pytest.raises(InvalidParameterError):
            permute(complete(3), (0, 0, 1))

    def test_pad_and_with_edge(self):
        g = pad(complete(2), 4)
        assert (g.n, g.size) == (4, 1)
        assert with_edge(g, 2, 3).size == 2
        with pytest.raises(InvalidParameterError):
            pad(g, 2)


class TestIntegerArguments:
    def test_order_must_be_an_int(self):
        with pytest.raises(InvalidParameterError, match="order must be an int"):
            empty(3.0)

    def test_negative_order_is_refused_by_complete(self):
        with pytest.raises(InvalidParameterError, match="order must be >= 0, got -1"):
            complete(-1)

    def test_fault_vertices_must_be_ints(self):
        with pytest.raises(InvalidParameterError, match="vertex 0.5 out of range for order 3"):
            induced_delete(complete(3), [0.5])

    def test_permutation_entries_must_be_ints(self):
        with pytest.raises(InvalidParameterError, match="permutation"):
            permute(complete(3), (0.0, 1.0, 2.0))

    def test_edge_endpoints_must_be_ints(self):
        with pytest.raises(InvalidParameterError, match="vertex 1.0 out of range for order 3"):
            from_edges(3, [(0, 1.0)])
        with pytest.raises(InvalidParameterError, match="vertex 0.0 out of range for order 3"):
            with_edge(empty(3), 0.0, 1)

    @pytest.mark.parametrize("build, arg", [(star, 3.5), (star, 4.0), (near_complete_regular, 4.0)])
    def test_builder_counts_must_be_ints(self, build, arg):
        with pytest.raises(InvalidParameterError):
            build(arg)

    # README: a count, order, vertex or label argument that is not an int
    # raises InvalidParameterError, here a str for each in turn.
    STR_ARGUMENTS = {
        "empty": lambda: empty("3"),
        "complete": lambda: complete("3"),
        "star": lambda: star("4"),
        "near_complete_regular": lambda: near_complete_regular("4"),
        "pad": lambda: pad(complete(3), "5"),
        "from_edges-n": lambda: from_edges("3", []),
        "from_edges-vertex": lambda: from_edges(3, [(0, "1")]),
        "with_edge-u": lambda: with_edge(empty(3), "0", 1),
        "with_edge-v": lambda: with_edge(empty(3), 0, "1"),
        "induced_delete": lambda: induced_delete(complete(3), ["0"]),
        "permute": lambda: permute(complete(3), ("0", "1", "2")),
        "export_dot": lambda: export_dot(star(3), "1"),
        "stab_value-r": lambda: starstab.stab_value("4", 2),
        "stab_value-k": lambda: starstab.stab_value(4, "2"),
        "stab_case-r": lambda: starstab.theorem.stab_case("4", 2),
        "stab_case-k": lambda: starstab.theorem.stab_case(4, "2"),
        "stab_result-r": lambda: starstab.stab_result("4", 2),
        "stab_result-k": lambda: starstab.stab_result(4, "2"),
        "k0": lambda: starstab.k0("4"),
        "k1": lambda: starstab.k1("4"),
        "extremal_family-r": lambda: starstab.extremal_family("4", 2),
        "extremal_family-k": lambda: starstab.extremal_family(4, "2"),
        "star_stable-r": lambda: starstab.star_stable("3", 1),
        "star_stable-k": lambda: starstab.star_stable(3, "1"),
        "is_star_stable-r": lambda: starstab.is_star_stable(complete(5), "3", 1),
        "is_star_stable-k": lambda: starstab.is_star_stable(complete(5), 3, "1"),
        "is_stable_general-k": lambda: starstab.is_stable_general(complete(5), star(3), "1"),
        "bch_construct-k": lambda: starstab.bch_construct(star(3), "1", (1, 2, 3, 4)),
        "bch_construct-labels": lambda: starstab.bch_construct(star(3), 1, ("1", "2", "3", "4")),
        "recovery_embedding": lambda: starstab.recovery_embedding(
            starstab.bch_construct(star(3), 1, (1, 2, 3, 4)), ["1"]),
        "graphs_of_order_and_size-n": lambda: next(starstab.graphs_of_order_and_size("8", 3)),
        "graphs_of_order_and_size-m": lambda: next(starstab.graphs_of_order_and_size(8, "3")),
        "enumerate_graphs_by_edges-e": lambda: next(starstab.enumerate_graphs_by_edges("3", 4)),
        "enumerate_graphs_by_edges-max_vertices":
            lambda: next(starstab.enumerate_graphs_by_edges(3, "4")),
        "certify-r": lambda: starstab.certify("3", 1),
        "certify-k": lambda: starstab.certify(3, "1"),
    }

    @pytest.mark.parametrize("call", STR_ARGUMENTS)
    def test_str_arguments_are_refused(self, call):
        with pytest.raises(InvalidParameterError):
            self.STR_ARGUMENTS[call]()

    # The message shows the repr of the argument, so a str does not read as an int.
    STR_MESSAGES = {
        "k0": r"^boundary constants apply to even r >= 4, got '4'$",
        "k1": r"^boundary constants apply to even r >= 4, got '4'$",
        "graphs_of_order_and_size-m": r"^size '3' impossible at order 8$",
        "enumerate_graphs_by_edges-e": r"^size '3' impossible at order 4$",
        "export_dot": r"^index_base must be an int, got '1'$",
    }

    @pytest.mark.parametrize("call", STR_MESSAGES)
    def test_str_argument_messages_show_the_repr(self, call):
        with pytest.raises(InvalidParameterError, match=self.STR_MESSAGES[call]):
            self.STR_ARGUMENTS[call]()

    # README: the elements of a collection are checked before the collection
    # is hashed or unpacked, so a list where an element belongs is refused.
    LIST_ELEMENTS = {
        "induced_delete": (lambda: induced_delete(complete(3), [[0]]),
                           r"^vertex \[0\] out of range for order 3$"),
        "recovery_embedding": (lambda: starstab.recovery_embedding(
            starstab.bch_construct(star(3), 1, (1, 2, 3, 4)), [[1]]),
            r"^fault label \[1\] is not a vertex label of the result$"),
        "from_edges-short": (lambda: from_edges(3, [(0,)]),
                             r"^edge \(0,\) is not a pair of vertices$"),
        "from_edges-long": (lambda: from_edges(3, [(0, 1, 2)]),
                            r"^edge \(0, 1, 2\) is not a pair of vertices$"),
    }

    @pytest.mark.parametrize("call", LIST_ELEMENTS)
    def test_list_elements_are_refused(self, call):
        build, message = self.LIST_ELEMENTS[call]
        with pytest.raises(InvalidParameterError, match=message):
            build()

    def test_collections_that_are_not_iterable_raise_type_error(self):
        # as in any Python API; only the elements are the library's to check
        with pytest.raises(TypeError):
            permute(complete(3), 5)
        with pytest.raises(TypeError):
            starstab.recovery_embedding(starstab.bch_construct(star(3), 1, (1, 2, 3, 4)), 5)
        with pytest.raises(TypeError):
            starstab.bch_construct(star(3), 1, 5)

    # README: a bool counts as an int, and every record a function returns
    # stores it as a plain int, so a JSON dump writes 1, not true.
    BOOL_ARGUMENTS = {
        "stab_result": lambda: starstab.stab_result(4, True),
        "extremal_family": lambda: starstab.extremal_family(3, True),
        "bch_construct": lambda: starstab.bch_construct(star(3), True, (1, 2, 3, 4)),
        "star_instance": lambda: starstab.construct.star_instance(3, True),
        "Graph": lambda: Graph(2, (False, False)),
        "empty": lambda: empty(True),
        "pad": lambda: pad(empty(0), True),
        "is_star_stable": lambda: starstab.is_star_stable(starstab.star_stable(3, 1), 3, True),
        "certify": lambda: certify(3, True),
    }

    @pytest.mark.parametrize("call", BOOL_ARGUMENTS)
    def test_a_bool_comes_back_as_a_plain_int(self, call):
        ints = list(_int_fields(self.BOOL_ARGUMENTS[call]()))
        assert ints and all(type(x) is int for x in ints), ints
        assert "true" not in json.dumps(ints)

    def test_bools_count_as_ints(self, tmp_path):
        assert empty(True) == empty(1)
        assert permute(complete(2), (True, False)) == complete(2)
        assert induced_delete(complete(3), [True]) == complete(2)
        assert with_edge(empty(2), False, True) == complete(2)
        assert export_dot(star(3), True) == export_dot(star(3), 1)
        # a certificate stores the budget as an int, so the file reads back
        cert = certify(3, True)
        write_certificate(cert, tmp_path / "cert.json")
        assert read_certificate(tmp_path / "cert.json") == cert == certify(3, 1)


class TestGraph6:
    def test_hand_packed_vectors(self):
        assert encode_graph6(complete(4)) == "C~"
        assert encode_graph6(empty(4)) == "C?"
        assert encode_graph6(star(3)) == "Cs"

    def test_zero_and_one_vertex(self):
        assert encode_graph6(empty(0)) == "?"
        assert decode_graph6("?") == empty(0)
        assert decode_graph6(encode_graph6(empty(1))) == empty(1)

    def test_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(300):
            g = random_graph(rng, rng.randrange(0, 17), rng.random())
            assert decode_graph6(encode_graph6(g)) == g

    def test_optional_header_prefix(self):
        assert decode_graph6(">>graph6<<C~\n") == complete(4)

    def test_bytes_input(self):
        assert decode_graph6(b"C~") == complete(4)

    def test_encode_capacity(self):
        # graph6 text reaches the 64-vertex cap through the long-form header
        assert encode_graph6(empty(62)) == "}" + "?" * 316
        assert encode_graph6(empty(63)) == "~??~" + "?" * 326
        assert encode_graph6(complete(64)) == "~?@?" + "~" * 336

    def test_roundtrip_at_every_order(self):
        rng = random.Random(64)
        for n in range(65):
            g = random_graph(rng, n, rng.random())
            text = encode_graph6(g)
            assert text.startswith("~") == (n > 62)
            for form in (text, text.encode(), text + "\r\n"):
                assert decode_graph6(form) == g, (n, form)

    # Only ASCII whitespace is stripped, so chr(30) and chr(31) reach the checks.
    PARSE_ERRORS = {
        "": "^empty graph6 string$",
        "~": "^truncated graph6 long-form header$",
        "~?": "^truncated graph6 long-form header$",
        "~??": "^truncated graph6 long-form header$",
        "~???": "^graph6 long-form header names order 0, below 63$",
        "~?!?": "^bad graph6 header byte 33$",
        "~~??????": "^graph6 8-byte header: orders past the 64-vertex cap$",
        "C": "^graph6 body has 0 bytes, expected 1$",
        "C~~": "^graph6 body has 2 bytes, expected 1$",
        "C" + chr(30): "^graph6 body byte 30 out of range$",
        chr(20): "^bad graph6 header byte 20$",
        "C~\x1f": "^graph6 body has 2 bytes, expected 1$",
        b"C\xff": "^graph6 input is not ASCII$",
    }

    @pytest.mark.parametrize("bad", PARSE_ERRORS)
    def test_parse_errors(self, bad):
        with pytest.raises(Graph6ParseError, match=self.PARSE_ERRORS[bad]):
            decode_graph6(bad)

    @pytest.mark.parametrize("text, order", [("~?@@", 65), ("~?A?", 128)])
    def test_long_form_above_the_vertex_cap(self, text, order):
        # refused at its header, before the body is read
        with pytest.raises(CapacityExceededError, match=f"^order {order} exceeds the 64-vertex cap$"):
            decode_graph6(text)

    def test_nonzero_padding_rejected(self):
        # order 3 uses 3 bits; the low 3 padding bits must be zero
        with pytest.raises(Graph6ParseError):
            decode_graph6("B" + chr(63 + 1))


class TestDot:
    def test_empty_pair(self):
        lines = export_dot(empty(2)).splitlines()
        assert lines[1:3] == ["  0;", "  1;"]
        assert not any("--" in line for line in lines)

    def test_single_edge(self):
        assert "  0 -- 1;" in export_dot(complete(2))

    def test_star_edges_from_center(self):
        edge_lines = [l for l in export_dot(star(3)).splitlines() if "--" in l]
        assert edge_lines == ["  0 -- 1;", "  0 -- 2;", "  0 -- 3;"]

    def test_one_based_option(self):
        assert "  1 -- 2;" in export_dot(complete(2), index_base=1)

    def test_index_base_must_be_an_int(self):
        with pytest.raises(InvalidParameterError, match=r"^index_base must be an int, got 0\.5$"):
            export_dot(star(3), 0.5)
