import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import starstab
from starstab import (
    CapacityExceededError,
    Graph,
    Graph6ParseError,
    InvalidParameterError,
    complement,
    complete,
    conjunction,
    decode_graph6,
    empty,
    encode_graph6,
    export_dot,
    from_edges,
    induced_delete,
    near_complete_regular,
    pad,
    permute,
    star,
    with_edge,
)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


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

    def test_from_edges_rejects_loop_and_range(self):
        with pytest.raises(InvalidParameterError):
            from_edges(3, [(1, 1)])
        with pytest.raises(InvalidParameterError):
            from_edges(3, [(0, 3)])

    def test_handshake(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(0, 12))
            assert sum(g.degrees()) == 2 * g.size

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
        assert sorted(g.degrees(), reverse=True) == [3, 1, 1, 1]
        assert all(not g.adjacent(u, v) for u in range(1, 4) for v in range(1, 4) if u != v)

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
        assert all(d == 4 for d in g.degrees())

    def test_twelve(self):
        assert near_complete_regular(12).size == 60

    def test_odd_rejected(self):
        with pytest.raises(InvalidParameterError):
            near_complete_regular(5)

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_regularity_and_matching_complement(self, n):
        g = near_complete_regular(n)
        assert all(d == n - 2 for d in g.degrees())
        comp = complement(g)
        assert comp.size == n // 2
        assert all(d == 1 for d in comp.degrees())


class TestComplement:
    def test_complete_and_empty(self):
        assert complement(complete(4)).size == 0
        assert complement(empty(3)) == complete(3)

    def test_matching_from_near_regular(self):
        comp = complement(near_complete_regular(6))
        assert comp.size == 3
        assert sorted(comp.degrees()) == [1] * 6

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
        assert not g.adjacent(0, 1)
        h = induced_delete(g, {0, 1})
        assert h.n == 4
        assert all(d == 2 for d in h.degrees())

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
        with pytest.raises(CapacityExceededError):
            encode_graph6(empty(63))

    @pytest.mark.parametrize("bad", ["", "~??", "C", "C~~", "C" + chr(30), chr(20)])
    def test_parse_errors(self, bad):
        with pytest.raises(Graph6ParseError):
            decode_graph6(bad)

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
