import hashlib
import random
from itertools import combinations, permutations

import pytest

from starstab import (
    bch_construct,
    canonical_form,
    complete,
    conjunction,
    empty,
    extremal_family,
    from_edges,
    graphs_of_order_and_size,
    near_complete_regular,
    stab_value,
    star,
    star_stable,
)
from starstab.canon import _refine, _twin_representatives
from starstab.graph import _graph6_text, _pair_bits, pad, permute
from helpers import all_labeled_graphs, cycle, random_graph


def brute_isomorphic(g1, g2):
    """Oracle: search every vertex bijection."""
    if g1.n != g2.n or g1.size != g2.size:
        return False
    return any(permute(g1, p) == g2 for p in permutations(range(g1.n)))


def reference_min_key(rows):
    """Oracle: the canonical search before automorphism pruning. It skips
    twin swaps only and searches every other child to its leaves."""
    best = None

    def search(cells):
        nonlocal best
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            key = _pair_bits(rows, [cell[0] for cell in cells])
            if best is None or key < best:
                best = key
            return
        target = cells[idx]
        for v in _twin_representatives(rows, target):
            rest = [u for u in target if u != v]
            search(_refine(rows, cells[:idx] + [[v], rest] + cells[idx + 1:]))

    initial = {}
    for v in range(len(rows)):
        initial.setdefault(rows[v].bit_count(), []).append(v)
    search(_refine(rows, [initial[d] for d in sorted(initial)]))
    return best


def reference_code(g):
    """canonical_form's code, searched by the oracle."""
    n = g.n
    npairs = n * (n - 1) // 2
    if 2 * g.size > npairs:
        full = (1 << n) - 1
        comp_rows = tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows))
        return _graph6_text(n, reference_min_key(comp_rows) ^ ((1 << npairs) - 1))
    return _graph6_text(n, reference_min_key(g.rows))


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestCanonicalForm:
    def test_path_vs_cycle(self):
        assert canonical_form(path(4)) != canonical_form(cycle(4))

    def test_star_invariant_under_all_relabellings(self):
        codes = {canonical_form(permute(star(3), p)) for p in permutations(range(4))}
        assert len(codes) == 1

    def test_invariant_under_random_relabellings(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, rng.random())
            order = list(range(n))
            rng.shuffle(order)
            assert canonical_form(g) == canonical_form(permute(g, order))

    def test_code_decodes_to_isomorphic_graph(self):
        from starstab import decode_graph6

        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(0, 9))
            back = decode_graph6(canonical_form(g))
            assert (back.n, back.size) == (g.n, g.size)
            assert brute_isomorphic(back, g)

    def test_separates_worked_example_from_complete_graph(self):
        pattern = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        g1 = bch_construct(pattern, 2, (3, 4, 1, 2)).result
        assert canonical_form(g1) != canonical_form(complete(6))

    def test_class_counts_match_brute_force_partition(self):
        # group every labeled graph two ways: by canonical code and by
        # brute-force isomorphism; the partitions must coincide
        for n, expected in [(3, 4), (4, 11)]:
            by_code = {}
            for g in all_labeled_graphs(n):
                by_code.setdefault(canonical_form(g), []).append(g)
            assert len(by_code) == expected
            for bucket in by_code.values():
                rep = bucket[0]
                assert all(brute_isomorphic(rep, other) for other in bucket[1:])
            reps = [bucket[0] for bucket in by_code.values()]
            for a, b in combinations(reps, 2):
                assert not brute_isomorphic(a, b)

    def test_five_vertex_class_count(self):
        codes = {canonical_form(g) for g in all_labeled_graphs(5)}
        assert len(codes) == 34

    def test_codes_of_all_five_vertex_graphs_are_pinned(self):
        codes = "\n".join(canonical_form(g) for g in all_labeled_graphs(5))
        assert hashlib.sha256(codes.encode()).hexdigest() == (
            "d5d8c78981906467fd9c082f3a5d7779d56af4581083fa2cb1f7fb20908219ab")

    def test_extremal_codes_are_pinned(self):
        pinned = {
            (4, 9): ["M~~~~zz|~^z~n~^~_"],
            (4, 10): ["N~~~~~}~^v}~z~v~v~w"],
            (4, 11): ["O~~~~~}~^v}~z~v~v~z~~"],
            (4, 12): ["P~~~~~~~v|~n}~|~|~}~~n~{"],
            (5, 1): ["F}rE?"],
            (5, 2): ["G~zfF?"],
        }
        for (r, k), codes in pinned.items():
            assert [canonical_form(h) for h in extremal_family(r, k)] == codes

    def test_highly_symmetric_graphs(self):
        # the order-64 codes carry graph6's long-form header
        for g in [complete(14), empty(14), near_complete_regular(14),
                  conjunction(near_complete_regular(12), complete(1)),
                  star_stable(4, 9), complete(64), pad(cycle(5), 64),
                  extremal_family(3, 60)[0]]:
            rng = random.Random(g.size)
            order = list(range(g.n))
            rng.shuffle(order)
            assert canonical_form(g) == canonical_form(permute(g, order))

    @pytest.mark.parametrize("k, leaves", [(9, 22), (25, 106)])
    def test_matching_complement_leaf_counts_are_pinned(self, monkeypatch, k, leaves):
        # The search keys each leaf with one _pair_bits call, so a pruning
        # regression shows here as a count rather than as a timing.
        g = extremal_family(4, k)[0]  # the matching complement of order k + 5
        calls = []

        def counted(rows, order):
            calls.append(None)
            return _pair_bits(rows, order)

        monkeypatch.setattr("starstab.canon._pair_bits", counted)
        canonical_form(g)
        assert (g.n, len(calls)) == (k + 5, leaves)

    @pytest.mark.parametrize("g, refinements", [(empty(64), 1), (complete(64), 1),
                                                (pad(cycle(5), 64), 12), (star(63), 1)],
                             ids=["empty64", "complete64", "c5-padded-to-64", "star63"])
    def test_a_cell_of_mutual_twins_splits_in_one_step(self, monkeypatch, g, refinements):
        # The 64, 59 or 63 twins (in star63, leaves, none isolated) split into
        # singletons without a refinement per vertex; without the twin step
        # each of them would cost one _refine call.
        calls = []

        def counted(rows, cells):
            calls.append(None)
            return _refine(rows, cells)

        monkeypatch.setattr("starstab.canon._refine", counted)
        canonical_form(g)
        assert len(calls) == refinements


class TestAgainstUnprunedSearch:
    """Automorphism pruning must leave every code byte-identical."""

    def assert_codes_agree(self, graphs):
        rng = random.Random(37)
        for g in graphs:
            order = list(range(g.n))
            rng.shuffle(order)
            expected = reference_code(g)
            assert canonical_form(g) == expected
            assert canonical_form(permute(g, order)) == expected

    def test_certify_census_classes(self):
        for r, k in [(5, 1), (5, 2)]:
            n, value = r + k + 1, stab_value(r, k)
            for size in (value - 1, value):
                self.assert_codes_agree(graphs_of_order_and_size(n, size))

    def test_perfect_matching_complements(self):
        graphs = []
        for n in range(4, 13, 2):
            graphs += [near_complete_regular(n),
                       conjunction(near_complete_regular(n), complete(1))]
        self.assert_codes_agree(graphs)

    def test_symmetric_graphs(self):
        k33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        cube = from_edges(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4)
                              if u < u ^ bit])
        petersen = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                              + [(i, i + 5) for i in range(5)]
                              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        # in the join of C_5 and K_{3,3} the first cell holds both orbits, so a
        # prune that skips past the deepest shared node loses the least key
        self.assert_codes_agree([cycle(n) for n in range(4, 11)]
                                + [k33, cube, petersen, conjunction(cycle(5), k33)])

    def test_padded_graphs(self):
        # the isolated vertices are one cell of false twins
        rng = random.Random(41)
        self.assert_codes_agree(pad(random_graph(rng, rng.randrange(0, 9), rng.random()),
                                    rng.randrange(9, 40))
                                for _ in range(60))

    def test_twin_blow_ups(self):
        # every vertex of a small graph becomes a clique (true twins) or an
        # independent set (false twins) of up to 5 vertices
        rng = random.Random(43)
        graphs = [star_stable(8, 40)]
        for _ in range(60):
            base = random_graph(rng, rng.randrange(1, 6), rng.random())
            blocks, start = [], 0
            for _ in range(base.n):
                size = rng.randrange(1, 6)
                blocks.append((range(start, start + size), rng.random() < 0.5))
                start += size
            edges = [(a, b) for u, v in base.edges() for a in blocks[u][0] for b in blocks[v][0]]
            edges += [(a, b) for block, clique in blocks if clique
                      for a in block for b in block if a < b]
            graphs.append(from_edges(start, edges))
        self.assert_codes_agree(graphs)


class TestIsIsomorphic:
    def test_join_with_nothing(self):
        assert canonical_form(complete(6)) == canonical_form(conjunction(complete(6), empty(0)))

    def test_star_construction_label_independent(self):
        rng = random.Random(5)
        base = star_stable(4, 2)
        for _ in range(10):
            labels = list(range(1, 6))
            rng.shuffle(labels)
            built = bch_construct(star(4), 2, tuple(labels)).result
            assert canonical_form(built) == canonical_form(base)

    def test_worked_example_pair_differs(self):
        pattern = from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        g1 = bch_construct(pattern, 2, (3, 4, 1, 2)).result
        g2 = bch_construct(pattern, 2, (1, 2, 3, 4)).result
        assert canonical_form(g1) != canonical_form(g2)

    def test_reflexive_and_symmetric(self):
        # equal codes are a symmetric relation by construction; a repeated
        # call must give the same code
        rng = random.Random(29)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(0, 9))
            assert canonical_form(g) == canonical_form(g)

    def test_agrees_with_brute_force_on_all_small_pairs(self):
        classes = {}
        for g in all_labeled_graphs(4):
            classes.setdefault(canonical_form(g), g)
        reps = list(classes.values())
        for a in reps:
            for b in reps:
                assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)

    def test_agrees_with_brute_force_on_shuffled_pairs(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(2, 7)
            g = random_graph(rng, n)
            if rng.random() < 0.5:
                order = list(range(n))
                rng.shuffle(order)
                h = permute(g, order)
            else:
                h = random_graph(rng, n)
            assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)
