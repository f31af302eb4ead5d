import itertools
import random
import time

import pytest

from molsnet import (LatinSquare, MolsSet, brute_force_distinctness, brute_force_multiplicity,
                     build_partite_graph, count_edges_brute, edge_multiplicity,
                     enumerate_latin_squares, enumerate_set_orthogonality,
                     exhaustive_mols_search, is_t_orthogonal, make_additive_square,
                     make_mols_family, make_turan_graph, superimpose, turan_edge_count,
                     validate_latin)
from reference import cell_pair_counts


def scrambled(square, rng):
    rows = list(square.cells)
    rng.shuffle(rows)
    relabel = list(range(1, square.order + 1))
    rng.shuffle(relabel)
    cells = tuple(tuple(relabel[s - 1] for s in row) for row in rows)
    return LatinSquare(square.order, cells, "scrambled")


class TestBruteForceDistinctness:
    def test_agrees_on_every_generated_subset(self, family4, family5):
        for family, ts in ((family4, (2, 3, 4)), (family5, (2, 3, 4))):
            size = len(family)
            for t in ts:
                for combo in itertools.combinations(range(size), t):
                    array = superimpose([family[i] for i in combo])
                    assert brute_force_distinctness(array) == \
                        is_t_orthogonal(array).is_orthogonal

    def test_agrees_on_random_stacks(self):
        rng = random.Random(42)
        verdicts = set()
        for _ in range(10):
            squares = [scrambled(make_additive_square(5, rng.randint(1, 4)), rng)
                       for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.4:
                squares.append(squares[-1])
            array = superimpose(squares)
            verdict = brute_force_distinctness(array)
            assert verdict == is_t_orthogonal(array).is_orthogonal
            verdicts.add(verdict)
        assert verdicts == {True, False}     # the sample exercises both outcomes

    def test_rejects_nothing_spuriously(self, family5):
        assert brute_force_distinctness(superimpose(list(family5.squares)))


class TestEnumerateSetOrthogonality:
    def test_order_4_shift_pairs_carry_their_first_collision(self, family4):
        report = enumerate_set_orthogonality(family4, 2)
        first = tuple(report.verdicts)[0]
        assert first.indices == (1, 2)
        assert not first.report.is_orthogonal
        assert first.report.distinct_count == 12
        assert first.report.first_collision == ((2, 1), (4, 3))
        assert len(report.failures) == 6
        assert enumerate_set_orthogonality(family4, 3).all_orthogonal

    def test_repeated_square_keeps_only_the_diagonal_tuples(self, family5):
        doubled = MolsSet(5, (family5[0], family5[1], family5[0]))
        verdicts = tuple(enumerate_set_orthogonality(doubled, 2).verdicts)
        assert [v.indices for v in verdicts] == [(1, 2), (1, 3), (2, 3)]
        assert [v.report.is_orthogonal for v in verdicts] == [True, False, True]
        assert verdicts[1].report.distinct_count == 5
        assert verdicts[1].report.first_collision == ((1, 1), (2, 5))
        assert verdicts[0].report.distinct_count == 25
        assert verdicts[0].report.first_collision is None

    def test_t_must_fit_the_set(self, family5):
        with pytest.raises(ValueError):
            enumerate_set_orthogonality(family5, 1)
        with pytest.raises(ValueError):
            enumerate_set_orthogonality(family5, 5)


class TestCountEdgesBrute:
    def test_hand_counted_values(self):
        assert count_edges_brute(make_turan_graph(2, 4)) == 4
        assert count_edges_brute(make_turan_graph(1, 9)) == 0
        assert count_edges_brute(make_turan_graph(5, 5)) == 10

    def test_matches_formula_on_a_spread(self):
        for m, n in ((2, 7), (3, 12), (4, 21), (6, 30)):
            assert count_edges_brute(make_turan_graph(m, n)) == turan_edge_count(m, n)

    def test_only_complete_multipartite(self, family5):
        graph = build_partite_graph(superimpose(list(family5.squares[:2])))
        with pytest.raises(ValueError):
            count_edges_brute(graph)


class TestBruteForceMultiplicity:
    def test_matches_graph_edge_counts(self, family4, family5, family7):
        from collections import Counter
        for family, t in ((family4, 3), (family4, 4), (family5, 4), (family7, 3)):
            array = superimpose(list(family.squares[:t]))
            graph = build_partite_graph(array)
            pair_counts = brute_force_multiplicity(array)
            assert pair_counts == cell_pair_counts(array)
            assert Counter(graph.edges) == Counter(pair_counts)
            assert edge_multiplicity(graph).max_multiplicity == max(pair_counts.values())

    def test_order_4_triple_counts(self, family4):
        # Frozen from this enumeration: the n=4, t=3 stack has eight pairs
        # of multiplicity 2 and the rest single.
        counts = brute_force_multiplicity(superimpose(list(family4.squares[:3])))
        assert max(counts.values()) == 2
        assert sorted(counts.values()).count(2) == 8
        assert sum(counts.values()) == 32

    def test_works_without_orthogonality(self, family4):
        # The oracle counts pairs even for arrays the graph builder rejects.
        square = family4[0]
        array = superimpose([square, square])
        counts = brute_force_multiplicity(array)
        assert max(counts.values()) == 4    # each (x, x) pair appears once per row
        assert counts == cell_pair_counts(array)


class TestEnumerateLatinSquares:
    def test_counts_for_small_orders(self):
        assert len(enumerate_latin_squares(1)) == 1
        assert len(enumerate_latin_squares(2)) == 2
        assert len(enumerate_latin_squares(3)) == 12
        assert len(enumerate_latin_squares(4)) == 576

    def test_all_results_are_latin_and_distinct(self):
        squares = enumerate_latin_squares(3)
        assert all(validate_latin(square).ok for square in squares)
        assert len({square.cells for square in squares}) == 12

    def test_lexicographic_order(self):
        squares = enumerate_latin_squares(3)
        flattened = [sum(square.cells, ()) for square in squares]
        assert flattened == sorted(flattened)

    def test_bounded(self):
        with pytest.raises(ValueError):
            enumerate_latin_squares(5)
        with pytest.raises(ValueError):
            enumerate_latin_squares(0)


class TestExhaustiveMolsSearch:
    def test_no_orthogonal_pair_of_order_2(self):
        start = time.monotonic()
        result = exhaustive_mols_search(2, 2, 2)
        assert time.monotonic() - start < 10.0
        assert not result.found
        assert result.witness is None

    def test_orthogonal_pair_of_order_3_exists(self):
        start = time.monotonic()
        result = exhaustive_mols_search(3, 2, 2)
        assert time.monotonic() - start < 10.0
        assert result.found
        array = superimpose(list(result.witness.squares))
        assert brute_force_distinctness(array)

    def test_four_squares_of_order_4_with_orthogonal_triples(self):
        result = exhaustive_mols_search(4, 4, 3)
        assert result.found
        witness = result.witness
        assert len(witness) == 4
        for combo in itertools.combinations(range(4), 3):
            assert brute_force_distinctness(superimpose([witness[i] for i in combo]))

    def test_parameter_validation(self):
        # The enumeration is the search's one bound on n.
        with pytest.raises(ValueError, match="enumeration is bounded to order 4"):
            exhaustive_mols_search(5, 2, 2)
        with pytest.raises(ValueError, match="order must be at least 1"):
            exhaustive_mols_search(0, 2, 2)
        with pytest.raises(ValueError):
            exhaustive_mols_search(3, 2, 3)       # t > count
        with pytest.raises(ValueError):
            exhaustive_mols_search(3, 2, 1)

    def test_count_beyond_pool_size_is_unsatisfiable(self):
        result = exhaustive_mols_search(2, 3, 2)   # only 2 squares exist
        assert not result.found
