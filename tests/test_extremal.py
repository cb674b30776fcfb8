"""Property graphs, partite blow-up search, pigeonhole extraction."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from spansphere.errors import BadParams, BudgetExceeded, HypothesisFailed
from spansphere.extremal import (
    dirac_supported_property,
    find_partite_blowup,
    induced_subgraph,
    pigeonhole_blowup,
    property_graph,
    sample_property_rate,
)
from spansphere.hypergraph import Hypergraph

from conftest import brute_degree, random_hypergraph


def second_evaluator(h: Hypergraph, subset, epsilon: Fraction) -> bool:
    """Independent re-implementation of the built-in property: works on the
    raw edge list, no library degree machinery."""
    sub = set(subset)
    edges = [e for e in h.edges if set(e) <= sub]
    if not edges:
        return False
    touched = set()
    for e in edges:
        touched.update(e)
    if touched != sub:
        return False
    worst = None
    for ridge in combinations(sorted(sub), h.k - 1):
        d = sum(1 for e in edges if set(ridge) <= set(e))
        if d > 0 and (worst is None or d < worst):
            worst = d
    return 2 * worst >= (1 + 2 * epsilon) * len(sub)


class TestPropertyGraph:
    def test_complete_host(self):
        h = Hypergraph.complete(3, 8)
        p = dirac_supported_property(Fraction(1, 100), 3)
        pg = property_graph(h, p, 5)
        assert len(pg.edges) == comb(8, 5)

    def test_empty_host(self):
        h = Hypergraph(3, 8, ())
        p = dirac_supported_property(Fraction(1, 100), 3)
        assert property_graph(h, p, 5).edges == ()

    def test_dual_evaluator_agreement(self):
        eps = Fraction(1, 10)
        p = dirac_supported_property(eps, 3)
        for seed in (0, 1, 2):
            h = random_hypergraph(3, 12, 0.55, seed + 40)
            pg = property_graph(h, p, 6)
            oracle = {
                s
                for s in combinations(range(12), 6)
                if second_evaluator(h, s, eps)
            }
            assert set(pg.edges) == oracle

    def test_budget(self):
        h = Hypergraph.complete(3, 20)
        p = dirac_supported_property(Fraction(1, 10), 3)
        with pytest.raises(BudgetExceeded):
            property_graph(h, p, 10, budget=1000)

    def test_bad_params(self):
        h = Hypergraph.complete(3, 8)
        p = dirac_supported_property(Fraction(1, 10), 3)
        with pytest.raises(BadParams):
            property_graph(h, p, 2)


class TestSampleRate:
    def test_complete_rate_one(self):
        h = Hypergraph.complete(3, 12)
        assert sample_property_rate(h, Fraction(1, 10), 6, 40, seed=0) == 1

    def test_empty_rate_zero(self):
        h = Hypergraph(3, 12, ())
        assert sample_property_rate(h, Fraction(1, 10), 6, 40, seed=0) == 0

    def test_deterministic_in_seed(self):
        h = random_hypergraph(3, 14, 0.5, 77)
        a = sample_property_rate(h, Fraction(1, 10), 7, 60, seed=5)
        b = sample_property_rate(h, Fraction(1, 10), 7, 60, seed=5)
        assert a == b

    def test_with_fixed_vertices(self):
        h = Hypergraph.complete(3, 10)
        rate = sample_property_rate(h, Fraction(1, 10), 5, 30, seed=2, fixed=(0,))
        assert rate == 1


def brute_find_disjoint_pairs(g: Hypergraph):
    """Independent exhaustive search for two disjoint 2-sets with all four
    cross pairs being edges (the b=2, s=2 case)."""
    verts = range(g.n)
    for a in combinations(verts, 2):
        for b in combinations([v for v in verts if v not in a], 2):
            if all(g.has_edge((x, y)) for x in a for y in b):
                return a, b
    return None


class TestFindPartiteBlowup:
    def test_k44(self):
        g = Hypergraph.from_edges(2, 8, [(i, 4 + j) for i in range(4) for j in range(4)])
        found = find_partite_blowup(g, 2)
        assert found is not None
        u, v = found
        assert all(g.has_edge((x, y)) for x in u for y in v)

    def test_empty(self):
        assert find_partite_blowup(Hypergraph(2, 8, ()), 2) is None

    def test_dense_random_matches_oracle(self):
        for seed in (0, 1, 2, 3):
            g = random_hypergraph(2, 14, 0.9, seed + 60)
            mine = find_partite_blowup(g, 2)
            oracle = brute_find_disjoint_pairs(g)
            assert (mine is None) == (oracle is None)
            if mine is not None:
                u, v = mine
                assert all(g.has_edge((x, y)) for x in u for y in v)
                assert not set(u) & set(v)

    def test_three_uniform(self):
        g = Hypergraph.complete(3, 9)
        found = find_partite_blowup(g, 2)
        assert found is not None
        parts = found
        for tr in product(*parts):
            assert g.has_edge(tr)

    def test_budget(self):
        g = random_hypergraph(2, 20, 0.4, 123)
        with pytest.raises(BudgetExceeded):
            find_partite_blowup(g, 4, budget=10)

    @pytest.mark.parametrize("b", [0, -1])
    def test_part_size_below_one(self, b):
        with pytest.raises(BadParams, match="b >= 1"):
            find_partite_blowup(Hypergraph.complete(2, 4), b)


class TestPigeonhole:
    def test_single_colour(self):
        parts = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        edges = list(product(*parts))
        h = Hypergraph.from_edges(3, 9, edges)
        member = Hypergraph.complete(3, 3)
        result = pigeonhole_blowup(h, parts, [member], 2)
        assert result is not None
        got, blowup = result
        assert got.edges == member.edges
        for i, u in enumerate(blowup):
            assert set(u) <= set(parts[i])
            assert len(u) == 2

    def test_two_colours_majority(self):
        # transversals through vertex 0 induce nothing; the rest are edges
        parts = ((0, 1, 2), (3, 4, 5))
        edges = [(a, b) for a in (1, 2) for b in (3, 4, 5)]
        h = Hypergraph.from_edges(2, 6, edges)
        full = Hypergraph.from_edges(2, 2, [(0, 1)])
        empty = Hypergraph(2, 2, ())
        result = pigeonhole_blowup(h, parts, [full, empty], 2)
        assert result is not None
        got, blowup = result
        assert got.edges == full.edges  # 6 full transversals vs 3 empty
        u, v = blowup
        assert set(u) <= {1, 2} and set(v) <= {3, 4, 5}

    def test_hypothesis_failed(self):
        parts = ((0, 1), (2, 3))
        h = Hypergraph.from_edges(2, 4, [(0, 2)])
        member = Hypergraph.from_edges(2, 2, [(0, 1)])
        with pytest.raises(HypothesisFailed):
            pigeonhole_blowup(h, parts, [member], 1)

    @pytest.mark.parametrize("b", [0, -1])
    def test_part_size_below_one(self, b):
        parts = ((0, 1), (2, 3))
        member = Hypergraph.from_edges(2, 2, [(0, 1)])
        with pytest.raises(BadParams, match="b >= 1"):
            pigeonhole_blowup(Hypergraph.complete(2, 4), parts, [member], b)

    @pytest.mark.parametrize(
        "parts, message",
        [
            (((0, 1), (2, 4)), "vertex 4 of part 1 is outside 0..3"),
            (((-1, 1), (2, 3)), "vertex -1 of part 0 is outside 0..3"),
            (((0, 1), (1, 2)), "vertex 1 appears in part 0 and again in part 1"),
        ],
    )
    def test_parts_disjoint_inside_host(self, parts, message):
        member = Hypergraph.from_edges(2, 2, [(0, 1)])
        with pytest.raises(BadParams, match=message):
            pigeonhole_blowup(Hypergraph.complete(2, 4), parts, [member], 1)

    def test_consistency(self):
        parts = ((0, 1, 2, 3), (4, 5, 6, 7))
        h = Hypergraph.from_edges(2, 8, [(a, b) for a in range(4) for b in range(4, 8)])
        member = Hypergraph.from_edges(2, 2, [(0, 1)])
        result = pigeonhole_blowup(h, parts, [member], 2)
        got, blowup = result
        for i, u in enumerate(blowup):
            assert set(u) <= set(parts[i])
