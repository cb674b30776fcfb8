"""Matching primitives: Hall saturation with witnesses, exact perfect
matchings, brute-force oracle equivalence."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spansphere
from spansphere.hypergraph import Hypergraph
from spansphere.matching import (
    BipartiteInstance,
    MatchKind,
    hall_matching,
    matching_is_valid,
    maximum_matching,
    multipartite_perfect_matching,
    perfect_matching,
)

from conftest import brute_max_matching_size, random_hypergraph


def brute_bipartite_saturating(left, adjacency) -> bool:
    """Exhaustive check that a left-saturating matching exists."""

    def extend(i, used):
        if i == len(left):
            return True
        for r in adjacency.get(left[i], ()):
            if r not in used:
                if extend(i + 1, used | {r}):
                    return True
        return False

    return extend(0, frozenset())


def cycle_graph(n):
    return Hypergraph.from_edges(2, n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Hypergraph.from_edges(2, 10, outer + spokes + inner)


class TestHallMatching:
    def test_single_left(self):
        inst = BipartiteInstance(("a",), ("x", "y"), {"a": ("x", "y")})
        res = hall_matching(inst)
        assert res.kind is MatchKind.SATURATING
        assert len(res.pairs) == 1

    def test_violator(self):
        inst = BipartiteInstance(("a", "b"), ("x",), {"a": ("x",), "b": ("x",)})
        res = hall_matching(inst)
        assert res.kind is MatchKind.HALL_VIOLATOR
        assert set(res.violator) == {"a", "b"}

    def test_k5_pair_edge_instance(self, k5_3):
        pairs = list(combinations(range(5), 2))
        adjacency = {p: tuple(e for e in k5_3.edges if set(p) <= set(e)) for p in pairs}
        assert brute_bipartite_saturating(pairs, adjacency)
        res = hall_matching(BipartiteInstance(tuple(pairs), k5_3.edges, adjacency))
        assert res.kind is MatchKind.SATURATING
        assert len(res.pairs) == 10
        matched = [e for _, e in res.pairs]
        assert len(set(matched)) == 10
        for p, e in res.pairs:
            assert set(p) <= set(e)

    def test_violator_neighbourhood_deficient(self):
        import random

        for seed in range(20):
            rng = random.Random(seed)
            left = tuple(range(6))
            right = tuple("rstuv")
            adjacency = {
                l: tuple(r for r in right if rng.random() < 0.3) for l in left
            }
            res = hall_matching(BipartiteInstance(left, right, adjacency))
            if res.kind is MatchKind.HALL_VIOLATOR:
                nbhd = set()
                for w in res.violator:
                    nbhd.update(adjacency[w])
                assert len(nbhd) < len(res.violator)
                assert not brute_bipartite_saturating(list(left), adjacency)
            else:
                assert brute_bipartite_saturating(list(left), adjacency)


class TestPerfectMatching:
    def test_c4(self):
        res = perfect_matching(cycle_graph(4))
        assert res.kind is MatchKind.PERFECT
        assert len(res.pairs) == 2

    def test_c5_odd(self):
        res = perfect_matching(cycle_graph(5))
        assert res.kind is MatchKind.NO_PERFECT

    def test_petersen(self):
        g = petersen()
        assert brute_max_matching_size(10, g.edges) == 5
        res = perfect_matching(g)
        assert res.kind is MatchKind.PERFECT
        assert matching_is_valid(g, res.pairs)

    def test_dirac_regime(self):
        # every even-order graph with min degree >= n/2 has a perfect matching
        for seed in range(30):
            h = random_hypergraph(2, 12 + 2 * (seed % 5), 0.75, seed + 2000)
            deg = [h.degree((v,)) for v in range(h.n)]
            if min(deg) < h.n / 2:
                continue
            res = perfect_matching(h)
            assert res.kind is MatchKind.PERFECT
            assert matching_is_valid(h, res.pairs)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_oracle_equivalence_small(self, seed):
        h = random_hypergraph(2, 9, 0.4, seed)
        assert len(maximum_matching(h)) == brute_max_matching_size(h.n, h.edges)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pairs_are_disjoint_edges(self, seed):
        h = random_hypergraph(2, 10, 0.5, seed)
        assert matching_is_valid(h, maximum_matching(h))


def complete_multipartite(sizes):
    """Classes of consecutive vertex ids and the explicit graph joining
    every two vertices of different classes."""
    classes, nxt = [], 0
    for size in sizes:
        classes.append(list(range(nxt, nxt + size)))
        nxt += size
    edges = [(u, w) for a, b in combinations(classes, 2) for u in a for w in b]
    return classes, Hypergraph.from_edges(2, nxt, edges)


class TestMultipartitePerfectMatching:
    def test_two_largest_first(self):
        # ties go to the lower class index, each class gives its least vertex
        res = multipartite_perfect_matching([[0, 1], [3, 2], [4, 5]])
        assert res.kind is MatchKind.PERFECT
        assert res.pairs == ((0, 2), (1, 4), (3, 5))

    def test_dominant_class(self):
        res = multipartite_perfect_matching([[0, 1, 2, 3], [4], [5]])
        assert res.kind is MatchKind.NO_PERFECT
        assert res.pairs == ((0, 4), (1, 5))

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(0, 25), min_size=1, max_size=10))
    def test_agrees_with_blossom(self, sizes):
        classes, g = complete_multipartite(sizes)
        res = multipartite_perfect_matching(classes)
        blossom = perfect_matching(g)
        assert res.kind is blossom.kind
        assert matching_is_valid(g, res.pairs)
        class_of = {v: i for i, c in enumerate(classes) for v in c}
        assert all(class_of[a] != class_of[b] for a, b in res.pairs)
        if res.kind is MatchKind.PERFECT:
            assert {v for p in res.pairs for v in p} == set(range(g.n))
        else:
            assert len(res.pairs) == len(blossom.pairs)
            assert len(res.pairs) == min(g.n // 2, g.n - max(sizes))
        assert multipartite_perfect_matching(classes) == res


def test_chain_import_leaves_networkx_unloaded():
    """networkx is loaded by the blossom fallback only, not on import."""
    src = str(Path(spansphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, spansphere.chain; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
