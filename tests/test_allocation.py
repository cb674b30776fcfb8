"""Blow-up filling and the allocation pipeline."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from spansphere import allocation
from spansphere.allocation import (
    Blowup,
    allocate,
    assign_edges_to_pairs,
    fill_blowup,
    min_part_requirements,
    min_part_size,
    supported_pairs,
)
from spansphere.complexes import CertLevel, verify_sphere
from spansphere.errors import (
    HallFailure,
    ParityFixImpossible,
    PartTooSmall,
    PreconditionFailed,
)
from spansphere.hypergraph import Hypergraph
from spansphere.matching import perfect_matching


def seeded_blowup(base, m, seed, spread=0, singleton=None):
    """Parts of size m (+- spread, seeded), consecutive vertex ids."""
    rng = random.Random(seed)
    parts, nxt = [], 0
    for x in range(base.n):
        size = 1 if x == singleton else m + (rng.randint(-spread, spread) if spread else 0)
        parts.append(tuple(range(nxt, nxt + size)))
        nxt += size
    return Blowup(base=base, parts=tuple(parts), singleton=singleton)


def disjoint_entry_facets(base, blowup, seed=0):
    rng = random.Random(seed)
    used = set()
    entry = {}
    for e in base.edges:
        facet = []
        for x in e:
            pool = [v for v in blowup.parts[x] if v not in used]
            v = rng.choice(pool)
            used.add(v)
            facet.append(v)
        entry[e] = tuple(sorted(facet))
    return entry


def check_fill_result(base, blowup, result):
    covered = set()
    for e, sphere in result.spheres.items():
        assert not (covered & sphere.vertex_set)
        covered |= sphere.vertex_set
        assert result.entry_facets[e] in sphere.facet_set
        for f in sphere.facets:
            assert blowup.project(f) == e
            assert blowup.has_edge(f)
    assert covered == blowup.vertex_set


class TestAssignEdgesToPairs:
    def test_k5(self, k5_3):
        out = assign_edges_to_pairs(k5_3)
        assert sorted(out) == sorted(supported_pairs(k5_3))
        assert len(set(out.values())) == 10
        for p, e in out.items():
            assert set(p) <= set(e)

    def test_k6(self, k6_3):
        out = assign_edges_to_pairs(k6_3)
        assert len(out) == 15
        assert len(set(out.values())) == 15

    def test_single_edge_pigeonhole(self):
        h = Hypergraph.from_edges(3, 3, [(0, 1, 2)])
        with pytest.raises(HallFailure) as err:
            assign_edges_to_pairs(h)
        assert len(err.value.violator) >= 2


class TestFillBlowup:
    def test_k5_parts_20(self, k5_3):
        b = seeded_blowup(k5_3, 20, seed=1)
        entry = disjoint_entry_facets(k5_3, b, seed=1)
        result = fill_blowup(k5_3, b, entry)
        check_fill_result(k5_3, b, result)
        assert result.e_star is None  # even leftover, all edges assigned
        for sphere in result.spheres.values():
            assert verify_sphere(sphere).level is CertLevel.FULL_DIM2

    def test_parity_case_k6(self, k6_3):
        # odd host order forces the three-part parity fix on a free edge
        b = seeded_blowup(k6_3, 40, seed=2)
        parts = list(b.parts)
        parts[0] = parts[0][:-1]  # make the total odd
        b = Blowup(base=k6_3, parts=tuple(parts))
        entry = disjoint_entry_facets(k6_3, b, seed=2)
        result = fill_blowup(k6_3, b, entry)
        check_fill_result(k6_3, b, result)
        assert result.e_star is not None
        assert sorted(result.shapes[result.e_star]) == [3, 3, 3]

    def test_shape_table(self, k6_3):
        b = seeded_blowup(k6_3, 40, seed=3, spread=3)
        entry = disjoint_entry_facets(k6_3, b, seed=3)
        result = fill_blowup(k6_3, b, entry)
        assignment = assign_edges_to_pairs(k6_3)
        assigned = set(assignment.values())
        for e, shape in result.shapes.items():
            if e == result.e_star:
                assert sorted(shape) == [3, 3, 3]
            elif e in assigned:
                # the wide parts hold exactly 2 + (routed matched pairs)
                ell = 2 + result.routed_pairs[e]
                assert sorted(shape) == sorted((2,) * (3 - 2) + (ell, ell)) or (
                    ell == 2 and shape == (2, 2, 2)
                )
            else:
                assert shape == (2, 2, 2)
                assert result.routed_pairs[e] == 0

    def test_isolated_vertex_rejected(self):
        h = Hypergraph.from_edges(3, 5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        b = seeded_blowup(h, 20, seed=4)
        entry = disjoint_entry_facets(h, b, seed=4)
        with pytest.raises(PreconditionFailed, match="isolated"):
            fill_blowup(h, b, entry)

    def test_part_too_small(self):
        h = Hypergraph.complete(3, 7)  # needs 2*15+3 = 33 per part
        b = seeded_blowup(h, 20, seed=5)
        entry = disjoint_entry_facets(h, b, seed=5)
        with pytest.raises(PartTooSmall):
            fill_blowup(h, b, entry)

    def test_k2_parity_impossible(self):
        h = Hypergraph.complete(2, 4)
        parts, nxt = [], 0
        for size in (9, 10, 10, 10):  # odd total
            parts.append(tuple(range(nxt, nxt + size)))
            nxt += size
        b = Blowup(base=h, parts=tuple(parts))
        entry = disjoint_entry_facets(h, b, seed=6)
        with pytest.raises(ParityFixImpossible):
            fill_blowup(h, b, entry)

    def test_k2_even_host(self):
        h = Hypergraph.complete(2, 4)
        b = seeded_blowup(h, 10, seed=7)
        entry = disjoint_entry_facets(h, b, seed=7)
        result = fill_blowup(h, b, entry)
        check_fill_result(h, b, result)
        for sphere in result.spheres.values():
            assert verify_sphere(sphere).level is CertLevel.FULL_DIM1


def random_disjoint_edges(blowup, seed, banned_bases=()):
    """Two blow-up edges over disjoint base edges, seeded."""
    rng = random.Random(seed)
    base = blowup.base
    while True:
        e1, e2 = rng.sample(base.edges, 2)
        if set(e1) & set(e2) or set(e1) & set(banned_bases) or set(e2) & set(banned_bases):
            continue
        f1 = tuple(sorted(rng.choice(blowup.parts[x]) for x in e1))
        f2 = tuple(sorted(rng.choice(blowup.parts[x]) for x in e2))
        return f1, f2


def check_allocation(blowup, result):
    rep = result.report
    assert rep.spanning
    assert rep.facets_in_host
    assert rep.f1_is_facet and rep.f2_is_facet
    assert rep.certificate.level is not CertLevel.REJECTED
    assert rep.ok


class TestAllocate:
    def test_k6_parts_40(self, k6_3):
        b = seeded_blowup(k6_3, 40, seed=11)
        f1, f2 = random_disjoint_edges(b, seed=11)
        result = allocate(k6_3, b, f1, f2)
        check_allocation(b, result)
        assert result.report.certificate.level is CertLevel.FULL_DIM2

    def test_singleton_stellar_route(self):
        # s = 7 < 3k+1: the small-base absorber kicks in
        base = Hypergraph.complete(3, 7)
        b = seeded_blowup(base, 40, seed=12, singleton=6)
        f1, f2 = random_disjoint_edges(b, seed=12, banned_bases=(6,))
        result = allocate(base, b, f1, f2)
        check_allocation(b, result)
        assert result.report.certificate.level is CertLevel.FULL_DIM2

    def test_singleton_paper_route(self):
        # s = 10 = 3k+1: the two-facet absorber of the construction runs
        base = Hypergraph.complete(3, 10)
        need = min_part_size(base)
        b = seeded_blowup(base, need, seed=13, singleton=9)
        f1, f2 = random_disjoint_edges(b, seed=13, banned_bases=(9,))
        result = allocate(base, b, f1, f2)
        check_allocation(b, result)

    def test_k4_allocation(self):
        base = Hypergraph.complete(4, 8)
        need = min_part_size(base)
        b = seeded_blowup(base, need, seed=14)
        f1, f2 = random_disjoint_edges(b, seed=14)
        result = allocate(base, b, f1, f2)
        check_allocation(b, result)
        assert result.report.certificate.level.at_least(CertLevel.LINK_VERIFIED)

    def test_k2_hamilton_cycle(self):
        base = Hypergraph.complete(2, 5)
        b = seeded_blowup(base, 14, seed=15)
        f1, f2 = random_disjoint_edges(b, seed=15)
        result = allocate(base, b, f1, f2)
        check_allocation(b, result)
        assert result.report.certificate.level is CertLevel.FULL_DIM1

    def test_overlapping_projections_rejected(self, k6_3):
        b = seeded_blowup(k6_3, 40, seed=16)
        f1 = tuple(b.parts[x][0] for x in (0, 1, 2))
        f2 = tuple(b.parts[x][1] for x in (2, 3, 4))
        with pytest.raises(PreconditionFailed):
            allocate(k6_3, b, f1, f2)

    def test_runs_at_computed_minimum(self, k6_3):
        reqs = min_part_requirements(k6_3)
        parts, nxt = [], 0
        for x in range(6):
            parts.append(tuple(range(nxt, nxt + reqs[x])))
            nxt += reqs[x]
        b = Blowup(base=k6_3, parts=tuple(parts))
        f1, f2 = random_disjoint_edges(b, seed=17)
        result = allocate(k6_3, b, f1, f2)
        check_allocation(b, result)

    def test_f1_f2_survive_gluing(self, k6_3):
        for seed in range(3):
            b = seeded_blowup(k6_3, 40, seed=seed + 30)
            f1, f2 = random_disjoint_edges(b, seed=seed + 30)
            result = allocate(k6_3, b, f1, f2)
            assert result.f1 in result.sphere.facet_set
            assert result.f2 in result.sphere.facet_set


class TestLeftoverMatching:
    @staticmethod
    def count_blossom(monkeypatch):
        """Leftover-graph sizes `fill_blowup` hands to blossom."""
        calls = []

        def spy(graph):
            calls.append(graph.n)
            return perfect_matching(graph)

        monkeypatch.setattr(allocation, "perfect_matching", spy)
        return calls

    def test_complete_shadow_skips_blossom(self, k6_3, monkeypatch):
        calls = self.count_blossom(monkeypatch)
        b = seeded_blowup(k6_3, 40, seed=11)
        f1, f2 = random_disjoint_edges(b, seed=11)
        check_allocation(b, allocate(k6_3, b, f1, f2))
        assert calls == []

    def test_non_complete_shadow_falls_back_to_blossom(self, monkeypatch):
        # K_6 minus a perfect matching: leftover vertices over the missing
        # pairs (0,1), (2,3), (4,5) are not adjacent
        missing = {(0, 1), (2, 3), (4, 5)}
        base = Hypergraph.from_edges(
            2, 6, [e for e in combinations(range(6), 2) if e not in missing]
        )
        assert min_part_size(base) == 16
        calls = self.count_blossom(monkeypatch)
        b = seeded_blowup(base, 16, seed=0)
        f1, f2 = random_disjoint_edges(b, seed=0)
        result = allocate(base, b, f1, f2)
        assert calls == [46]
        check_allocation(b, result)
        assert result.report.certificate.level is CertLevel.FULL_DIM1


class TestMinPartSizes:
    def test_reported_up_front(self, k6_3):
        reqs = min_part_requirements(k6_3)
        assert set(reqs) == set(range(6))
        assert all(v > 0 for v in reqs.values())
        assert min_part_size(k6_3) == max(reqs.values())

    def test_k6_fits_40(self, k6_3):
        assert min_part_size(k6_3) <= 40
