"""Chain certificates, generation, verification, assembly, lower bounds."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from spansphere import allocation, chain
from spansphere.allocation import Blowup, min_part_size
from spansphere.chain import (
    ChainCertificate,
    LazyChainHost,
    generate_chain_host,
    lower_bound_codegree,
    lower_bound_tight_cycle,
    lower_bound_vertex_degree,
    spanning_sphere,
    verify_chain,
)
from spansphere.complexes import CertLevel, glue, is_spanning_copy, verify_sphere
from spansphere.errors import BadParams, ChainInvalid
from spansphere.hypergraph import Hypergraph, is_tightly_connected, tight_components

from conftest import brute_min_supported_codegree


PART_CACHE: dict[tuple[int, int], int] = {}


def part_size_for(k: int, s: int) -> int:
    if (k, s) not in PART_CACHE:
        PART_CACHE[(k, s)] = min_part_size(Hypergraph.complete(k, s))
    return PART_CACHE[(k, s)]


class TestGenerateAndVerify:
    def test_matrix(self):
        # s >= 2k where multiple links need disjoint entry/exit edges
        for k in (2, 3, 4):
            for s in range(k + 2, k + 5):
                for links in (1, 2, 3, 4):
                    if links > 1 and s < 2 * k:
                        with pytest.raises(BadParams):
                            generate_chain_host(k, s, links, part_size_for(k, s), seed=0)
                        continue
                    for seed in (0, 1):
                        inst = generate_chain_host(
                            k, s, links, part_size_for(k, s), seed=seed
                        )
                        report = verify_chain(inst.host, inst.certificate)
                        assert report.ok, (k, s, links, seed, report.violations)

    def test_single_link_degenerate(self):
        inst = generate_chain_host(3, 6, 1, part_size_for(3, 6), seed=5)
        assert inst.certificate.shared == ()
        assert verify_chain(inst.host, inst.certificate).ok

    def test_part_size_below_minimum(self):
        with pytest.raises(BadParams):
            generate_chain_host(3, 6, 2, 5, seed=0)

    def test_singleton_links(self):
        inst = generate_chain_host(3, 7, 3, part_size_for(3, 7), seed=2, singleton=True)
        assert all(link.singleton is not None for link in inst.certificate.links)
        assert verify_chain(inst.host, inst.certificate).ok

    def test_determinism(self):
        a = generate_chain_host(3, 6, 2, part_size_for(3, 6), seed=9)
        b = generate_chain_host(3, 6, 2, part_size_for(3, 6), seed=9)
        assert a.certificate == b.certificate


class TestVerifyChainViolations:
    def base_instance(self):
        return generate_chain_host(3, 6, 3, part_size_for(3, 6), seed=4)

    def test_nonconsecutive_overlap_flagged(self):
        inst = self.base_instance()
        cert = inst.certificate
        links = list(cert.links)
        # inject a vertex of link 0 into a part of link 2
        stolen = links[0].parts[5][-1]
        parts2 = list(links[2].parts)
        parts2[5] = tuple(sorted(parts2[5] + (stolen,)))
        links[2] = Blowup(base=links[2].base, parts=tuple(parts2))
        bad = ChainCertificate(
            links=tuple(links),
            shared=cert.shared,
            epsilon=cert.epsilon,
            gamma=cert.gamma,
            m1=cert.m1,
            m2=cert.m2,
        )
        report = verify_chain(inst.host, bad)
        assert any(num == 4 for num, _ in report.violations)

    def test_wrong_shared_set_flagged(self):
        inst = self.base_instance()
        cert = inst.certificate
        shared = list(cert.shared)
        other = next(
            v for v in cert.links[0].parts[0] if v not in shared[0]
        )
        shared[0] = tuple(sorted(shared[0][:-1] + (other,)))
        bad = ChainCertificate(
            links=cert.links,
            shared=tuple(shared),
            epsilon=cert.epsilon,
            gamma=cert.gamma,
            m1=cert.m1,
            m2=cert.m2,
        )
        report = verify_chain(inst.host, bad)
        assert any(num == 5 for num, _ in report.violations)

    def test_degree_property_flagged(self):
        inst = self.base_instance()
        cert = inst.certificate
        bad = ChainCertificate(
            links=cert.links,
            shared=cert.shared,
            epsilon=Fraction(10),
            gamma=cert.gamma,
            m1=cert.m1,
            m2=cert.m2,
        )
        report = verify_chain(inst.host, bad)
        assert any(num == 1 for num, _ in report.violations)

    def test_missing_transversal_flagged(self):
        inst = generate_chain_host(2, 4, 2, part_size_for(2, 4), seed=13)
        host = inst.host
        assert isinstance(host, Hypergraph)
        holed = Hypergraph.from_edges(host.k, host.n, host.edges[1:])
        report = verify_chain(holed, inst.certificate)
        assert [num for num, _ in report.violations] == [0]
        assert f"{host.edges[0]}" in report.violations[0][1]
        assert report.lines()[-1].startswith("membership: FAIL")


class TestSpanningSphere:
    def test_single_link_reduces_to_allocate(self):
        inst = generate_chain_host(3, 6, 1, part_size_for(3, 6), seed=6)
        sphere = spanning_sphere(inst.host, inst.certificate)
        assert is_spanning_copy(sphere, inst.host)
        assert verify_sphere(sphere, attempt_shelling=False).level is CertLevel.FULL_DIM2

    def test_three_links(self):
        inst = generate_chain_host(3, 6, 3, part_size_for(3, 6), seed=7)
        sphere = spanning_sphere(inst.host, inst.certificate)
        assert is_spanning_copy(sphere, inst.host)

    def test_shared_facets_survive(self):
        inst = generate_chain_host(3, 6, 3, part_size_for(3, 6), seed=8)
        sphere = spanning_sphere(inst.host, inst.certificate)
        # gluing consumes the shared facets
        for shared in inst.certificate.shared:
            assert shared not in sphere.facet_set

    def test_invalid_chain_rejected(self):
        inst = generate_chain_host(3, 6, 2, part_size_for(3, 6), seed=10)
        cert = inst.certificate
        bad = ChainCertificate(
            links=cert.links,
            shared=cert.shared,
            epsilon=Fraction(10),
            gamma=cert.gamma,
            m1=cert.m1,
            m2=cert.m2,
        )
        with pytest.raises(ChainInvalid):
            spanning_sphere(inst.host, bad)

    @pytest.mark.parametrize(
        "k, s, links, seed, singleton",
        [(3, 6, 3, 7, False), (3, 10, 1, 2, True), (3, 7, 2, 3, True)],
    )
    def test_one_glue_call_matches_one_piece_at_a_time(
        self, monkeypatch, k, s, links, seed, singleton
    ):
        # Every glue the assembly makes (fill spheres, the singleton's
        # absorber, the links) is replayed one piece per call.
        calls = []

        def recording_glue(base, pieces):
            pieces = list(pieces)
            calls.append((base, pieces, glue(base, pieces)))
            return calls[-1][2]

        monkeypatch.setattr(allocation, "glue", recording_glue)
        monkeypatch.setattr(chain, "glue", recording_glue)
        inst = generate_chain_host(k, s, links, part_size_for(k, s), seed=seed, singleton=singleton)
        spanning_sphere(inst.host, inst.certificate)
        assert any(len(pieces) > 1 for _, pieces, _ in calls)
        for base, pieces, together in calls:
            one_at_a_time = base
            for piece in pieces:
                one_at_a_time = glue(one_at_a_time, [piece])
            assert together == one_at_a_time

    @pytest.mark.slow
    def test_five_link_k4(self):
        inst = generate_chain_host(4, 8, 5, part_size_for(4, 8), seed=11)
        sphere = spanning_sphere(inst.host, inst.certificate)
        assert is_spanning_copy(sphere, inst.host)
        level = verify_sphere(sphere, attempt_shelling=False).level
        assert level.at_least(CertLevel.LINK_VERIFIED)


class TestChainFile:
    def test_round_trip(self, tmp_path):
        inst = generate_chain_host(3, 7, 2, part_size_for(3, 7), seed=12, singleton=True)
        path = tmp_path / "c.chain"
        inst.certificate.save(path)
        loaded = ChainCertificate.load(path)
        assert loaded == inst.certificate
        loaded.save(tmp_path / "c2.chain")
        assert (tmp_path / "c.chain").read_bytes() == (tmp_path / "c2.chain").read_bytes()


class TestLazyHost:
    def test_membership_agrees_with_materialized(self):
        inst = generate_chain_host(2, 4, 2, part_size_for(2, 4), seed=13)
        lazy = LazyChainHost(inst.certificate)
        host = inst.host
        assert isinstance(host, Hypergraph)
        assert lazy.n == host.n
        for e in host.edges[:200]:
            assert lazy.has_edge(e)
        assert not lazy.has_edge((0, 1)) or host.has_edge((0, 1))

    @pytest.mark.parametrize("k, s, links, seed", [(3, 6, 4, 21), (2, 6, 6, 22)])
    def test_indexed_membership_matches_all_links(self, k, s, links, seed):
        inst = generate_chain_host(k, s, links, part_size_for(k, s), seed=seed)
        cert = inst.certificate
        lazy = LazyChainHost(cert)

        def all_links(f):
            return any(link.has_edge(f) for link in cert.links)

        sphere = spanning_sphere(inst.host, cert)
        for f in sphere.facets:
            assert lazy.has_edge(f) is all_links(f) is True
        for shared in cert.shared:
            assert lazy.has_edge(shared) is all_links(shared) is True
        straddling = []
        for left, right in zip(cert.links, cert.links[1:]):
            only_left = sorted(left.vertex_set - right.vertex_set)
            only_right = sorted(right.vertex_set - left.vertex_set)
            straddling.append(tuple(only_left[: k - 1]) + (only_right[0],))
            straddling.append((only_right[0],) + tuple(only_left[: k - 1]))
            straddling.append((only_left[0],) + tuple(only_right[: k - 1]))
        for f in straddling:
            assert lazy.has_edge(f) is all_links(f) is False
        f = sphere.facets[0]
        for bad in ((lazy.n,) + f[1:], f[1:] + (lazy.n,), f[:-1], f + (lazy.n,), (f[0],) * k, ()):
            assert lazy.has_edge(bad) is all_links(bad) is False

    def test_spanning_copy_asks_at_most_two_links_per_facet(self, monkeypatch):
        inst = generate_chain_host(3, 6, 16, 31, seed=1)
        assert isinstance(inst.host, LazyChainHost)
        sphere = spanning_sphere(inst.host, inst.certificate)
        calls = 0
        has_edge = Blowup.has_edge

        def counted(self, f):
            nonlocal calls
            calls += 1
            return has_edge(self, f)

        monkeypatch.setattr(Blowup, "has_edge", counted)
        assert is_spanning_copy(sphere, inst.host)
        assert calls <= 2 * len(sphere.facets)


class TestLowerBoundCodegree:
    def test_delta_star_exact(self):
        for n in (10, 12, 14):
            host = lower_bound_codegree(3, n).host
            oracle = brute_min_supported_codegree(3, n, host.edges)
            assert oracle == n // 2 - 1
            assert host.min_supported_codegree() == oracle

    def test_two_components_after_removing_t_edges(self):
        for n in (10, 12, 14):
            host = lower_bound_codegree(3, n).host
            assert is_tightly_connected(host)
            pruned = Hypergraph.from_edges(
                3, n, [e for e in host.edges if not {0, 1} <= set(e)]
            )
            comps, _ = tight_components(pruned)
            assert len(comps) == 2

    def test_k4(self):
        host = lower_bound_codegree(4, 13).host
        d = host.min_supported_codegree()
        assert 13 // 2 - 4 <= d <= 13 // 2


class TestLowerBoundTightCycle:
    def test_k3_n9(self):
        host = lower_bound_tight_cycle(3, 9).host
        oracle = brute_min_supported_codegree(3, 9, host.edges)
        assert oracle == 4  # (1 - 1/k) n - (k-1)
        assert host.min_supported_codegree() == oracle

    def test_no_perfect_matching_exhaustive(self):
        host = lower_bound_tight_cycle(3, 9).host
        # exhaustive: any 3 disjoint edges would cover all 9 vertices
        for trio in combinations(host.edges, 3):
            assert len(set().union(*trio)) < 9 or any(
                set(a) & set(b) for a, b in combinations(trio, 2)
            )

    def test_k2_n8(self):
        host = lower_bound_tight_cycle(2, 8).host
        # |Y| = 5 > |X| = 3 and Y is independent: no perfect matching
        y = set(range(3, 8))
        assert all(not set(e) <= y for e in host.edges)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            lower_bound_tight_cycle(3, 10)


class TestLowerBoundVertexDegree:
    def test_n9_no_spanning_component(self):
        host = lower_bound_vertex_degree(9).host
        comps, _ = tight_components(host)
        assert all(len(set().union(*c)) < 9 for c in comps)

    def test_n12_degree_bound(self):
        host = lower_bound_vertex_degree(12).host
        from math import comb

        degrees = [host.degree((v,)) for v in range(12)]
        assert min(degrees) / comb(11, 2) >= 4 / 9 - 0.1

    def test_n6_well_formed(self):
        host = lower_bound_vertex_degree(6).host
        assert host.n == 6 and host.k == 3
        assert len(host.edges) > 0

    def test_bad_params(self):
        with pytest.raises(BadParams):
            lower_bound_vertex_degree(8)
