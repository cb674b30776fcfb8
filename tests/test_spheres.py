"""Partite spheres and doubly edge-covering path-blow-up spheres."""

from __future__ import annotations

import hashlib
import random

import pytest

from spansphere.complexes import CertLevel, euler_characteristic, verify_sphere
from spansphere.errors import BadParams
from spansphere.spheres import (
    PartiteHost,
    canonical_parts,
    check_doubly_covering,
    ladder_profile,
    partite_sphere_a,
    partite_sphere_b,
    thin_path_sphere,
    tight_path_blowup_sphere,
)


def spans_host(sphere, parts) -> bool:
    host = PartiteHost(k=len(parts), parts=tuple(tuple(p) for p in parts))
    return sphere.vertex_set == host.vertex_set and all(
        host.has_edge(f) for f in sphere.facets
    )


def designated_pin(build, k, ells, sizes):
    """Digest of the facets built for l in `ells`, each through a
    transversal of the canonical parts drawn with seed 100k + l."""
    out = []
    for ell in ells:
        rng = random.Random(100 * k + ell)
        designated = tuple(rng.choice(p) for p in canonical_parts(sizes(ell)))
        out.append(build(k, ell, designated=designated).facets)
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


class TestPartiteA:
    def test_k2_is_cycle(self):
        s = partite_sphere_a(2, 3)
        assert len(s.vertex_set) == 6 and len(s.facets) == 6
        assert verify_sphere(s).level is CertLevel.FULL_DIM1

    def test_k3_l2_is_octahedron(self):
        s = partite_sphere_a(3, 2)
        assert len(s.facets) == 8
        assert verify_sphere(s).level is CertLevel.FULL_DIM2

    def test_k4_l2(self):
        s = partite_sphere_a(4, 2)
        assert len(s.vertex_set) == 8 and len(s.facets) == 16
        assert euler_characteristic(s) == 0

    def test_facet_count_formula_and_spanning(self):
        for k in (2, 3, 4, 5):
            for ell in (2, 3, 4):
                s = partite_sphere_a(k, ell)
                assert len(s.facets) == 2 * ell * 2 ** (k - 2)
                sizes = (2,) * (k - 2) + (ell, ell)
                assert spans_host(s, canonical_parts(sizes))

    def test_designated_facet(self):
        sizes = (2, 3, 3)
        parts = canonical_parts(sizes)
        designated = (1, 3, 7)
        s = partite_sphere_a(3, 3, designated=designated)
        assert tuple(sorted(designated)) in s.facet_set
        assert spans_host(s, parts)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            partite_sphere_a(3, 1)
        with pytest.raises(BadParams):
            partite_sphere_a(1, 3)

    @pytest.mark.parametrize("designated", [(1,), (1, 3), (1, 3, 7, 8)])
    def test_designated_needs_one_vertex_per_part(self, designated):
        with pytest.raises(BadParams, match="designated"):
            partite_sphere_a(3, 3, designated=designated)

    @pytest.mark.parametrize(
        "k, digest",
        [
            (2, "df0ae8c46c97cb79"),
            (3, "887edd0e561ed5df"),
            (4, "98ffc094ce9e62a6"),
            (5, "b1f8adbd5f38ebc3"),
            (6, "589597e662eb8853"),
        ],
    )
    def test_output_pinned(self, k, digest):
        # the facets through seeded designated transversals, l = 2..6
        sizes = lambda ell: (2,) * (k - 2) + (ell, ell)
        assert designated_pin(partite_sphere_a, k, range(2, 7), sizes) == digest


class TestPartiteB:
    def test_k3_l3(self):
        s = partite_sphere_b(3, 3)
        assert len(s.vertex_set) == 9 and len(s.facets) == 14
        assert euler_characteristic(s) == 2
        assert verify_sphere(s).level is CertLevel.FULL_DIM2

    def test_k3_l4(self):
        s = partite_sphere_b(3, 4)
        assert len(s.vertex_set) == 11 and len(s.facets) == 18
        assert euler_characteristic(s) == 2

    def test_k4_l3(self):
        s = partite_sphere_b(4, 3)
        assert len(s.vertex_set) == 11 and len(s.facets) == 28
        assert euler_characteristic(s) == 0

    def test_facet_count_formula_and_spanning(self):
        for k in (3, 4, 5):
            for ell in (3, 4):
                s = partite_sphere_b(k, ell)
                assert len(s.facets) == (4 * ell + 2) * 2 ** (k - 3)
                sizes = (2,) * (k - 3) + (3, ell, ell)
                assert spans_host(s, canonical_parts(sizes))

    def test_designated_facet(self):
        sizes = (2, 3, 4, 4)
        parts = canonical_parts(sizes)
        designated = (0, 4, 8, 9)
        s = partite_sphere_b(4, 4, designated=designated)
        assert tuple(sorted(designated)) in s.facet_set
        assert spans_host(s, parts)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            partite_sphere_b(3, 2)
        with pytest.raises(BadParams):
            partite_sphere_b(2, 3)

    @pytest.mark.parametrize("designated", [(0, 4, 8), (0, 4, 8, 9, 10)])
    def test_designated_needs_one_vertex_per_part(self, designated):
        with pytest.raises(BadParams, match="designated"):
            partite_sphere_b(4, 4, designated=designated)

    @pytest.mark.parametrize(
        "k, digest",
        [
            (3, "d43136127e0b6bc2"),
            (4, "e7e398ea8cca3ecf"),
            (5, "5243a240a4590e9a"),
            (6, "8b612c0dadbbf7a5"),
        ],
    )
    def test_output_pinned(self, k, digest):
        # the facets through seeded designated transversals, l = 3..6
        sizes = lambda ell: (2,) * (k - 3) + (3, ell, ell)
        assert designated_pin(partite_sphere_b, k, range(3, 7), sizes) == digest


class TestThinPath:
    def test_k2_families(self):
        d = thin_path_sphere(2)
        assert len(d.sphere.facets) == 4
        assert check_doubly_covering(d) == []

    def test_k3_is_octahedron(self):
        d = thin_path_sphere(3)
        assert len(d.sphere.vertex_set) == 6 and len(d.sphere.facets) == 8
        assert verify_sphere(d.sphere).level is CertLevel.FULL_DIM2
        assert check_doubly_covering(d) == []

    def test_k5_counts(self):
        d = thin_path_sphere(5)
        assert len(d.sphere.vertex_set) == 10
        assert len(d.sphere.facets) == 2 * 2 ** (5 - 1)
        assert check_doubly_covering(d) == []

    def test_profile(self):
        for k in (2, 3, 4):
            d = thin_path_sphere(k)
            assert d.blowup.profile == (1,) + (2,) * (k - 1) + (1,)


class TestGrowPath:
    def test_grow_thin_3(self):
        d = tight_path_blowup_sphere(3, 5)
        assert d.blowup.profile == (1, 2, 3, 2, 1)
        assert len(d.sphere.vertex_set) == 9
        assert check_doubly_covering(d) == []
        assert verify_sphere(d.sphere).level is CertLevel.FULL_DIM2

    def test_grow_twice(self):
        d = tight_path_blowup_sphere(3, 6)
        assert d.blowup.profile == (1, 2, 3, 3, 2, 1)
        assert len(d.sphere.vertex_set) == 12
        assert check_doubly_covering(d) == []

    def test_families_disjoint_after_growth(self):
        for length in (6, 7, 8):
            d = tight_path_blowup_sphere(4, length)
            for fam in (d.family_f, d.family_fp):
                seen = set()
                for facet in fam.values():
                    assert not (seen & set(facet))
                    seen.update(facet)


class TestTightPathBlowupSphere:
    def test_k2_l3(self):
        d = tight_path_blowup_sphere(2, 3)
        assert d.blowup.profile == (1, 2, 1)
        assert max(d.blowup.profile) <= 2
        assert check_doubly_covering(d) == []

    def test_k3_l5(self):
        d = tight_path_blowup_sphere(3, 5)
        assert d.blowup.profile == (1, 2, 3, 2, 1)
        assert len(d.sphere.vertex_set) == 9

    def test_k3_l4_is_thin(self):
        d = tight_path_blowup_sphere(3, 4)
        assert len(d.sphere.vertex_set) == 6

    def test_profile_matches_ladder(self):
        for k in (2, 3, 4):
            for length in range(k + 1, k + 6):
                d = tight_path_blowup_sphere(k, length)
                assert d.blowup.profile == ladder_profile(k, length)
                assert max(d.blowup.profile) <= k

    def test_bad_params(self):
        with pytest.raises(BadParams):
            tight_path_blowup_sphere(3, 3)

    @pytest.mark.parametrize(
        "k, length, digest, facets",
        [
            (2, 40, "4de73c3b674f0934", 78),
            (3, 24, "9017fb392cc66a6e", 128),
            (4, 20, "ca58a6c4b44301ea", 226),
            (5, 12, "26ecdbd99cfb2d61", 212),
        ],
    )
    def test_output_pinned(self, k, length, digest, facets):
        # facets, parts and both families, dict order included, as built
        # by gluing one thin-path sphere per step
        d = tight_path_blowup_sphere(k, length)
        state = (
            d.sphere.facets,
            d.blowup.parts,
            list(d.family_f.items()),
            list(d.family_fp.items()),
        )
        assert len(d.sphere.facets) == facets
        assert hashlib.sha256(repr(state).encode()).hexdigest()[:16] == digest


class TestDoublyCoveringMatrix:
    def test_small_matrix(self):
        for k in (2, 3, 4):
            for length in range(k + 1, k + 6):
                d = tight_path_blowup_sphere(k, length)
                assert check_doubly_covering(d) == [], (k, length)
                assert verify_sphere(d.sphere).level is not CertLevel.REJECTED
