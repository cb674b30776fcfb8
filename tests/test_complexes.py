"""Simplicial complexes: suspension, gluing, subdivision, verification."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spansphere.complexes import (
    CertLevel,
    SimplicialComplex,
    all_faces,
    euler_characteristic,
    glue,
    is_pseudomanifold,
    is_shelling_order,
    is_spanning_copy,
    subdivide_facet,
    suspension,
    verify_sphere,
)
from spansphere.errors import (
    BadOverlap,
    DimMismatch,
    MissingFacet,
    WrongDim,
)
from spansphere.hypergraph import Hypergraph


def two_points():
    return SimplicialComplex.from_facets([(0,), (1,)])


def four_cycle():
    return SimplicialComplex.from_facets([(0, 1), (1, 2), (2, 3), (0, 3)])


def octahedron():
    return suspension(four_cycle())


def tetra_boundary(vertices=(0, 1, 2, 3)):
    return SimplicialComplex.from_facets(combinations(vertices, 3))


def torus_7():
    """The 7-vertex 14-triangle torus triangulation: orbits of {0,1,3} and
    {0,2,3} under i -> i+1 (mod 7)."""
    facets = []
    for i in range(7):
        facets.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        facets.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex.from_facets(facets)


def brute_shelling_check(order, dim) -> bool:
    """Independent shelling validation: the intersection of each new facet
    with the union of its predecessors must be a nonempty union of its
    (dim-1)-subsets."""
    for i in range(1, len(order)):
        new = set(order[i])
        prev_faces = set()
        for f in order[:i]:
            for size in range(1, len(f) + 1):
                prev_faces.update(combinations(f, size))
        inter_faces = {
            face
            for face in prev_faces
            if set(face) <= new
        }
        if not inter_faces:
            return False
        maximal = {face for face in inter_faces if len(face) == dim}
        if not maximal:
            return False
        for face in inter_faces:
            if not any(set(face) <= set(m) for m in maximal):
                return False
    return True


class TestSuspension:
    def test_s0_gives_4_cycle(self):
        s = suspension(two_points())
        assert s.dim == 1 and len(s.facets) == 4
        assert verify_sphere(s).level is CertLevel.FULL_DIM1

    def test_4_cycle_gives_octahedron(self):
        o = octahedron()
        assert len(o.vertex_set) == 6 and len(o.facets) == 8
        assert euler_characteristic(o) == 2
        assert verify_sphere(o).level is CertLevel.FULL_DIM2

    def test_octahedron_gives_16_cell(self):
        c = suspension(octahedron())
        assert len(c.vertex_set) == 8 and len(c.facets) == 16
        assert euler_characteristic(c) == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_euler_and_facet_relations(self, seed):
        import random

        rng = random.Random(seed)
        facets = {
            tuple(sorted(rng.sample(range(8), 3))) for _ in range(rng.randint(1, 10))
        }
        k = SimplicialComplex.from_facets(facets)
        s = suspension(k)
        assert len(s.facets) == 2 * len(k.facets)
        assert euler_characteristic(s) == 2 - euler_characteristic(k)

    def test_suspension_of_verified_sphere_not_rejected(self):
        level = verify_sphere(suspension(suspension(octahedron()))).level
        assert level is not CertLevel.REJECTED


class TestGlue:
    def test_two_tetrahedra(self):
        a = tetra_boundary((0, 1, 2, 3))
        b = tetra_boundary((0, 1, 2, 4))
        g = glue(a, [(b, (0, 1, 2))])
        assert len(g.vertex_set) == 5 and len(g.facets) == 6
        assert euler_characteristic(g) == 2
        assert verify_sphere(g).level is CertLevel.FULL_DIM2

    def test_two_4_cycles_share_edge(self):
        a = four_cycle()
        b = SimplicialComplex.from_facets([(0, 4), (4, 5), (5, 1), (0, 1)])
        g = glue(a, [(b, (0, 1))])
        assert len(g.facets) == 6
        assert verify_sphere(g).level is CertLevel.FULL_DIM1

    def test_bad_overlap(self):
        a = tetra_boundary((0, 1, 2, 3))
        b = tetra_boundary((0, 1, 2, 3))  # full overlap
        with pytest.raises(BadOverlap):
            glue(a, [(b, (0, 1, 2))])

    def test_missing_facet(self):
        a = tetra_boundary((0, 1, 2, 3))
        b = tetra_boundary((4, 5, 6, 7))
        with pytest.raises(MissingFacet):
            glue(a, [(b, (0, 1, 2))])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            glue(four_cycle(), [(tetra_boundary(), (0, 1))])

    @pytest.mark.parametrize(
        "second, facet, error",
        [
            ((0, 1, 3, 4), (0, 1, 3), BadOverlap),  # also meets the first piece's 4
            ((0, 1, 2, 5), (0, 1, 2), MissingFacet),  # facet dropped by the first gluing
        ],
    )
    def test_bad_second_piece(self, second, facet, error):
        a = tetra_boundary((0, 1, 2, 3))
        first = (tetra_boundary((0, 1, 2, 4)), (0, 1, 2))
        bad = (tetra_boundary(second), facet)
        with pytest.raises(error):
            glue(a, [first, bad])
        with pytest.raises(error):
            glue(glue(a, [first]), [bad])


class TestSubdivision:
    def test_tetrahedron(self):
        t = tetra_boundary()
        s = subdivide_facet(t, (0, 1, 2))
        assert len(s.vertex_set) == 7 and len(s.facets) == 10
        assert euler_characteristic(s) == 2
        closed, connected = is_pseudomanifold(s)
        assert closed and connected

    def test_twice_disjoint(self):
        t = SimplicialComplex.from_facets(
            list(combinations((0, 1, 2, 3), 3))
        )
        s = subdivide_facet(t, (0, 1, 2))
        s2 = subdivide_facet(s, (0, 1, 3))
        assert euler_characteristic(s2) == 2

    def test_missing_facet(self):
        with pytest.raises(MissingFacet):
            subdivide_facet(tetra_boundary(), (0, 1, 4))

    def test_wrong_dim(self):
        with pytest.raises(WrongDim):
            subdivide_facet(four_cycle(), (0, 1))


class TestEuler:
    def test_octahedron(self):
        assert euler_characteristic(octahedron()) == 2

    def test_6_cycle(self):
        c = SimplicialComplex.from_facets(
            [(i, (i + 1) % 6) for i in range(6)]
        )
        assert euler_characteristic(c) == 0

    def test_16_cell(self):
        c = suspension(octahedron())
        faces = all_faces(c)
        total = sum((-1) ** d * len(faces[d]) for d in faces)
        assert total == 0 == euler_characteristic(c)


class TestPseudomanifold:
    def test_octahedron(self):
        assert is_pseudomanifold(octahedron()) == (True, True)

    def test_disjoint_triangles_as_1_complex(self):
        c = SimplicialComplex.from_facets(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        closed, connected = is_pseudomanifold(c)
        assert closed and not connected

    def test_overfull_ridge(self):
        c = SimplicialComplex.from_facets(
            list(combinations((0, 1, 2, 3), 3)) + [(0, 1, 4)]
        )
        closed, _ = is_pseudomanifold(c)
        assert not closed


class TestVerifySphere:
    def test_octahedron_full(self):
        assert verify_sphere(octahedron()).level is CertLevel.FULL_DIM2

    def test_torus_rejected(self):
        cert = verify_sphere(torus_7())
        assert cert.level is CertLevel.REJECTED
        assert cert.euler == 0

    def test_16_cell_shelled(self):
        cert = verify_sphere(suspension(octahedron()))
        assert cert.level is CertLevel.SHELLED
        assert cert.shelling_order is not None
        assert brute_shelling_check(cert.shelling_order, 3)
        assert is_shelling_order(cert.shelling_order, 3)

    def test_two_points(self):
        assert verify_sphere(two_points()).level is CertLevel.FULL_DIM1

    def test_broken_cycle_rejected(self):
        c = SimplicialComplex.from_facets([(0, 1), (1, 2), (2, 3)])
        assert verify_sphere(c).level is CertLevel.REJECTED

    def test_link_recursion_without_shelling(self):
        cert = verify_sphere(suspension(octahedron()), attempt_shelling=False)
        assert cert.level is CertLevel.LINK_VERIFIED

    def test_disjoint_spheres_rejected(self):
        c = SimplicialComplex.from_facets(
            list(combinations((0, 1, 2, 3), 3)) + list(combinations((4, 5, 6, 7), 3))
        )
        assert verify_sphere(c).level is CertLevel.REJECTED


class TestSpanningCopy:
    def test_simplex_boundary_spans_complete(self):
        for k in (2, 3, 4):
            host = Hypergraph.complete(k, k + 1)
            c = SimplicialComplex.from_facets(combinations(range(k + 1), k))
            assert is_spanning_copy(c, host)

    def test_missing_vertex(self):
        host = Hypergraph.complete(3, 5)
        c = SimplicialComplex.from_facets(combinations(range(4), 3))
        assert not is_spanning_copy(c, host)

    def test_foreign_facet(self):
        host = Hypergraph.from_edges(3, 4, [(0, 1, 2)])
        c = tetra_boundary()
        assert not is_spanning_copy(c, host)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            is_spanning_copy(four_cycle(), Hypergraph.complete(3, 4))


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        o = octahedron()
        path = tmp_path / "o.sc"
        o.save(path)
        assert SimplicialComplex.load(path) == o

    def test_parse_error(self, tmp_path):
        from spansphere.errors import ParseError

        path = tmp_path / "bad.sc"
        path.write_text("2 4\n0 1\n")
        with pytest.raises(ParseError):
            SimplicialComplex.load(path)
