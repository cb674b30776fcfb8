"""Seeded inputs for the benchmark workloads.

Nothing here imports spansphere.  Chain workloads are described by the
parameters handed to `generate_chain_host`; the checker workload is a list of
simplicial complexes built from textbook constructions, each with the verdict
it must receive known from how it was built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

Facet = tuple[int, ...]


@dataclass(frozen=True)
class ChainSpec:
    """One `spansphere pipeline` instance: a chain of blow-ups of K_s^(k)."""

    label: str
    k: int
    s: int
    links: int
    part_size: int
    seed: int
    singleton: bool = False
    materialize: bool = False
    jobs: int = 1


# Part sizes are the allocation minimum for each base (checked once by hand
# with `spansphere.allocation.min_part_size`), so every link is as small as
# the construction allows and the chain length sets the scale.
def chain_round(workload: str, seed: int) -> list[ChainSpec]:
    """The pipeline instances of one round; every round repeats them."""
    if workload == "chain_k3":
        return [ChainSpec("k3_s6_links16", 3, 6, 16, 31, seed, jobs=2)]
    if workload == "wide_link":
        # Blossom matching on a K_10^(3) link took from 0.22 s to 0.64 s
        # between seeds at equal size, so a round averages three of them.
        return [
            ChainSpec(f"k3_s10_singleton_{i}", 3, 10, 1, 87, seed + i, singleton=True)
            for i in range(3)
        ] + [ChainSpec("k4_s8", 4, 8, 1, 97, seed + 3)]
    if workload == "dense_host":
        return [
            ChainSpec("k2_s6_links40", 2, 6, 40, 18, seed, materialize=True),
            ChainSpec("k3_s6_links2", 3, 6, 2, 31, seed + 1, materialize=True),
        ]
    raise ValueError(f"no chain round for workload {workload!r}")


def warmup_specs(workload: str) -> list[ChainSpec]:
    """Small instances run at set-up, so that first-call costs (imports done
    inside functions, the thread pool) fall outside the timed rounds."""
    return [
        ChainSpec("warm_k2", 2, 4, 2, 14, 0, materialize=workload == "dense_host", jobs=2),
        ChainSpec("warm_k3", 3, 6, 2, 31, 0, materialize=False, jobs=2),
    ]


# ---------------------------------------------------------------- complexes


@dataclass(frozen=True)
class MixItem:
    """A complex of the checker workload and the verdict it must get."""

    name: str
    dim: int
    facets: tuple[Facet, ...]
    sphere: bool


def _canon(facets) -> tuple[Facet, ...]:
    return tuple(sorted({tuple(sorted(f)) for f in facets}))


def _vertices(facets) -> list[int]:
    return sorted({v for f in facets for v in f})


def _shift(facets, by: int) -> list[Facet]:
    return [tuple(v + by for v in f) for f in facets]


def _next_free(facets) -> int:
    return max(v for f in facets for v in f) + 1


def simplex_boundary(d: int) -> list[Facet]:
    """Boundary of the (d+1)-simplex, a d-sphere on d+2 vertices."""
    return list(combinations(range(d + 2), d + 1))


def cross_polytope(d: int) -> list[Facet]:
    """Boundary of the (d+1)-dimensional cross-polytope: 2^(d+1) facets."""
    return [tuple(2 * i + b for i, b in enumerate(bits)) for bits in product((0, 1), repeat=d + 1)]


def cycle(m: int) -> list[Facet]:
    return [(i, (i + 1) % m) for i in range(m)]


def join(a: list[Facet], b: list[Facet]) -> list[Facet]:
    """Join on disjoint vertex sets: dim(a) + dim(b) + 1."""
    off = _next_free(a)
    return [fa + fb for fa in a for fb in _shift(b, off)]


def suspension(a: list[Facet]) -> list[Facet]:
    return join(a, [(0,), (1,)])


def stacked_sphere(d: int, vertices: int, rng: random.Random) -> list[Facet]:
    """Stacked d-sphere: start from the simplex boundary and repeatedly cone
    a random facet over a fresh vertex."""
    facets = simplex_boundary(d)
    for v in range(d + 2, vertices):
        i = rng.randrange(len(facets))
        f = facets[i]
        cone = [f[:j] + f[j + 1 :] + (v,) for j in range(d + 1)]
        facets[i] = cone[0]
        facets.extend(cone[1:])
    return facets


def torus_grid(a: int, b: int) -> list[Facet]:
    """a x b grid on the torus, each square cut along a diagonal; chi = 0."""
    out = []
    for i in range(a):
        for j in range(b):
            p, q = i * b + j, i * b + (j + 1) % b
            r, s = ((i + 1) % a) * b + j, ((i + 1) % a) * b + (j + 1) % b
            out += [(p, q, s), (p, r, s)]
    return out


def torus_7() -> list[Facet]:
    """Moebius' 7-vertex torus: orbits of {0,1,3} and {0,2,3} mod 7."""
    return [t for i in range(7) for t in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))]


def rp2_6() -> list[Facet]:
    """The 6-vertex real projective plane (hemi-icosahedron); chi = 1."""
    return [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]


def disjoint_union(a: list[Facet], b: list[Facet]) -> list[Facet]:
    return a + _shift(b, _next_free(a))


def wedge(a: list[Facet], b: list[Facet]) -> list[Facet]:
    """Two complexes sharing exactly one vertex (the last of a, 0 of b)."""
    off = _next_free(a) - 1
    return a + _shift(b, off)


def minus_facet(a: list[Facet], rng: random.Random) -> list[Facet]:
    out = list(a)
    out.pop(rng.randrange(len(out)))
    return out


def relabel(facets, rng: random.Random) -> tuple[Facet, ...]:
    """Random bijection of the vertices onto 0..n-1, so that vertex order in
    the file carries no structure."""
    verts = _vertices(facets)
    image = list(range(len(verts)))
    rng.shuffle(image)
    to = dict(zip(verts, image))
    return _canon(tuple(to[v] for v in f) for f in facets)


def verify_mix(seed: int) -> list[MixItem]:
    """The complexes of one round of the checker workload.

    The counts of each kind are fixed; the seed picks sizes within each
    kind's range, the stacking choices and the vertex labels.
    """
    rng = random.Random(seed)
    items: list[MixItem] = []

    def add(name: str, facets, sphere: bool, copies: int = 1):
        for c in range(copies):
            fs = facets() if callable(facets) else facets
            canon = relabel(fs, rng)
            items.append(MixItem(f"{name}.{c}", len(canon[0]) - 1, canon, sphere))

    r = rng.randint
    # Small complexes have fixed sizes, large ones vary by about 5%, so every
    # seed gives a round of about the same cost and the median verdict falls
    # among complexes of the same size.  The ten 5-simplex boundaries sit just
    # below the six slowest verdicts, which puts the 90th percentile inside
    # their block.
    # dimension 1: cycles up to 10^4 facets; parsing dominates
    add("cycle_small", cycle(35), True, 11)
    add("cycle_large", lambda: cycle(r(9500, 10000)), True, 1)
    add("two_cycles", disjoint_union(cycle(17), cycle(18)), False, 3)
    add("figure_eight", wedge(cycle(17), cycle(18)), False, 3)
    add("path", lambda: minus_facet(cycle(28), rng), False, 2)
    # dimension 2: full recognition; the vertex-link scan dominates on the
    # large stacked spheres
    add("tetrahedron", simplex_boundary(2), True, 2)
    add("octahedron", cross_polytope(2), True, 2)
    add("stacked2_small", lambda: stacked_sphere(2, 100, rng), True, 10)
    add("stacked2_large", lambda: stacked_sphere(2, r(950, 1050), rng), True, 2)
    add("suspended_cycle", suspension(cycle(45)), True, 4)
    add("torus_7", torus_7(), False, 2)
    add("rp2_6", rp2_6(), False, 2)
    add("torus_grid", torus_grid(7, 7), False, 4)
    add("torus_grid_large", lambda: torus_grid(r(68, 72), r(68, 72)), False, 1)
    add("two_spheres2", lambda: disjoint_union(stacked_sphere(2, 35, rng), simplex_boundary(2)), False, 2)
    add("wedge2", lambda: wedge(stacked_sphere(2, 35, rng), cross_polytope(2)), False, 2)
    add("sphere2_minus_facet", lambda: minus_facet(stacked_sphere(2, 35, rng), rng), False, 3)
    # dimension 3: links recurse into full 2-sphere recognition; the shelling
    # search runs on complexes of at most 64 facets
    add("simplex3", simplex_boundary(3), True, 2)
    add("cross3", cross_polytope(3), True, 2)
    add("cycle_join_shelled", join(cycle(5), cycle(6)), True, 2)
    add("cycle_join", join(cycle(8), cycle(9)), True, 2)
    add("suspended_stacked2", lambda: suspension(stacked_sphere(2, 38, rng)), True, 3)
    add("suspended_torus", suspension(torus_7()), False, 2)
    add("suspended_torus_grid", suspension(torus_grid(4, 5)), False, 2)
    add("two_spheres3", disjoint_union(simplex_boundary(3), join(cycle(5), cycle(5))), False, 2)
    add("sphere3_minus_facet", lambda: minus_facet(join(cycle(8), cycle(9)), rng), False, 2)
    # dimension 4: links are 3-spheres, so the link recursion is two deep
    add("simplex4", simplex_boundary(4), True, 2)
    add("cross4", cross_polytope(4), True, 1)
    add("cycle_tetra_join", join(cycle(6), simplex_boundary(2)), True, 2)
    add("suspended2_torus", suspension(suspension(torus_7())), False, 2)
    add("sphere4_minus_facet", lambda: minus_facet(join(cycle(6), simplex_boundary(2)), rng), False, 2)
    # dimension 5: three levels of link recursion
    add("simplex5", simplex_boundary(5), True, 10)
    add("cycle_join3_shelled", join(join(cycle(4), cycle(4)), cycle(4)), True, 1)
    add("cycle_join3", join(join(cycle(4), cycle(4)), cycle(5)), True, 1)
    add("two_spheres5", disjoint_union(simplex_boundary(5), simplex_boundary(5)), False, 2)
    add("sphere5_minus_facet", lambda: minus_facet(simplex_boundary(5), rng), False, 2)
    return items


def write_sc(path: Path, item: MixItem) -> None:
    """The `.sc` format: header `d n`, then one facet per line."""
    n = max(v for f in item.facets for v in f) + 1
    lines = [f"{item.dim} {n}"] + [" ".join(map(str, f)) for f in item.facets]
    path.write_text("\n".join(lines) + "\n")
