"""Explicit sphere constructions in partite hosts and tight-path blow-ups.

Two families: spanning spheres of complete k-partite graphs with shape
(2,..,2,l,l) or (2,..,2,3,l,l), built from an even cycle by suspensions and
one facet subdivision; and doubly edge-covering spheres in tight-path
blow-ups, built by gluing thin-path spheres along family facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping, Sequence

from .complexes import Facet, SimplicialComplex, _subdivide_with
from .errors import BadParams

PathEdge = tuple[int, ...]


@dataclass(frozen=True)
class PartiteHost:
    """Complete k-partite k-graph on explicit disjoint parts."""

    k: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.parts) != self.k:
            raise BadParams(f"expected {self.k} parts, got {len(self.parts)}")
        seen: set[int] = set()
        for p in self.parts:
            if not p:
                raise BadParams("empty part")
            if seen & set(p):
                raise BadParams("parts are not disjoint")
            seen.update(p)

    @property
    def part_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for p in self.parts for v in p)

    def has_edge(self, f: Sequence[int]) -> bool:
        if len(f) != self.k or len(set(f)) != self.k:
            return False
        hit = [False] * self.k
        for v in f:
            for i, p in enumerate(self.parts):
                if v in p:
                    if hit[i]:
                        return False
                    hit[i] = True
                    break
            else:
                return False
        return all(hit)


def canonical_parts(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Consecutively numbered parts: part 0 gets 0..sizes[0]-1, and so on."""
    out = []
    nxt = 0
    for s in sizes:
        out.append(tuple(range(nxt, nxt + s)))
        nxt += s
    return tuple(out)


def _apply_swap(facets, swap: Mapping[int, int]):
    return [tuple(sorted(swap.get(v, v) for v in f)) for f in facets]


def _designated_swap(
    parts: Sequence[Sequence[int]], tracked: Sequence[int], designated: Sequence[int]
) -> dict[int, int]:
    """Part-preserving transpositions sending the tracked transversal onto
    the designated one (tracked[i] and designated[i] both in parts[i])."""
    swap: dict[int, int] = {}
    for part, a, b in zip(parts, tracked, designated):
        if b not in part:
            raise BadParams(f"designated vertex {b} not in its part {part}")
        if a != b:
            swap[a] = b
            swap[b] = a
    return swap


def _cycle_facets(x: Sequence[int], y: Sequence[int]) -> list[Facet]:
    ell = len(x)
    out = []
    for i in range(ell):
        out.append(tuple(sorted((x[i], y[i]))))
        out.append(tuple(sorted((y[i], x[(i + 1) % ell]))))
    return out


def partite_sphere_a(
    k: int,
    ell: int,
    parts: Sequence[Sequence[int]] | None = None,
    designated: Sequence[int] | None = None,
) -> SimplicialComplex:
    """Spanning sphere of K_k(2,..,2,l,l): a 2l-cycle suspended k-2 times.

    With `designated` given (one vertex per part, in part order), the output
    is relabelled within parts so that transversal is a facet.
    Facet count: 2l * 2^(k-2).
    """
    if k < 2 or ell < 2:
        raise BadParams(f"partite sphere (a) needs k >= 2 and l >= 2, got k={k}, l={ell}")
    sizes = (2,) * (k - 2) + (ell, ell)
    if parts is None:
        parts = canonical_parts(sizes)
    parts = tuple(tuple(p) for p in parts)
    PartiteHost(k=k, parts=parts)
    if tuple(len(p) for p in parts) != sizes:
        raise BadParams(f"part sizes {[len(p) for p in parts]} do not match {sizes}")
    x, y = parts[k - 2], parts[k - 1]
    facets = []
    for cyc in _cycle_facets(x, y):
        for choice in product(*parts[: k - 2]):
            facets.append(tuple(sorted(cyc + choice)))
    tracked = [p[0] for p in parts[: k - 2]] + [x[0], y[0]]
    if designated is not None:
        swap = _designated_swap(parts, tracked, designated)
        facets = _apply_swap(facets, swap)
    return SimplicialComplex.from_facets(facets)


def partite_sphere_b(
    k: int,
    ell: int,
    parts: Sequence[Sequence[int]] | None = None,
    designated: Sequence[int] | None = None,
) -> SimplicialComplex:
    """Spanning sphere of K_k(2,..,2,3,l,l).

    Route: bipyramid over K_3(2,l-1,l-1), subdivide a transversal facet so
    the three fresh vertices land one per special part, then suspend k-3
    times.  Facet count: (4l+2) * 2^(k-3).
    """
    if k < 3 or ell < 3:
        raise BadParams(f"partite sphere (b) needs k >= 3 and l >= 3, got k={k}, l={ell}")
    sizes = (2,) * (k - 3) + (3, ell, ell)
    if parts is None:
        parts = canonical_parts(sizes)
    parts = tuple(tuple(p) for p in parts)
    PartiteHost(k=k, parts=parts)
    if tuple(len(p) for p in parts) != sizes:
        raise BadParams(f"part sizes {[len(p) for p in parts]} do not match {sizes}")
    p3, pl1, pl2 = parts[k - 3], parts[k - 2], parts[k - 1]
    base = partite_sphere_a(3, ell - 1, parts=(p3[:2], pl1[: ell - 1], pl2[: ell - 1]))
    u = (p3[0], pl1[0], pl2[0])
    v = (p3[2], pl1[ell - 1], pl2[ell - 1])
    core = _subdivide_with(base, u, v)
    facets = []
    for f in core.facets:
        for choice in product(*parts[: k - 3]):
            facets.append(tuple(sorted(f + choice)))
    tracked = [p[0] for p in parts[: k - 3]] + list(v)
    if designated is not None:
        swap = _designated_swap(parts, tracked, designated)
        facets = _apply_swap(facets, swap)
    return SimplicialComplex.from_facets(facets)


@dataclass(frozen=True)
class PathBlowup:
    """Blow-up of a tight path: part `parts[i]` replaces path vertex i."""

    k: int
    parts: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def profile(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def path_edges(self) -> list[PathEdge]:
        return [tuple(range(i, i + self.k)) for i in range(self.length - self.k + 1)]

    @cached_property
    def position_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, p in enumerate(self.parts):
            for v in p:
                out[v] = i
        return out

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.position_of)

    def has_edge(self, f: Sequence[int]) -> bool:
        try:
            pos = sorted(self.position_of[v] for v in f)
        except KeyError:
            return False
        if len(set(pos)) != self.k or len(f) != self.k:
            return False
        return pos[-1] - pos[0] == self.k - 1


@dataclass(frozen=True)
class DoublyCoveringSphere:
    """Sphere in a path blow-up with two vertex-disjoint facet families,
    each containing one facet over every path edge."""

    sphere: SimplicialComplex
    blowup: PathBlowup
    family_f: dict[PathEdge, Facet]
    family_fp: dict[PathEdge, Facet]


def check_doubly_covering(d: DoublyCoveringSphere, spanning: bool = True) -> list[str]:
    """Mechanical invariant check; returns a list of violations (empty = ok)."""
    out = []
    edges = d.blowup.path_edges()
    for name, fam in (("f", d.family_f), ("fp", d.family_fp)):
        if sorted(fam) != sorted(edges):
            out.append(f"family {name} keys differ from path edges")
            continue
        used: set[int] = set()
        for e in edges:
            facet = fam[e]
            if facet not in d.sphere.facet_set:
                out.append(f"family {name}[{e}] not a facet of the sphere")
            if set(facet) & used:
                out.append(f"family {name} not vertex-disjoint at {e}")
            used.update(facet)
            proj = tuple(sorted(d.blowup.position_of.get(v, -1) for v in facet))
            if proj != e:
                out.append(f"family {name}[{e}] projects to {proj}")
    for e in edges:
        if e in d.family_f and e in d.family_fp and d.family_f[e] == d.family_fp[e]:
            out.append(f"f and fp coincide on {e}")
    for f in d.sphere.facets:
        if not d.blowup.has_edge(f):
            out.append(f"facet {f} is not a blow-up edge")
    if spanning and d.sphere.vertex_set != d.blowup.vertex_set:
        out.append("0-skeleton does not span the blow-up")
    return out


def thin_path_sphere(k: int) -> DoublyCoveringSphere:
    """Doubly edge-covering spanning sphere of the thin path blow-up
    P_{k+1}(1,2,..,2,1)."""
    if k < 2:
        raise BadParams(f"thin path sphere needs k >= 2, got {k}")
    parts = ((0,),) + tuple((2 * i - 1, 2 * i) for i in range(1, k)) + ((2 * k - 1,),)
    u = {0: 0, k: 2 * k - 1}
    v = {}
    for i in range(1, k):
        u[i] = 2 * i - 1
        v[i] = 2 * i
    if k == 2:
        facets = [(u[0], u[1]), (u[1], u[2]), (v[1], u[2]), (u[0], v[1])]
        sphere = SimplicialComplex.from_facets(facets)
    else:
        inner = partite_sphere_a(k - 1, 2, parts=parts[1:-1])
        coned = [f + (u[0],) for f in inner.facets] + [f + (u[k],) for f in inner.facets]
        sphere = SimplicialComplex.from_facets(coned)
    e1 = tuple(range(k))
    e2 = tuple(range(1, k + 1))
    fam_f = {
        e1: tuple(sorted([u[0]] + [u[i] for i in range(1, k)])),
        e2: tuple(sorted([v[i] for i in range(1, k)] + [u[k]])),
    }
    fam_fp = {
        e1: tuple(sorted([u[0]] + [v[i] for i in range(1, k)])),
        e2: tuple(sorted([u[i] for i in range(1, k)] + [u[k]])),
    }
    return DoublyCoveringSphere(
        sphere=sphere, blowup=PathBlowup(k=k, parts=parts), family_f=fam_f, family_fp=fam_fp
    )


def tight_path_blowup_sphere(k: int, length: int) -> DoublyCoveringSphere:
    """Doubly edge-covering sphere over a tight path on `length` vertices,
    with the ramp profile (1,2,..,k-1,k,..,k,k-1,..,2,1); fits inside
    P_length(k,..,k) since no position uses more than k vertices.

    Built in one pass from the thin-path sphere over the last k+1
    positions: each step prepends a path position by gluing a fresh copy
    of the thin-path sphere onto the fp-facet of the current first path
    edge.  Positions are counted in the final path from the start, so no
    part or family key is re-shifted as the ladder grows.
    """
    if length < k + 1:
        raise BadParams(f"need length >= k+1, got length={length}, k={k}")
    thin = thin_path_sphere(k)
    steps = length - k - 1

    def edge(start: int) -> PathEdge:
        return tuple(range(start, start + k))

    parts = [[] for _ in range(steps)] + [list(p) for p in thin.blowup.parts]
    pos = {v: i + steps for v, i in thin.blowup.position_of.items()}
    facets = set(thin.sphere.facets)
    fam_f = {edge(e[0] + steps): f for e, f in thin.family_f.items()}
    fam_fp = {edge(e[0] + steps): f for e, f in thin.family_fp.items()}
    t_e1 = tuple(range(k))
    t_e2 = tuple(range(1, k + 1))
    base = 2 * k  # the thin sphere uses 0..2k-1; each step adds k vertices
    for start in range(steps - 1, -1, -1):
        # glue along the fp-facet of the first edge; its vertices sit at
        # positions start+1..start+k and stand in for thin v_1..v_{k-1}, u_k
        identified = fam_fp.pop(edge(start + 1))
        at = {pos[x]: x for x in identified}
        vmap = {0: base, 2 * k - 1: at[start + k]}
        parts[start].append(base)
        pos[base] = start
        for j in range(1, k):
            vmap[2 * j - 1] = base + j      # fresh u_j at position start+j
            vmap[2 * j] = at[start + j]     # identified v_j
            parts[start + j].append(base + j)
            pos[base + j] = start + j

        def remap(f: Facet) -> Facet:
            return tuple(sorted(vmap[x] for x in f))

        facets.update(remap(f) for f in thin.sphere.facets)
        facets.remove(identified)
        fam_f[edge(start)] = remap(thin.family_f[t_e1])
        fam_fp[edge(start)] = remap(thin.family_fp[t_e1])
        fam_fp[edge(start + 1)] = remap(thin.family_fp[t_e2])
        base += k

    return DoublyCoveringSphere(
        sphere=SimplicialComplex.from_facets(facets),
        blowup=PathBlowup(k=k, parts=tuple(tuple(p) for p in parts)),
        family_f=fam_f,
        family_fp=fam_fp,
    )


def ladder_profile(k: int, length: int) -> tuple[int, ...]:
    """Per-position part sizes of tight_path_blowup_sphere(k, length).

    Ramps 1,2,.. from both ends, capped at k and, before the ladder has
    grown k-1 times, at length-k+1 (the thin path is (1,2,..,2,1)).
    """
    cap = min(k, length - k + 1)
    return tuple(min(i + 1, length - i, cap) for i in range(length))
