"""Filling a blow-up with vertex-disjoint spheres on prescribed entry facets,
and producing a spanning sphere of a nearly-regular blow-up with two
prescribed facets.

The pipeline: a covering tight walk of the base lifts to a tight path in the
blow-up, the ladder sphere over that path is embedded and relabelled so the
prescribed facets join its second facet family, the rest of the host is
partitioned into complete-partite pieces via an injective pair-to-edge
assignment plus a perfect matching, and the per-piece spheres are glued onto
the backbone through the first family's facets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

from .complexes import SimplicialComplex, SphereCertificate, glue, verify_sphere
from .errors import (
    ParityFixImpossible,
    PartTooSmall,
    PreconditionFailed,
    NoPerfectMatchingError,
    ReducedDegreeFailure,
    SingletonUnresolvable,
)
from .hypergraph import (
    Edge,
    Hypergraph,
    covering_tight_walk,
    is_tightly_connected,
)
from .matching import (
    BipartiteInstance,
    MatchKind,
    hall_matching,
    multipartite_perfect_matching,
    perfect_matching,
)
from .spheres import (
    Facet,
    ladder_profile,
    partite_sphere_a,
    partite_sphere_b,
    tight_path_blowup_sphere,
)


@dataclass(frozen=True)
class Blowup:
    """Blow-up of a base k-graph: parts[x] replaces base vertex x.

    Edges are never materialized; membership goes through the projection.
    `singleton`, when set, names the one base vertex whose part is a single
    vertex.
    """

    base: Hypergraph
    parts: tuple[tuple[int, ...], ...]
    singleton: int | None = None

    def __post_init__(self):
        if len(self.parts) != self.base.n:
            raise PreconditionFailed(
                f"{len(self.parts)} parts for a base on {self.base.n} vertices"
            )
        seen: set[int] = set()
        for x, p in enumerate(self.parts):
            if not p:
                raise PreconditionFailed(f"part of base vertex {x} is empty")
            if seen & set(p):
                raise PreconditionFailed("parts are not disjoint")
            seen.update(p)
        if self.singleton is not None and not 0 <= self.singleton < len(self.parts):
            raise PreconditionFailed(
                f"declared singleton part {self.singleton} is not a base vertex"
            )
        if self.singleton is not None and len(self.parts[self.singleton]) != 1:
            raise PreconditionFailed(
                f"declared singleton part {self.singleton} has size "
                f"{len(self.parts[self.singleton])}"
            )

    @property
    def k(self) -> int:
        return self.base.k

    @cached_property
    def phi(self) -> dict[int, int]:
        return {v: x for x, p in enumerate(self.parts) for v in p}

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.phi)

    def project(self, vertices: Sequence[int]) -> Edge:
        return tuple(sorted(self.phi[v] for v in vertices))

    def has_edge(self, f: Sequence[int]) -> bool:
        if len(f) != self.k:
            return False
        try:
            bases = [self.phi[v] for v in f]
        except KeyError:
            return False
        if len(set(bases)) != self.k:
            return False
        return self.base.has_edge(bases)


@dataclass(frozen=True)
class FillResult:
    spheres: dict[Edge, SimplicialComplex]
    entry_facets: dict[Edge, Facet]
    e_star: Edge | None
    shapes: dict[Edge, tuple[int, ...]]
    routed_pairs: dict[Edge, int]  # matched leftover pairs absorbed per edge


@dataclass(frozen=True)
class AllocationReport:
    spanning: bool
    facets_in_host: bool
    f1_is_facet: bool
    f2_is_facet: bool
    certificate: SphereCertificate

    @property
    def ok(self) -> bool:
        from .complexes import CertLevel

        return (
            self.spanning
            and self.facets_in_host
            and self.f1_is_facet
            and self.f2_is_facet
            and self.certificate.level is not CertLevel.REJECTED
        )


@dataclass(frozen=True)
class AllocationResult:
    sphere: SimplicialComplex
    f1: Facet
    f2: Facet
    blowup: Blowup

    @cached_property
    def report(self) -> AllocationReport:
        """Spanning, host, prescribed-facet and sphere checks of `sphere`,
        computed on first read (assembling a chain never reads it)."""
        total = self.sphere
        return AllocationReport(
            spanning=(total.vertex_set == self.blowup.vertex_set),
            facets_in_host=all(self.blowup.has_edge(f) for f in total.facets),
            f1_is_facet=self.f1 in total.facet_set,
            f2_is_facet=self.f2 in total.facet_set,
            certificate=verify_sphere(total, attempt_shelling=False),
        )


def supported_pairs(r: Hypergraph) -> tuple[Edge, ...]:
    """Vertex pairs contained in at least one edge (the edges themselves
    when k = 2)."""
    if r.k == 2:
        return r.edges
    return r.min_supported_d_degree(2).supported_sets


def min_part_requirements(r: Hypergraph) -> dict[int, int]:
    """Per-base-vertex part size needed by `allocate` on this base.

    Accounts for the ladder sphere's usage along the covering walk, one
    fresh vertex per incident edge, the parity reserve, and a 2k margin
    for the singleton-absorbing sphere.
    """
    walk = covering_tight_walk(r)
    prof = ladder_profile(r.k, walk.order)
    usage: Counter = Counter()
    for pos, base in enumerate(walk.vertices):
        usage[base] += prof[pos]
    deg: Counter = Counter()
    for e in r.edges:
        for x in e:
            deg[x] += 1
    return {x: usage[x] + deg[x] + 3 + 2 * r.k for x in range(r.n)}


def min_part_size(r: Hypergraph) -> int:
    return max(min_part_requirements(r).values())


def assign_edges_to_pairs(r: Hypergraph) -> dict[Edge, Edge]:
    """Injective map from supported pairs to edges containing them.

    The degree hypothesis (2*delta* > s) makes this matching exist at scale;
    here the Hall search itself is the arbiter, and a deficiency surfaces as
    a HallFailure with its violator.
    """
    pairs = supported_pairs(r)
    adjacency = {p: tuple(e for e in r.edges if set(p) <= set(e)) for p in pairs}
    result = hall_matching(
        BipartiteInstance(left=pairs, right=r.edges, adjacency=adjacency)
    )
    if result.kind is MatchKind.HALL_VIOLATOR:
        from .errors import HallFailure

        raise HallFailure(result.violator)
    return dict(result.pairs)


class _PartPools:
    """Least-index-first vertex dispenser over the parts of a blow-up."""

    def __init__(self, parts: Mapping[int, Sequence[int]], reserved: set[int] = frozenset()):
        self._avail = {
            x: [v for v in sorted(p) if v not in reserved] for x, p in parts.items()
        }
        self._ptr = {x: 0 for x in self._avail}

    def take(self, x: int, count: int = 1) -> list[int]:
        ptr = self._ptr[x]
        pool = self._avail[x]
        if ptr + count > len(pool):
            raise PartTooSmall(x, needed=ptr + count, available=len(pool))
        self._ptr[x] = ptr + count
        return pool[ptr : ptr + count]


def fill_blowup(
    r: Hypergraph, blowup: Blowup, entry: Mapping[Edge, Sequence[int]]
) -> FillResult:
    """Partition the blow-up host into vertex sets, one per base edge, each
    carrying a spanning partite sphere through its prescribed entry facet.

    Executes: one fresh vertex per part next to each entry facet, a parity
    fix on an unassigned edge when the leftover is odd, a perfect matching
    on the leftover graph, and the (2,..,2) / (2,..,2,l,l) / (2,..,2,3,3,3)
    sphere per resulting piece.  Each matched pair joins the piece of the
    edge its base pair is assigned to.  The matching is found from the
    leftover counts per base vertex when the bases that keep leftover
    vertices are pairwise supported (a complete multipartite leftover
    graph), and by blossom on the explicit leftover graph otherwise; either
    way a leftover graph without a perfect matching raises
    NoPerfectMatchingError.
    """
    k, s = r.k, r.n
    if blowup.base != r:
        raise PreconditionFailed("blow-up base differs from R")
    if r.isolated_vertices:
        raise PreconditionFailed(f"R has isolated vertices: {r.isolated_vertices}")
    if 2 * r.min_supported_codegree() <= s:
        raise PreconditionFailed(
            f"need 2*delta* > s, got delta*={r.min_supported_codegree()}, s={s}"
        )
    deg: Counter = Counter()
    for e in r.edges:
        for x in e:
            deg[x] += 1
    for x in range(s):
        if len(blowup.parts[x]) < 2:
            raise PreconditionFailed(f"part of base vertex {x} is a singleton")
        need = 2 * deg[x] + 3
        if len(blowup.parts[x]) < need:
            raise PartTooSmall(x, needed=need, available=len(blowup.parts[x]))

    entry = {tuple(sorted(e)): tuple(sorted(f)) for e, f in entry.items()}
    if set(entry) != set(r.edges):
        raise PreconditionFailed("entry facets must cover E(R) exactly")
    taken: set[int] = set()
    for e, f in entry.items():
        if blowup.project(f) != e:
            raise PreconditionFailed(f"entry facet {f} does not project to {e}")
        if taken & set(f):
            raise PreconditionFailed("entry facets are not pairwise disjoint")
        taken.update(f)

    assignment = assign_edges_to_pairs(r)
    assigned_edges = set(assignment.values())

    pools = _PartPools({x: blowup.parts[x] for x in range(s)}, reserved=taken)
    pieces: dict[Edge, set[int]] = {}
    for e in r.edges:
        piece = set(entry[e])
        for x in e:
            piece.update(pools.take(x, 1))
        pieces[e] = piece

    covered = set().union(*pieces.values())
    leftover = sorted(blowup.vertex_set - covered)
    e_star: Edge | None = None
    if len(leftover) % 2 == 1:
        if k < 3:
            raise ParityFixImpossible(
                "parity fix needs three parts per edge; impossible for k = 2"
            )
        free = [e for e in r.edges if e not in assigned_edges]
        if not free:
            raise ParityFixImpossible("every edge is assigned to a pair")
        e_star = free[0]
        for x in e_star[:3]:
            extra = pools.take(x, 1)
            pieces[e_star].update(extra)
            leftover.remove(extra[0])

    routed: Counter = Counter()
    for u, w in _match_leftover(r, blowup, leftover):
        p = tuple(sorted((blowup.phi[u], blowup.phi[w])))
        pieces[assignment[p]].update((u, w))
        routed[assignment[p]] += 1

    spheres: dict[Edge, SimplicialComplex] = {}
    shapes: dict[Edge, tuple[int, ...]] = {}
    for e in r.edges:
        groups = {x: tuple(sorted(v for v in pieces[e] if blowup.phi[v] == x)) for x in e}
        shapes[e] = tuple(len(groups[x]) for x in e)
        facet_by_base = {blowup.phi[v]: v for v in entry[e]}
        if e == e_star:
            order = [x for x in e if x not in e[:3]] + list(e[:3])
            builder = lambda parts, des: partite_sphere_b(k, 3, parts=parts, designated=des)
        else:
            big = [x for x in e if len(groups[x]) > 2]
            if big:
                assert len(big) == 2 and len(groups[big[0]]) == len(groups[big[1]])
                ell = len(groups[big[0]])
            else:
                ell = 2
                big = list(e[-2:])
            order = [x for x in e if x not in big] + big
            builder = lambda parts, des, _l=ell: partite_sphere_a(
                k, _l, parts=parts, designated=des
            )
        parts_ordered = tuple(groups[x] for x in order)
        designated = [facet_by_base[x] for x in order]
        spheres[e] = builder(parts_ordered, designated)

    return FillResult(
        spheres=spheres,
        entry_facets=entry,
        e_star=e_star,
        shapes=shapes,
        routed_pairs={e: routed[e] for e in r.edges},
    )


def _match_leftover(
    r: Hypergraph, blowup: Blowup, leftover: Sequence[int]
) -> Sequence[tuple[int, int]]:
    """Perfect matching of the leftover graph (two leftover vertices joined
    when their base vertices form a supported pair), as vertex pairs.

    The leftover graph is a blow-up of the base's pair shadow.  When every
    two base vertices that keep leftover vertices form a supported pair it
    is complete multipartite, with one class per base vertex, and is matched
    in closed form; any other shadow builds the graph and runs blossom.
    """
    if not leftover:
        return ()
    classes: list[list[int]] = [[] for _ in range(r.n)]
    for v in leftover:
        classes[blowup.phi[v]].append(v)
    pair_set = set(supported_pairs(r))
    present = [x for x in range(r.n) if classes[x]]
    if all(p in pair_set for p in combinations(present, 2)):
        result = multipartite_perfect_matching(classes)
        pairs = result.pairs
    else:
        index = {v: i for i, v in enumerate(leftover)}
        f_edges = []
        for i, u in enumerate(leftover):
            for w in leftover[i + 1 :]:
                bu, bw = blowup.phi[u], blowup.phi[w]
                if bu != bw and tuple(sorted((bu, bw))) in pair_set:
                    f_edges.append((index[u], index[w]))
        f_graph = Hypergraph.from_edges(2, len(leftover), f_edges)
        result = perfect_matching(f_graph)
        pairs = [(leftover[i], leftover[j]) for i, j in result.pairs]
    if result.kind is not MatchKind.PERFECT:
        raise NoPerfectMatchingError(
            f"leftover graph on {len(leftover)} vertices has maximum matching "
            f"of size {len(result.pairs)}"
        )
    return pairs


def _reduce_base(r: Hypergraph, drop: int) -> tuple[Hypergraph, dict[int, int]]:
    """Induced subgraph on V(R) - {drop}, relabelled to 0..n-2."""
    active = [x for x in range(r.n) if x != drop]
    old_to_new = {x: i for i, x in enumerate(active)}
    edges = [
        tuple(old_to_new[x] for x in e) for e in r.edges if drop not in e
    ]
    return Hypergraph.from_edges(r.k, r.n - 1, edges), old_to_new


def allocate(
    r: Hypergraph, blowup: Blowup, f1: Sequence[int], f2: Sequence[int]
) -> AllocationResult:
    """Spanning sphere of the blow-up host with f1 and f2 among its facets."""
    k, s = r.k, r.n
    f1 = tuple(sorted(f1))
    f2 = tuple(sorted(f2))
    if blowup.base != r:
        raise PreconditionFailed("blow-up base differs from R")
    if not blowup.has_edge(f1) or not blowup.has_edge(f2):
        raise PreconditionFailed("f1 and f2 must be blow-up edges")
    if r.isolated_vertices:
        raise PreconditionFailed(f"R has isolated vertices: {r.isolated_vertices}")
    if 2 * r.min_supported_codegree() <= s:
        raise PreconditionFailed(
            f"need 2*delta* > s, got delta*={r.min_supported_codegree()}, s={s}"
        )
    phi1 = set(blowup.project(f1))
    phi2 = set(blowup.project(f2))
    sb = blowup.singleton
    if phi1 & phi2 or sb in phi1 or sb in phi2:
        raise PreconditionFailed(
            "projections of f1, f2 and the singleton base vertex must be disjoint"
        )
    sizes = {x: len(p) for x, p in enumerate(blowup.parts)}
    if sum(1 for n in sizes.values() if n == 1) > 1:
        raise PreconditionFailed("more than one singleton part")

    avail: dict[int, list[int]] = {x: list(p) for x, p in enumerate(blowup.parts)}

    s_prime: SimplicialComplex | None = None
    f3: Facet | None = None
    f3_base: Edge | None = None
    stellar_vertex: int | None = None
    active_base = r

    if sb is not None:
        v = blowup.parts[sb][0]
        blocked = phi1 | phi2
        choice = None
        for e in r.edges:
            if sb not in e or set(e) & blocked:
                continue
            rest = tuple(x for x in e if x != sb)
            for x in range(s):
                if x in e or x in blocked:
                    continue
                e_prime = tuple(sorted(rest + (x,)))
                if r.has_edge(e_prime):
                    choice = (e, rest, x, e_prime)
                    break
            if choice:
                break
        if choice is not None:
            _, rest, x_new, e_prime = choice
            u = avail[x_new][0]
            pair_parts = []
            for y in rest:
                if len(avail[y]) < 2:
                    raise PartTooSmall(y, needed=2, available=len(avail[y]))
                pair_parts.append(tuple(avail[y][:2]))
            sphere_parts = tuple(pair_parts) + ((u, v),)
            s_prime = partite_sphere_a(k, 2, parts=sphere_parts)
            f3 = tuple(sorted([p[0] for p in pair_parts] + [u]))
            f3_base = e_prime
            # drop V(S') minus f3 from the working pools, and the singleton base
            avail[sb] = []
            for y, pair in zip(rest, pair_parts):
                avail[y] = [w for w in avail[y] if w != pair[1]]
        else:
            # No room for the two-prescribed-facet absorber (needs 3k+1 base
            # vertices); absorb the singleton at the end instead, by gluing
            # the boundary of a simplex onto a facet of the finished sphere.
            stellar_vertex = v
            if _stellar_edge(r, sb) is None:
                raise SingletonUnresolvable(
                    "no edge stays an edge under every single-vertex swap "
                    "with the singleton's base vertex"
                )
            avail[sb] = []
        reduced, old_to_new = _reduce_base(r, sb)
        if reduced.isolated_vertices:
            raise ReducedDegreeFailure(
                f"removing base vertex {sb} isolates {reduced.isolated_vertices}"
            )
        if 2 * reduced.min_supported_codegree() <= reduced.n:
            raise ReducedDegreeFailure(
                f"reduced delta*={reduced.min_supported_codegree()} too small for "
                f"s-1={reduced.n}"
            )
        if not is_tightly_connected(reduced):
            raise ReducedDegreeFailure("reduced base is not tightly connected")
        active_base = reduced
    else:
        old_to_new = {x: x for x in range(s)}

    new_parts = {old_to_new[x]: avail[x] for x in old_to_new}

    constraints: list[tuple[Edge, Facet]] = [
        (tuple(sorted(old_to_new[x] for x in phi1)), f1),
        (tuple(sorted(old_to_new[x] for x in phi2)), f2),
    ]
    if f3 is not None:
        constraints.append((tuple(old_to_new[x] for x in f3_base), f3))

    walk = covering_tight_walk(active_base)
    t = walk.order
    assert t >= k + 1, "covering walk shorter than one gluable path"
    dcs = tight_path_blowup_sphere(k, t)
    prof = ladder_profile(k, t)

    pools = _PartPools(new_parts)
    vmap: dict[int, int] = {}
    for pos in range(t):
        base_vertex = walk.vertices[pos]
        canon_part = dcs.blowup.parts[pos]
        assert len(canon_part) == prof[pos]
        hosts = pools.take(base_vertex, len(canon_part))
        for cv, hv in zip(canon_part, hosts):
            vmap[cv] = hv

    def remap(f: Facet) -> Facet:
        return tuple(sorted(vmap[x] for x in f))

    emb_facets = [remap(f) for f in dcs.sphere.facets]
    path_edges = dcs.blowup.path_edges()
    proj = {
        pe: tuple(sorted(walk.vertices[i] for i in pe)) for pe in path_edges
    }
    first_pe: dict[Edge, tuple[int, ...]] = {}
    for pe in path_edges:
        first_pe.setdefault(proj[pe], pe)

    fam_f = {pe: remap(f) for pe, f in dcs.family_f.items()}
    fam_fp = {pe: remap(f) for pe, f in dcs.family_fp.items()}

    swap: dict[int, int] = {}
    for eb, target in constraints:
        pe = first_pe.get(eb)
        assert pe is not None, "covering walk misses a base edge"
        source_by_base = _facet_by_base(fam_fp[pe], walk, vmap, dcs)
        target_by_base = {old_to_new[blowup.phi[hv]]: hv for hv in target}
        for b in eb:
            a_v, b_v = source_by_base[b], target_by_base[b]
            if a_v != b_v:
                swap[a_v] = b_v
                swap[b_v] = a_v

    def do_swap(f: Facet) -> Facet:
        return tuple(sorted(swap.get(x, x) for x in f))

    emb_facets = [do_swap(f) for f in emb_facets]
    fam_f = {pe: do_swap(f) for pe, f in fam_f.items()}
    fam_fp = {pe: do_swap(f) for pe, f in fam_fp.items()}
    backbone = SimplicialComplex.from_facets(emb_facets)

    entry = {e: fam_f[first_pe[e]] for e in active_base.edges}

    entry_vertices = set()
    for f in entry.values():
        entry_vertices.update(f)
    sphere_vertices = backbone.vertex_set
    tilde_parts = tuple(
        tuple(
            hv
            for hv in sorted(new_parts[b])
            if hv not in sphere_vertices or hv in entry_vertices
        )
        for b in range(active_base.n)
    )
    b_tilde = Blowup(base=active_base, parts=tilde_parts)
    fill = fill_blowup(active_base, b_tilde, entry)

    pieces = [(fill.spheres[e], entry[e]) for e in sorted(fill.spheres)]
    if s_prime is not None:
        pieces.append((s_prime, f3))
    total = glue(backbone, pieces)
    if stellar_vertex is not None:
        total = _absorb_by_stellar(total, blowup, stellar_vertex, sb, f1, f2)
    return AllocationResult(sphere=total, f1=f1, f2=f2, blowup=blowup)


def _stellar_edge(r: Hypergraph, sb: int) -> Edge | None:
    """Lex-least edge avoiding `sb` that stays an edge when any single vertex
    is swapped for `sb` (so the simplex boundary over it lies in the host)."""
    for e in r.edges:
        if sb in e:
            continue
        if all(r.has_edge(tuple(sorted(set(e) - {y} | {sb}))) for y in e):
            return e
    return None


def _absorb_by_stellar(
    total: SimplicialComplex,
    blowup: Blowup,
    v: int,
    sb: int,
    f1: Facet,
    f2: Facet,
) -> SimplicialComplex:
    """Glue the boundary of a simplex on (g + v) onto a facet g of the
    sphere, which replaces g by its cone from v (a sphere again)."""
    e_host = _stellar_edge(blowup.base, sb)
    assert e_host is not None
    g = next(
        f
        for f in total.facets
        if f not in (f1, f2) and blowup.project(f) == e_host
    )
    boundary = SimplicialComplex.from_facets(combinations(tuple(g) + (v,), blowup.k))
    return glue(total, [(boundary, g)])


def _facet_by_base(source: Facet, walk, vmap, dcs) -> dict[int, int]:
    """Map base vertex -> the source facet's vertex lying in that base's part,
    using the canonical positions of the embedded ladder sphere."""
    inverse = {hv: cv for cv, hv in vmap.items()}
    pos_of = dcs.blowup.position_of
    out = {}
    for hv in source:
        pos = pos_of[inverse[hv]]
        out[walk.vertices[pos]] = hv
    return out
