"""Pure simplicial complexes and graded sphere verification.

Sphere-hood is certified combinatorially: full recognition in dimensions 1
and 2, and for d >= 3 a graded certificate built from necessary conditions
(pseudomanifold, Euler characteristic), recursive vertex-link verification,
and an optional bounded-backtracking shelling search.

A cycle is recognised by vertex degrees and one walk.  A closed, connected
surface with Euler characteristic 2 has only single-cycle vertex links, so
the d = 2 certificate builds no link and costs time linear in the number of
facets; for d >= 3, links are read from a vertex-to-facet index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    BadOverlap,
    DimMismatch,
    EmptyComplex,
    MissingFacet,
    ParseError,
    WrongDim,
)

Facet = tuple[int, ...]

DEFAULT_SHELLING_BUDGET = 10**6
# Shelling search is only attempted automatically on small facet lists.
AUTO_SHELLING_MAX_FACETS = 64


class CertLevel(Enum):
    FULL_DIM1 = "FullDim1"
    FULL_DIM2 = "FullDim2"
    LINK_VERIFIED = "LinkVerified"
    SHELLED = "Shelled"
    PARTIAL_ONLY = "PartialOnly"
    REJECTED = "Rejected"

    @property
    def rank(self) -> int:
        return _LEVEL_RANK[self]

    def at_least(self, other: "CertLevel") -> bool:
        return self.rank >= other.rank


_LEVEL_RANK = {
    CertLevel.REJECTED: 0,
    CertLevel.PARTIAL_ONLY: 1,
    CertLevel.LINK_VERIFIED: 2,
    CertLevel.SHELLED: 3,
    CertLevel.FULL_DIM1: 4,
    CertLevel.FULL_DIM2: 4,
}


@dataclass(frozen=True)
class SimplicialComplex:
    """Pure complex given by its facet list (sorted tuples, lex order)."""

    dim: int
    facets: tuple[Facet, ...]

    @classmethod
    def from_facets(cls, facets: Iterable[Sequence[int]]) -> "SimplicialComplex":
        canon = {tuple(sorted(f)) for f in facets}
        if not canon:
            raise EmptyComplex("complex needs at least one facet")
        sizes = {len(f) for f in canon}
        if len(sizes) != 1:
            raise DimMismatch(f"facet sizes differ: {sorted(sizes)}")
        for f in canon:
            if len(set(f)) != len(f):
                raise DimMismatch(f"facet {f} has repeated vertices")
        (size,) = sizes
        return cls(dim=size - 1, facets=tuple(sorted(canon)))

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        out: set[int] = set()
        for f in self.facets:
            out.update(f)
        return frozenset(out)

    @cached_property
    def facet_set(self) -> frozenset[Facet]:
        return frozenset(self.facets)

    @cached_property
    def _star(self) -> dict[int, list[Facet]]:
        """Vertex -> the facets through it, each list in facet order."""
        star: dict[int, list[Facet]] = {}
        for f in self.facets:
            for v in f:
                star.setdefault(v, []).append(f)
        return star

    def link(self, v: int) -> "SimplicialComplex | None":
        """Complex of facets through v with v removed; None if v unused."""
        star = self._star.get(v)
        if star is None:
            return None
        # Distinct facets through v stay distinct without v.
        fs = sorted(tuple(x for x in f if x != v) for f in star)
        return SimplicialComplex(dim=self.dim - 1, facets=tuple(fs))

    def save(self, path) -> None:
        n = max(self.vertex_set) + 1 if self.vertex_set else 0
        with open(path, "w") as fh:
            fh.write(f"{self.dim} {n}\n")
            for f in self.facets:
                fh.write(" ".join(str(v) for v in f) + "\n")

    @classmethod
    def load(cls, path) -> "SimplicialComplex":
        with open(path) as fh:
            lines = fh.readlines()
        header = None
        facets = []
        d = n = 0
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                vals = [int(x) for x in line.split()]
            except ValueError:
                raise ParseError(f"non-integer field in {line!r}", lineno)
            if header is None:
                if len(vals) != 2:
                    raise ParseError("header must be 'd n'", lineno)
                d, n = vals
                header = lineno
                continue
            if len(vals) != d + 1:
                raise ParseError(f"expected {d + 1} vertices, got {len(vals)}", lineno)
            bad = [v for v in vals if not 0 <= v < n]
            if bad:
                raise ParseError(f"vertex {bad[0]} outside 0..{n - 1}", lineno)
            if len(set(vals)) != len(vals):
                raise ParseError(f"facet {tuple(sorted(vals))} has repeated vertices", lineno)
            facets.append(vals)
        if header is None:
            raise ParseError("missing 'd n' header line")
        if not facets:
            raise ParseError("complex has no facets")
        return cls.from_facets(facets)


@dataclass(frozen=True)
class SphereCertificate:
    level: CertLevel
    euler: int
    pseudomanifold: bool
    strongly_connected: bool
    shelling_order: tuple[Facet, ...] | None = None
    failure_reason: str | None = None


def _fresh_vertices(k: SimplicialComplex, count: int) -> list[int]:
    top = max(k.vertex_set)
    return [top + 1 + i for i in range(count)]


def suspension(k: SimplicialComplex) -> SimplicialComplex:
    """Cone every facet over two fresh apex vertices (the next unused ids)."""
    u, v = _fresh_vertices(k, 2)
    facets = [f + (u,) for f in k.facets] + [f + (v,) for f in k.facets]
    return SimplicialComplex.from_facets(facets)


def glue(
    base: SimplicialComplex,
    pieces: Iterable[tuple[SimplicialComplex, Sequence[int]]],
) -> SimplicialComplex:
    """Glue each (complex, facet) piece onto `base`, in the order given.

    A piece is checked against the union of `base` and the pieces before it:
    it must have base's dimension (else DimMismatch), its facet must be a
    facet of both the piece and that union (else MissingFacet), and the
    piece may share only that facet's vertices with the vertices gathered so
    far (else BadOverlap).  Every gluing facet is dropped; the result is
    sorted once, at the end.
    """
    facets = set(base.facets)
    vertices = set(base.vertex_set)
    for piece, facet in pieces:
        f = tuple(sorted(facet))
        if piece.dim != base.dim:
            raise DimMismatch(f"dimensions differ: {base.dim} vs {piece.dim}")
        if f not in facets or f not in piece.facet_set:
            raise MissingFacet(f"{f} must be a facet of both complexes")
        overlap = vertices & piece.vertex_set
        if overlap != set(f):
            raise BadOverlap(f"vertex overlap {sorted(overlap)} != gluing facet {list(f)}")
        facets.update(piece.facets)
        facets.remove(f)
        vertices.update(piece.vertex_set)
    return SimplicialComplex.from_facets(facets)


def _subdivide_with(
    k: SimplicialComplex, facet: Sequence[int], fresh: Sequence[int]
) -> SimplicialComplex:
    u1, u2, u3 = facet
    v1, v2, v3 = fresh
    f = tuple(sorted(facet))
    if f not in k.facet_set:
        raise MissingFacet(f"{f} is not a facet")
    new = [
        (v1, u2, u3),
        (u1, v2, u3),
        (u1, u2, v3),
        (u1, v2, v3),
        (v1, u2, v3),
        (v1, v2, u3),
        (v1, v2, v3),
    ]
    facets = (k.facet_set - {f}) | {tuple(sorted(x)) for x in new}
    return SimplicialComplex.from_facets(facets)


def subdivide_facet(k: SimplicialComplex, facet: Sequence[int]) -> SimplicialComplex:
    """Replace a triangle by the 7-triangle pattern with three fresh vertices.

    Fresh vertex i pairs with the i-th vertex of `facet` (in the given order).
    """
    if k.dim != 2:
        raise WrongDim(f"subdivision defined for dimension 2, got {k.dim}")
    return _subdivide_with(k, facet, _fresh_vertices(k, 3))


def all_faces(k: SimplicialComplex) -> dict[int, set[Facet]]:
    """Downward closure, keyed by dimension."""
    out: dict[int, set[Facet]] = {d: set() for d in range(k.dim + 1)}
    for f in k.facets:
        for size in range(1, len(f) + 1):
            out[size - 1].update(combinations(f, size))
    return out


def euler_characteristic(k: SimplicialComplex) -> int:
    faces = all_faces(k)
    return sum((-1) ** d * len(faces[d]) for d in faces)


def is_pseudomanifold(k: SimplicialComplex) -> tuple[bool, bool]:
    """(every ridge in exactly 2 facets, facet adjacency graph connected)."""
    ridge_to_facets: dict[Facet, list[int]] = {}
    for idx, f in enumerate(k.facets):
        for r in combinations(f, len(f) - 1):
            ridge_to_facets.setdefault(r, []).append(idx)
    closed = all(len(members) == 2 for members in ridge_to_facets.values())
    adj: list[set[int]] = [set() for _ in k.facets]
    for members in ridge_to_facets.values():
        for a, b in combinations(members, 2):
            adj[a].add(b)
            adj[b].add(a)
    seen = [False] * len(k.facets)
    queue = deque([0])
    seen[0] = True
    reached = 1
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if not seen[nxt]:
                seen[nxt] = True
                reached += 1
                queue.append(nxt)
    return closed, reached == len(k.facets)


def _is_single_cycle(k: SimplicialComplex) -> bool:
    """1-complex forming exactly one cycle through all its vertices.

    Every vertex must have degree 2; the edges then split into disjoint
    cycles, and one walk from any vertex tells whether there is only one.
    """
    if k.dim != 1:
        return False
    nbrs: dict[int, list[int]] = {}
    for a, b in k.facets:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    if any(len(pair) != 2 for pair in nbrs.values()):
        return False
    start = prev = k.facets[0][0]
    cur, steps = nbrs[start][0], 1
    while cur != start:
        a, b = nbrs[cur]
        prev, cur = cur, b if a == prev else a
        steps += 1
    return steps == len(nbrs)


def _extends_shelling(f: Facet, dim: int, ridges: set[Facet], prev: list[frozenset[int]]) -> bool:
    """Whether facet f meets the union of the facets `prev`, whose ridges are
    `ridges`, in a nonempty pure (dim-1)-subcomplex of its boundary."""
    shared = [frozenset(r) for r in combinations(f, dim) if r in ridges]
    if not shared:
        return False
    fs = frozenset(f)
    for g in prev:
        inter = fs & g
        if inter and not any(inter <= r for r in shared):
            return False
    return True


def is_shelling_order(order: Sequence[Facet], dim: int) -> bool:
    """Check the prefix condition: each new facet meets the previous union in
    a nonempty pure (dim-1)-subcomplex of its boundary."""
    if not order:
        return False
    ridges: set[Facet] = set()
    prev: list[frozenset[int]] = []
    for i, f in enumerate(order):
        if i > 0 and not _extends_shelling(f, dim, ridges, prev):
            return False
        prev.append(frozenset(f))
        ridges.update(combinations(f, dim))
    return True


def _find_shelling(k: SimplicialComplex, budget: int) -> tuple[Facet, ...] | None:
    """Bounded backtracking search for a shelling order, lex-first."""
    facets = list(k.facets)
    n = len(facets)
    nodes = 0

    def extend(order: list[Facet], used: set[int], ridges: set[Facet], prev: list[frozenset[int]]):
        nonlocal nodes
        if len(order) == n:
            return tuple(order)
        for idx in range(n):
            if idx in used:
                continue
            nodes += 1
            if nodes > budget:
                return None
            f = facets[idx]
            if order and not _extends_shelling(f, k.dim, ridges, prev):
                continue
            added = [r for r in combinations(f, k.dim) if r not in ridges]
            order.append(f)
            used.add(idx)
            ridges.update(added)
            prev.append(frozenset(f))
            res = extend(order, used, ridges, prev)
            if res is not None or nodes > budget:
                return res
            order.pop()
            used.remove(idx)
            ridges.difference_update(added)
            prev.pop()
        return None

    return extend([], set(), set(), [])


def verify_sphere(
    k: SimplicialComplex,
    shelling_budget: int = DEFAULT_SHELLING_BUDGET,
    attempt_shelling: bool | None = None,
) -> SphereCertificate:
    """Graded combinatorial sphere check.

    d<=2 is full recognition (FullDim1/FullDim2).  For d>=3 the necessary
    conditions must hold, then recursive link verification gives
    LinkVerified and a successful shelling search upgrades to Shelled;
    surviving only the necessary conditions gives PartialOnly.
    """
    return _verify_sphere(k, shelling_budget, attempt_shelling, {})


def _verify_sphere(
    k: SimplicialComplex,
    shelling_budget: int,
    attempt_shelling: bool | None,
    links: dict[tuple[Facet, ...], SphereCertificate],
) -> SphereCertificate:
    """verify_sphere's recursion.  The link of v in the link of u is the link
    of the face {u, v}, which the recursion reaches once per ordering of the
    face, so `links` keeps the certificate of every link checked so far in
    the top-level call, keyed by its facets."""
    chi = euler_characteristic(k)
    d = k.dim

    def reject(reason: str, pm=False, sc=False) -> SphereCertificate:
        return SphereCertificate(
            level=CertLevel.REJECTED,
            euler=chi,
            pseudomanifold=pm,
            strongly_connected=sc,
            failure_reason=reason,
        )

    if d == 0:
        if len(k.facets) == 2:
            return SphereCertificate(CertLevel.FULL_DIM1, chi, True, True)
        return reject("a 0-sphere is exactly two points")

    closed, connected = is_pseudomanifold(k)

    if d == 1:
        if _is_single_cycle(k):
            return SphereCertificate(CertLevel.FULL_DIM1, chi, closed, connected)
        return reject("1-complex is not a single spanning cycle", closed, connected)

    if d == 2:
        if not (closed and connected):
            return reject("not a closed connected surface", closed, connected)
        if chi != 2:
            return reject(f"Euler characteristic {chi} != 2", closed, connected)
        # Every vertex link is a single cycle, so none is walked.  Each edge
        # lies in two triangles, so a link is 2-regular: a union of cycles.
        # Splitting each vertex into one copy per cycle gives a closed surface
        # with the same facet adjacency, so connected, whose Euler
        # characteristic is chi plus the extra copies; such a surface has
        # chi <= 2, so chi = 2 leaves no room for a second cycle.
        return SphereCertificate(CertLevel.FULL_DIM2, chi, closed, connected)

    # d >= 3
    expected_chi = 1 + (-1) ** d
    if not closed:
        return reject("a ridge is not in exactly 2 facets", closed, connected)
    if not connected:
        return reject("facet adjacency graph disconnected", closed, connected)
    if chi != expected_chi:
        return reject(f"Euler characteristic {chi} != {expected_chi}", closed, connected)

    links_ok = True
    for v in sorted(k.vertex_set):
        lk = k.link(v)
        sub = links.get(lk.facets)
        if sub is None:
            sub = links[lk.facets] = _verify_sphere(lk, 0, False, links)
        if sub.level is CertLevel.REJECTED:
            return reject(f"link of vertex {v} rejected: {sub.failure_reason}", closed, connected)
        if not sub.level.at_least(CertLevel.LINK_VERIFIED):
            links_ok = False

    if attempt_shelling is None:
        attempt_shelling = len(k.facets) <= AUTO_SHELLING_MAX_FACETS
    if attempt_shelling and shelling_budget > 0:
        order = _find_shelling(k, shelling_budget)
        if order is not None:
            return SphereCertificate(CertLevel.SHELLED, chi, closed, connected, shelling_order=order)

    if links_ok:
        return SphereCertificate(CertLevel.LINK_VERIFIED, chi, closed, connected)
    return SphereCertificate(CertLevel.PARTIAL_ONLY, chi, closed, connected)


def is_spanning_copy(k: SimplicialComplex, host) -> bool:
    """Facets all host edges and 0-skeleton equal to the full host vertex set.

    `host` needs `.k`, `.n` and `.has_edge` (Hypergraph or a lazy blow-up view).
    """
    if k.dim + 1 != host.k:
        raise DimMismatch(f"facet size {k.dim + 1} != host uniformity {host.k}")
    if k.vertex_set != frozenset(range(host.n)):
        return False
    return all(host.has_edge(f) for f in k.facets)
