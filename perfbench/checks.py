"""Output checks written apart from spansphere.

Each check returns None when the output passes and a short reason when it
does not.  They work on plain facet tuples and on the data a chain
certificate carries (its parts and base edges), never on spansphere's own
verification or membership code.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import combinations
from typing import Iterable, Sequence

Facet = tuple[int, ...]


def _connected(nodes: Iterable, pairs: Iterable[tuple]) -> bool:
    """Union-find connectivity of `nodes` under the given pairs."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in parent}) <= 1


def euler(facets: Sequence[Facet]) -> int:
    """Alternating count of all nonempty faces of the downward closure."""
    dim = len(facets[0]) - 1
    total = 0
    for size in range(1, dim + 2):
        faces = {face for f in facets for face in combinations(sorted(f), size)}
        total += (-1) ** (size - 1) * len(faces)
    return total


def _closed_connected(facets: Sequence[Facet]) -> str | None:
    """Every ridge lies in exactly two facets and the facets are connected
    through shared ridges."""
    by_ridge: dict[Facet, list[int]] = defaultdict(list)
    for i, f in enumerate(facets):
        s = tuple(sorted(f))
        for r in combinations(s, len(s) - 1):
            by_ridge[r].append(i)
    if any(len(m) != 2 for m in by_ridge.values()):
        return "a ridge does not lie in exactly two facets"
    if not _connected(range(len(facets)), (tuple(m) for m in by_ridge.values())):
        return "facets are not connected through ridges"
    return None


def _links(facets: Sequence[Facet]) -> dict[int, list[Facet]]:
    out: dict[int, list[Facet]] = defaultdict(list)
    for f in facets:
        for i, v in enumerate(f):
            out[v].append(f[:i] + f[i + 1 :])
    return out


def check_cycle(facets: Sequence[Facet]) -> str | None:
    """d = 1: one cycle through every vertex it uses (a Hamilton cycle of
    its vertex set)."""
    if any(len(f) != 2 or f[0] == f[1] for f in facets):
        return "not a graph"
    if len({tuple(sorted(f)) for f in facets}) != len(facets):
        return "repeated edge"
    deg = Counter(v for f in facets for v in f)
    if any(d != 2 for d in deg.values()):
        return "a vertex does not have degree 2"
    if len(facets) != len(deg) or len(deg) < 3:
        return "edge count differs from vertex count"
    if not _connected(deg, facets):
        return "more than one cycle"
    return None


def check_2sphere(facets: Sequence[Facet]) -> str | None:
    """d = 2: closed, connected, chi = 2, F = 2V - 4, every vertex link a
    cycle."""
    if any(len(f) != 3 for f in facets):
        return "not a 2-complex"
    reason = _closed_connected(facets)
    if reason:
        return reason
    links = _links(facets)
    if euler(facets) != 2:
        return "Euler characteristic is not 2"
    if len(facets) != 2 * len(links) - 4:
        return "F != 2V - 4"
    for v, lk in links.items():
        if check_cycle(lk) is not None:
            return f"link of vertex {v} is not a cycle"
    return None


def check_3sphere(facets: Sequence[Facet]) -> str | None:
    """d = 3: closed, connected, chi = 0, every vertex link passes the
    d = 2 check."""
    if any(len(f) != 4 for f in facets):
        return "not a 3-complex"
    reason = _closed_connected(facets)
    if reason:
        return reason
    if euler(facets) != 0:
        return "Euler characteristic is not 0"
    for v, lk in _links(facets).items():
        if check_2sphere(lk) is not None:
            return f"link of vertex {v} fails the 2-sphere check"
    return None


SPHERE_CHECKS = {1: check_cycle, 2: check_2sphere, 3: check_3sphere}


def check_sphere(facets: Sequence[Facet], dim: int) -> str | None:
    if not facets:
        return "empty complex"
    if dim not in SPHERE_CHECKS:
        return f"no independent sphere check in dimension {dim}"
    return SPHERE_CHECKS[dim](facets)


def check_spanning(facets: Sequence[Facet], n: int) -> str | None:
    """The facets use exactly the vertices 0..n-1."""
    used = {v for f in facets for v in f}
    if used != set(range(n)):
        return f"vertex set is not 0..{n - 1} ({len(used)} vertices used)"
    return None


class PartsMembership:
    """Edge membership of a chain host recomputed from its certificate: a
    k-set is an edge when, in some link, its vertices lie in distinct parts
    whose base vertices form a base edge."""

    def __init__(self, links: Sequence[tuple[Sequence[Sequence[int]], Iterable[Sequence[int]]]]):
        self._links = []
        self._where: dict[int, list[int]] = defaultdict(list)
        for i, (parts, base_edges) in enumerate(links):
            part_of = {v: x for x, p in enumerate(parts) for v in p}
            self._links.append((part_of, {tuple(sorted(e)) for e in base_edges}))
            for v in part_of:
                self._where[v].append(i)
        self.vertex_count = len(self._where)

    def __contains__(self, facet: Sequence[int]) -> bool:
        for i in self._where.get(facet[0], ()):
            part_of, base = self._links[i]
            try:
                xs = sorted(part_of[v] for v in facet)
            except KeyError:
                continue
            if len(set(xs)) == len(xs) and tuple(xs) in base:
                return True
        return False


class SortedEdgeList:
    """Membership in an explicit, lexicographically sorted edge list."""

    def __init__(self, edges: Sequence[tuple[int, ...]]):
        self._edges = edges

    def __contains__(self, facet: Sequence[int]) -> bool:
        f = tuple(sorted(facet))
        i = bisect_left(self._edges, f)
        return i < len(self._edges) and self._edges[i] == f


def check_membership(facets: Sequence[Facet], host) -> str | None:
    for f in facets:
        if f not in host:
            return f"facet {f} is not a host edge"
    return None
