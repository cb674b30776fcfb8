"""Exact matching primitives: Hall-saturating bipartite matchings with
deficiency witnesses, perfect matchings of complete multipartite graphs, and
perfect matchings in general graphs.

Bipartite matching is a hand-rolled augmenting-path search (Kuhn's
algorithm, O(V*E), deterministic: vertices and neighbours scanned in
increasing order).

A complete multipartite graph is matched in closed form by
`multipartite_perfect_matching`: it has a perfect matching exactly when its
vertex count is even and no class holds more than half of the vertices.
This is the common case of `allocation.fill_blowup`, whose leftover graph is
a blow-up of the base's pair shadow and is complete multipartite whenever
every pair of base vertices with leftover vertices is a supported pair
(every base `chain.generate_chain_host` builds).

Any other graph goes to `maximum_matching`, which delegates to networkx's
blossom implementation (exact maximum cardinality, O(V^3)); networkx is
imported there, on first use, so a process that never needs blossom never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Mapping, Sequence

from .hypergraph import Hypergraph


class MatchKind(Enum):
    SATURATING = "Saturating"
    PERFECT = "PerfectMatching"
    HALL_VIOLATOR = "HallViolator"
    NO_PERFECT = "NoPerfectMatching"


@dataclass(frozen=True)
class BipartiteInstance:
    """Left/right vertex lists plus adjacency from left into the right side."""

    left: tuple[Hashable, ...]
    right: tuple[Hashable, ...]
    adjacency: Mapping[Hashable, tuple[Hashable, ...]]

    def __post_init__(self):
        rset = set(self.right)
        for l, nbrs in self.adjacency.items():
            bad = [r for r in nbrs if r not in rset]
            if bad:
                raise ValueError(f"adjacency of {l!r} leaves the right side: {bad}")


@dataclass(frozen=True)
class MatchingResult:
    kind: MatchKind
    pairs: tuple[tuple[Hashable, Hashable], ...]
    violator: tuple[Hashable, ...] | None = None


def hall_matching(instance: BipartiteInstance) -> MatchingResult:
    """Left-saturating matching, or a Hall violator with |N(W)| < |W|.

    Augmenting-path search from each left vertex in order; when a vertex
    cannot be matched, the set of left vertices reachable through the
    alternating forest is the violator.
    """
    match_right: dict = {}
    match_left: dict = {}

    def try_augment(l, visited_r: set) -> bool:
        for r in instance.adjacency.get(l, ()):
            if r in visited_r:
                continue
            visited_r.add(r)
            if r not in match_right or try_augment(match_right[r], visited_r):
                match_right[r] = l
                match_left[l] = r
                return True
        return False

    for l in instance.left:
        visited: set = set()
        if not try_augment(l, visited):
            # Alternating forest from l: left vertices reachable via
            # matched edges of the visited right vertices, plus l itself.
            violator = {l} | {match_right[r] for r in visited if r in match_right}
            neighbourhood = set()
            for w in violator:
                neighbourhood.update(instance.adjacency.get(w, ()))
            assert len(neighbourhood) < len(violator)
            return MatchingResult(
                kind=MatchKind.HALL_VIOLATOR,
                pairs=tuple(sorted(match_left.items())),
                violator=tuple(sorted(violator)),
            )
    return MatchingResult(
        kind=MatchKind.SATURATING, pairs=tuple(sorted(match_left.items()))
    )


def maximum_matching(graph: Hypergraph) -> tuple[tuple[int, int], ...]:
    """Exact maximum-cardinality matching of a 2-uniform hypergraph."""
    if graph.k != 2:
        raise ValueError(f"matching needs a 2-uniform graph, got k={graph.k}")
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    raw = nx.max_weight_matching(g, maxcardinality=True)
    return tuple(sorted(tuple(sorted(p)) for p in raw))


def perfect_matching(graph: Hypergraph) -> MatchingResult:
    """Perfect matching of a 2-uniform hypergraph if one exists."""
    pairs = maximum_matching(graph)
    if 2 * len(pairs) == graph.n:
        return MatchingResult(kind=MatchKind.PERFECT, pairs=pairs)
    return MatchingResult(kind=MatchKind.NO_PERFECT, pairs=pairs)


def multipartite_perfect_matching(classes: Sequence[Sequence[int]]) -> MatchingResult:
    """Perfect matching of the complete multipartite graph with these vertex
    classes (every two vertices of different classes adjacent), or a maximum
    matching when there is none.

    Repeatedly pairs the least unmatched vertex of the two classes with the
    most unmatched vertices, ties going to the lower class index, until
    fewer than two classes have any.  With L vertices and a largest class
    of c, that leaves min(L // 2, L - c) pairs, the maximum: the matching is
    perfect exactly when L is even and c <= L / 2.
    """
    remaining = [sorted(c, reverse=True) for c in classes]  # least vertex last
    pairs = []
    while len(remaining) >= 2:
        i, j = sorted(range(len(remaining)), key=lambda x: -len(remaining[x]))[:2]
        if not remaining[j]:
            break
        a, b = remaining[i].pop(), remaining[j].pop()
        pairs.append((a, b) if a < b else (b, a))
    kind = MatchKind.NO_PERFECT if any(remaining) else MatchKind.PERFECT
    return MatchingResult(kind=kind, pairs=tuple(sorted(pairs)))


def matching_is_valid(graph: Hypergraph, pairs: Sequence[tuple[int, int]]) -> bool:
    """Pairs are disjoint edges of the graph."""
    seen: set[int] = set()
    for a, b in pairs:
        if not graph.has_edge((a, b)):
            return False
        if a in seen or b in seen:
            return False
        seen.update((a, b))
    return True
