"""k-uniform hypergraphs: degrees, line graph, tight connectivity, tight walks.

Vertices are dense integers 0..n-1.  Edges are stored as sorted tuples in
lexicographic order, which makes every derived object deterministic.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import (
    BadArity,
    InvalidVertex,
    NotTightlyConnected,
    ParseError,
    PartTooSmall,
    PreconditionFailed,
)

Edge = tuple[int, ...]


def _check_arity(k: int) -> None:
    if k < 2:
        raise BadArity(f"uniformity must be >= 2, got {k}")


def _canonical_edge(k: int, n: int, edge: Sequence[int]) -> Edge:
    """`edge` as a sorted tuple; InvalidVertex unless it is a k-set of 0..n-1."""
    t = tuple(sorted(edge))
    if len(t) != k or len(set(t)) != k:
        raise InvalidVertex(f"edge {edge!r} is not a {k}-set of distinct vertices")
    if t[0] < 0 or t[-1] >= n:
        raise InvalidVertex(f"edge {edge!r} has a vertex outside 0..{n - 1}")
    return t


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertex set {0..n-1}."""

    k: int
    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, k: int, n: int, edges: Iterable[Sequence[int]]) -> "Hypergraph":
        """Canonicalize (sort within edges, dedupe, sort lexicographically)."""
        _check_arity(k)
        canon = {_canonical_edge(k, n, e) for e in edges}
        return cls(k=k, n=n, edges=tuple(sorted(canon)))

    @classmethod
    def complete(cls, k: int, n: int) -> "Hypergraph":
        return cls.from_edges(k, n, combinations(range(n), k))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def has_edge(self, e: Sequence[int]) -> bool:
        return tuple(sorted(e)) in self.edge_set

    @cached_property
    def covered_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for e in self.edges:
            out.update(e)
        return frozenset(out)

    @cached_property
    def isolated_vertices(self) -> tuple[int, ...]:
        cov = self.covered_vertices
        return tuple(v for v in range(self.n) if v not in cov)

    def degree(self, subset: Iterable[int]) -> int:
        """Number of edges containing `subset` (exact count)."""
        s = frozenset(subset)
        for v in s:
            if not (0 <= v < self.n):
                raise InvalidVertex(f"vertex {v} outside 0..{self.n - 1}")
        if len(s) > self.k:
            raise BadArity(f"subset of size {len(s)} exceeds uniformity {self.k}")
        return sum(1 for e in self.edges if s.issubset(e))

    def _degree_counter(self, d: int) -> Counter:
        cnt: Counter = Counter()
        for e in self.edges:
            for s in combinations(e, d):
                cnt[s] += 1
        return cnt

    def min_supported_codegree(self) -> int:
        """delta*: minimum degree over supported (k-1)-sets; 0 for empty graphs."""
        return self.min_supported_d_degree(self.k - 1).delta_star_d

    def min_supported_d_degree(self, d: int) -> "DegreeProfile":
        """Exact minimum supported d-degree plus the supported d-set list."""
        if not (1 <= d < self.k):
            raise BadArity(f"d must satisfy 1 <= d < k, got d={d}, k={self.k}")
        cnt = self._degree_counter(d)
        supported = tuple(sorted(cnt))
        delta_star = min(cnt.values()) if cnt else 0
        delta_d = delta_star if len(supported) == comb(self.n, d) else 0
        return DegreeProfile(
            d=d, delta_star_d=delta_star, delta_d=delta_d, supported_sets=supported
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.k} {self.n}\n")
            for e in self.edges:
                fh.write(" ".join(str(v) for v in e) + "\n")

    @classmethod
    def load(cls, path) -> "Hypergraph":
        with open(path) as fh:
            lines = fh.readlines()
        header = None
        edges = []
        k = n = 0
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            try:
                vals = [int(x) for x in fields]
            except ValueError:
                raise ParseError(f"non-integer field in {line!r}", lineno)
            try:
                if header is None:
                    if len(vals) != 2:
                        raise ParseError("header must be 'k n'", lineno)
                    k, n = vals
                    _check_arity(k)
                    if n < 0:
                        raise ParseError(f"vertex count must be >= 0, got {n}", lineno)
                    header = lineno
                    continue
                if len(vals) != k:
                    raise ParseError(f"expected {k} vertices, got {len(vals)}", lineno)
                edges.append(_canonical_edge(k, n, vals))
            except (BadArity, InvalidVertex) as exc:
                raise ParseError(str(exc), lineno) from exc
        if header is None:
            raise ParseError("missing 'k n' header line")
        return cls.from_edges(k, n, edges)


@dataclass(frozen=True)
class DegreeProfile:
    d: int
    delta_star_d: int
    delta_d: int
    supported_sets: tuple[Edge, ...]


@dataclass(frozen=True)
class TightWalk:
    """Ordered vertex sequence; every k consecutive vertices should be an edge.

    Invalid walks are representable; `is_valid_in` checks windows separately.
    """

    k: int
    vertices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    def windows(self) -> list[Edge]:
        """All k-windows, each sorted (edge candidates in walk order)."""
        v = self.vertices
        return [tuple(sorted(v[i : i + self.k])) for i in range(len(v) - self.k + 1)]

    def is_valid_in(self, host: Hypergraph) -> bool:
        if len(self.vertices) < self.k:
            return False
        v = self.vertices
        for i in range(len(v) - self.k + 1):
            win = v[i : i + self.k]
            if len(set(win)) != self.k:
                return False
            if tuple(sorted(win)) not in host.edge_set:
                return False
        return True

    def multiplicities(self) -> Counter:
        return Counter(self.vertices)


def line_graph(h: Hypergraph) -> Hypergraph:
    """Graph on edge indices; i~j iff the edges share exactly k-1 vertices."""
    adj = _line_adjacency(h)
    pairs = [(a, b) for a, nbrs in enumerate(adj) for b in nbrs if a < b]
    return Hypergraph.from_edges(2, len(adj), pairs)


def _line_adjacency(h: Hypergraph) -> list[list[int]]:
    buckets: dict[Edge, list[int]] = {}
    for idx, e in enumerate(h.edges):
        for s in combinations(e, h.k - 1):
            buckets.setdefault(s, []).append(idx)
    adj: list[set[int]] = [set() for _ in h.edges]
    for members in buckets.values():
        for a, b in combinations(members, 2):
            adj[a].add(b)
            adj[b].add(a)
    return [sorted(s) for s in adj]


def tight_components(h: Hypergraph) -> tuple[tuple[tuple[Edge, ...], ...], tuple[int, ...]]:
    """Partition of E(H) into tight components, plus the isolated vertices.

    Components are reported as lexicographically sorted edge tuples, ordered
    by their least edge.
    """
    adj = _line_adjacency(h)
    seen = [False] * len(h.edges)
    comps = []
    for start in range(len(h.edges)):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = []
        while queue:
            cur = queue.popleft()
            comp.append(h.edges[cur])
            for nxt in adj[cur]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        comps.append(tuple(sorted(comp)))
    comps.sort()
    return tuple(comps), h.isolated_vertices


def is_tightly_connected(h: Hypergraph) -> bool:
    """No isolated vertices and a connected line graph (empty graph: False)."""
    if not h.edges or h.isolated_vertices:
        return False
    comps, _ = tight_components(h)
    return len(comps) == 1


def dirac_connectivity_witness(h: Hypergraph, e: Sequence[int], f: Sequence[int]) -> tuple[Edge, ...]:
    """Edge sequence from e to f, consecutive edges sharing >= k-1 vertices.

    Follows the overlap-increasing step: extend from whichever side has a
    neighbour inside the other edge, otherwise pick a common extension vertex
    of the two truncated (k-1)-sets.  Requires the Dirac-type supported
    codegree bound, under which the common vertex always exists.
    """
    k = h.k
    et, ft = tuple(sorted(e)), tuple(sorted(f))
    if et not in h.edge_set or ft not in h.edge_set:
        raise PreconditionFailed("e and f must be edges of H")
    if h.isolated_vertices:
        raise PreconditionFailed("H has isolated vertices")
    if h.min_supported_codegree() < (h.n - k + 1) // 2:
        raise PreconditionFailed(
            f"delta*={h.min_supported_codegree()} below floor((n-k+1)/2)={(h.n - k + 1) // 2}"
        )
    if et == ft:
        return (et,)

    def gamma(s: frozenset[int]) -> set[int]:
        return {x for x in range(h.n) if x not in s and tuple(sorted(s | {x})) in h.edge_set}

    left: list[Edge] = [et]
    right: list[Edge] = [ft]
    while True:
        a, b = left[-1], right[0]
        inter = set(a) & set(b)
        if len(inter) >= k - 1:
            break
        s_drop = max(set(a) - inter)
        t_drop = max(set(b) - inter)
        s_set = frozenset(a) - {s_drop}
        t_set = frozenset(b) - {t_drop}
        gs, gt = gamma(s_set), gamma(t_set)
        hit_b = sorted(gs & set(b))
        hit_a = sorted(gt & set(a))
        if hit_b:
            left.append(tuple(sorted(s_set | {hit_b[0]})))
        elif hit_a:
            right.insert(0, tuple(sorted(t_set | {hit_a[0]})))
        else:
            common = sorted(gs & gt)
            assert common, "no common extension vertex; degree precondition violated"
            x = common[0]
            left.append(tuple(sorted(s_set | {x})))
            right.insert(0, tuple(sorted(t_set | {x})))
    if left[-1] == right[0]:
        return tuple(left + right[1:])
    return tuple(left + right)


def _edge_bfs_path(adj: list[list[int]], start: int, targets: set[int]) -> list[int]:
    """Shortest line-graph path from `start` to any index in `targets`."""
    parent = {start: -1}
    queue = deque([start])
    goal = -1
    while queue:
        cur = queue.popleft()
        if cur in targets:
            goal = cur
            break
        for nxt in adj[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    assert goal >= 0, "line graph not connected"
    path = []
    cur = goal
    while cur != start:
        path.append(cur)
        cur = parent[cur]
    path.reverse()
    return path


def _append_edge(walk: list[int], k: int, target: Edge) -> None:
    """Extend the walk so its final window becomes `target`.

    The last window shares exactly k-1 vertices with `target`; rotate the
    window until the dropped vertex is at the front, then append the new one.
    Every intermediate window is the same edge as the last window.
    """
    tail = walk[-k:]
    tail_set = set(tail)
    dropped = (tail_set - set(target)).pop()
    fresh = (set(target) - tail_set).pop()
    r = tail.index(dropped)
    walk.extend(tail[:r])
    walk.append(fresh)


def _prune_walk(walk: list[int], k: int) -> list[int]:
    """Excise subwalks between equal ordered k-tuples while coverage holds.

    Leftmost excision first; repeats until no coverage-safe excision remains,
    which forces within-segment window uniqueness and hence the n^(2k) bound.
    """
    while True:
        m = len(walk) - k + 1
        windows = [tuple(walk[i : i + k]) for i in range(m)]
        total = Counter(tuple(sorted(w)) for w in windows)
        first_pos: dict[tuple[int, ...], int] = {}
        cut = None
        for q, w in enumerate(windows):
            p = first_pos.get(w)
            if p is None:
                first_pos[w] = q
                continue
            removed = Counter(tuple(sorted(x)) for x in windows[p:q])
            if all(total[s] > c for s, c in removed.items()):
                cut = (p, q)
                break
            first_pos[w] = q
        if cut is None:
            return walk
        p, q = cut
        walk = walk[:p] + walk[q:]


def covering_tight_walk(h: Hypergraph) -> TightWalk:
    """A tight walk whose k-windows include every edge at least once.

    Grows by splicing the next uncovered edge onto the final window (cheapest
    rotation first), detouring through covered edges via a line-graph BFS when
    the frontier is stuck, then prunes repeats.  Order is at most n^(2k).
    """
    if not is_tightly_connected(h):
        raise NotTightlyConnected("covering walk requires a tightly connected host")
    k = h.k
    edges = h.edges
    index_of = {e: i for i, e in enumerate(edges)}
    adj = _line_adjacency(h)
    walk: list[int] = list(edges[0])
    uncovered = set(edges[1:])
    while uncovered:
        tail = walk[-k:]
        appended = False
        for r in range(k):
            dropped = tail[r]
            kept = set(tail) - {dropped}
            for y in range(h.n):
                if y in kept:
                    continue
                cand = tuple(sorted(kept | {y}))
                if cand in uncovered:
                    walk.extend(tail[:r])
                    walk.append(y)
                    uncovered.discard(cand)
                    appended = True
                    break
            if appended:
                break
        if appended:
            continue
        # No uncovered neighbour of the last window: walk through covered
        # edges to the nearest uncovered one.
        start = index_of[tuple(sorted(tail))]
        targets = {index_of[e] for e in uncovered}
        for idx in _edge_bfs_path(adj, start, targets):
            _append_edge(walk, k, edges[idx])
            uncovered.discard(edges[idx])
    walk = _prune_walk(walk, k)
    result = TightWalk(k=k, vertices=tuple(walk))
    assert result.order <= h.n ** (2 * k)
    return result


def lift_walk_to_path(walk: TightWalk, blowup) -> TightWalk:
    """Lift a base walk to a vertex-distinct tight path in a blow-up host.

    Position i gets the least unused vertex of the part of walk vertex i.
    `blowup` needs a `parts` mapping base vertex -> host vertex sequence.
    """
    parts = blowup.parts
    taken: Counter = Counter()
    path = []
    for w in walk.vertices:
        pool = parts[w]
        if taken[w] >= len(pool):
            raise PartTooSmall(w, needed=walk.multiplicities()[w], available=len(pool))
        path.append(pool[taken[w]])
        taken[w] += 1
    return TightWalk(k=walk.k, vertices=tuple(path))
