"""Toy-scale density tools: property graphs, complete-partite subgraph
extraction, and the pigeonhole blow-up step.

Everything here enumerates exhaustively under a hard budget; these are
demonstrations of the asymptotic machinery at desk scale, not scaled
implementations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from typing import Callable, Sequence

from .errors import BadParams, BudgetExceeded, HypothesisFailed
from .hypergraph import Edge, Hypergraph

DEFAULT_BUDGET = 50_000_000


@dataclass(frozen=True)
class PropertyPredicate:
    """Named deterministic predicate on induced subgraphs."""

    name: str
    epsilon: Fraction
    k: int
    evaluator: Callable[[Hypergraph], bool]


def induced_subgraph(h: Hypergraph, vertices: Sequence[int]) -> Hypergraph:
    """Induced subgraph relabelled to 0..len(vertices)-1 (ascending)."""
    vs = sorted(vertices)
    idx = {v: i for i, v in enumerate(vs)}
    vset = set(vs)
    edges = [tuple(idx[v] for v in e) for e in h.edges if set(e) <= vset]
    return Hypergraph.from_edges(h.k, len(vs), edges)


def dirac_supported_property(epsilon: Fraction, k: int) -> PropertyPredicate:
    """No isolated vertices and 2*delta* >= (1+2*epsilon)*order, exactly."""

    def evaluate(g: Hypergraph) -> bool:
        if g.isolated_vertices or not g.edges:
            return False
        return 2 * g.min_supported_codegree() >= (1 + 2 * epsilon) * g.n

    return PropertyPredicate(
        name=f"P({epsilon},{k})", epsilon=epsilon, k=k, evaluator=evaluate
    )


def property_graph(
    h: Hypergraph, predicate: PropertyPredicate, s: int, budget: int = DEFAULT_BUDGET
) -> Hypergraph:
    """s-graph on V(H) whose edges are the s-sets inducing the property."""
    if not (h.k <= s <= h.n):
        raise BadParams(f"need k <= s <= n, got k={h.k}, s={s}, n={h.n}")
    if comb(h.n, s) > budget:
        raise BudgetExceeded(f"C({h.n},{s}) = {comb(h.n, s)} exceeds budget {budget}")
    edges = [
        subset
        for subset in combinations(range(h.n), s)
        if predicate.evaluator(induced_subgraph(h, subset))
    ]
    return Hypergraph.from_edges(s, h.n, edges)


def sample_property_rate(
    h: Hypergraph,
    epsilon: Fraction,
    s: int,
    trials: int,
    seed: int,
    fixed: Sequence[int] = (),
) -> Fraction:
    """Fraction of sampled s-sets (containing `fixed`) inducing
    P(epsilon/2, k); a sampling diagnostic, no asymptotic claim."""
    if trials < 1:
        raise BadParams("need at least one trial")
    predicate = dirac_supported_property(Fraction(epsilon) / 2, h.k)
    rng = random.Random(seed)
    pool = [v for v in range(h.n) if v not in set(fixed)]
    hits = 0
    for _ in range(trials):
        sample = rng.sample(pool, s - len(fixed))
        if predicate.evaluator(induced_subgraph(h, list(fixed) + sample)):
            hits += 1
    return Fraction(hits, trials)


def find_partite_blowup(
    p: Hypergraph,
    b: int,
    parts_constraint: Sequence[Sequence[int]] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[tuple[int, ...], ...] | None:
    """s disjoint b-sets with every transversal an edge of the s-graph, or
    None.  Exhaustive backtracking, vertices placed round-robin across parts
    in ascending order; the returned witness is minimal in that order."""
    s = p.k
    if b < 1:
        raise BadParams(f"need part size b >= 1, got b={b}")
    if parts_constraint is not None and len(parts_constraint) != s:
        raise BadParams(f"need {s} candidate pools, got {len(parts_constraint)}")
    pools = (
        [sorted(c) for c in parts_constraint]
        if parts_constraint is not None
        else [list(range(p.n)) for _ in range(s)]
    )
    checks = 0

    def transversals_ok(parts: list[list[int]], part_idx: int, v: int) -> bool:
        nonlocal checks
        others = [parts[i] if i != part_idx else [v] for i in range(s)]
        if any(not o for o in others):
            return True
        for tr in product(*others):
            checks += 1
            if checks > budget:
                raise BudgetExceeded(f"transversal checks exceeded {budget}")
            if len(set(tr)) != s or not p.has_edge(tr):
                return False
        return True

    parts: list[list[int]] = [[] for _ in range(s)]
    used: set[int] = set()

    def place(level: int) -> bool:
        if level == s * b:
            return True
        part_idx = level % s
        prev = parts[part_idx][-1] if parts[part_idx] else -1
        for v in pools[part_idx]:
            if v in used or v <= prev:
                continue
            if not transversals_ok(parts, part_idx, v):
                continue
            parts[part_idx].append(v)
            used.add(v)
            if place(level + 1):
                return True
            parts[part_idx].pop()
            used.remove(v)
        return False

    if place(0):
        return tuple(tuple(pp) for pp in parts)
    return None


def _labeled_key(g: Hypergraph) -> tuple[Edge, ...]:
    return g.edges


def _isomorphic_member(
    labeled: Hypergraph, family: Sequence[Hypergraph], cache: dict
) -> int | None:
    """Index of a family member isomorphic to the labelled graph, or None."""
    key = _labeled_key(labeled)
    if key in cache:
        return cache[key]
    found = None
    for idx, member in enumerate(family):
        if member.n != labeled.n or member.k != labeled.k:
            continue
        if len(member.edges) != len(labeled.edges):
            continue
        for perm in permutations(range(labeled.n)):
            mapped = {tuple(sorted(perm[v] for v in e)) for e in labeled.edges}
            if mapped == set(member.edges):
                found = idx
                break
        if found is not None:
            break
    cache[key] = found
    return found


def pigeonhole_blowup(
    h: Hypergraph,
    parts: Sequence[Sequence[int]],
    family: Sequence[Hypergraph],
    b: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Hypergraph, tuple[tuple[int, ...], ...]] | None:
    """Majority-colour blow-up extraction.

    Colours every partite transversal by its part-labelled induced graph,
    checks each colour is isomorphic to a family member, then searches the
    majority colour class for a consistent blow-up with parts of size b.
    Returns (the labelled member, the blow-up parts) or None.  The parts
    must be disjoint and lie in 0..n-1.
    """
    if b < 1:
        raise BadParams(f"need part size b >= 1, got b={b}")
    part_of: dict[int, int] = {}
    for i, part in enumerate(parts):
        for v in part:
            if not 0 <= v < h.n:
                raise BadParams(f"vertex {v} of part {i} is outside 0..{h.n - 1}")
            if v in part_of:
                raise BadParams(f"vertex {v} appears in part {part_of[v]} and again in part {i}")
            part_of[v] = i
    s = len(parts)
    total = 1
    for pp in parts:
        total *= len(pp)
    if total > budget:
        raise BudgetExceeded(f"{total} transversals exceed budget {budget}")
    colour_class: dict[tuple[Edge, ...], list[tuple[int, ...]]] = {}
    cache: dict = {}
    for tr in product(*parts):
        ordered = list(tr)
        idx = {v: i for i, v in enumerate(ordered)}
        vset = set(ordered)
        labeled = Hypergraph.from_edges(
            h.k,
            s,
            [tuple(idx[v] for v in e) for e in h.edges if set(e) <= vset],
        )
        if _isomorphic_member(labeled, family, cache) is None:
            raise HypothesisFailed(
                f"transversal {tr} induces no family member"
            )
        colour_class.setdefault(_labeled_key(labeled), []).append(tr)
    majority = min(colour_class, key=lambda c: (-len(colour_class[c]), c))
    class_edges = [tuple(sorted(tr)) for tr in colour_class[majority]]
    class_graph = Hypergraph.from_edges(s, h.n, class_edges)
    blowup = find_partite_blowup(class_graph, b, parts_constraint=parts, budget=budget)
    if blowup is None:
        return None
    member = Hypergraph.from_edges(h.k, s, majority)
    return member, blowup
