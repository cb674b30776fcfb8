"""Blow-up chains: certificates, synthetic generation, verification, the
end-to-end spanning-sphere assembler, and lower-bound host constructions.

A chain certificate is a path-like sequence of blow-up links covering the
host, consecutive links sharing exactly one transversal edge.  Chains are
generated synthetically (with the certificate emitted alongside) and
verified by independent code; the assembler allocates a spanning sphere per
link and glues neighbours along the shared facets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .allocation import Blowup, allocate, min_part_requirements
from .complexes import SimplicialComplex, glue
from .errors import BadParams, ChainInvalid, ChainSolveError, ParseError, SphereError
from .hypergraph import Edge, Hypergraph

# Hosts whose edge lists would exceed this stay virtual (edge-membership
# oracle only); a complete K_8^(4) blow-up has ~10^10 transversals.
MATERIALIZE_EDGE_LIMIT = 2_000_000


@dataclass(frozen=True)
class ChainLink:
    base: Hypergraph
    parts: tuple[tuple[int, ...], ...]
    singleton: int | None = None

    def blowup(self) -> Blowup:
        return Blowup(base=self.base, parts=self.parts, singleton=self.singleton)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for p in self.parts for v in p)

    def edge_count(self) -> int:
        total = 0
        for e in self.base.edges:
            prod = 1
            for x in e:
                prod *= len(self.parts[x])
            total += prod
        return total


@dataclass(frozen=True)
class ChainCertificate:
    links: tuple[ChainLink, ...]
    shared: tuple[tuple[int, ...], ...]
    epsilon: Fraction
    gamma: Fraction
    m1: Fraction
    m2: Fraction

    def __post_init__(self):
        if not self.links:
            raise BadParams("a chain needs at least one link")
        if len(self.shared) != len(self.links) - 1:
            raise BadParams(
                f"{len(self.links)} links need {len(self.links) - 1} shared edges, "
                f"got {len(self.shared)}"
            )

    @property
    def k(self) -> int:
        return self.links[0].base.k

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"LINKS {len(self.links)}\n")
            fh.write(
                f"PARAMS {self.epsilon} {self.gamma} {self.m1} {self.m2}\n"
            )
            for i, link in enumerate(self.links):
                fh.write(f"LINK {i}\n")
                fh.write("BASE\n")
                fh.write(f"{link.base.k} {link.base.n}\n")
                for e in link.base.edges:
                    fh.write(" ".join(str(v) for v in e) + "\n")
                fh.write("PARTS\n")
                for p in link.parts:
                    fh.write(" ".join(str(v) for v in p) + "\n")
                if link.singleton is not None:
                    fh.write(f"SINGLETON {link.singleton}\n")
            fh.write("SHARED\n")
            for shared in self.shared:
                fh.write(" ".join(str(v) for v in shared) + "\n")

    @classmethod
    def load(cls, path) -> "ChainCertificate":
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        pos = 0

        def next_line() -> tuple[int, str]:
            nonlocal pos
            while pos < len(lines):
                raw = lines[pos]
                pos += 1
                stripped = raw.split("#", 1)[0].strip()
                if stripped:
                    return pos, stripped
            return pos, ""

        lineno = 0
        try:
            lineno, header = next_line()
            if not header.startswith("LINKS "):
                raise ParseError("expected 'LINKS <count>'", lineno)
            count = int(header.split()[1])
            lineno, params = next_line()
            if not params.startswith("PARAMS "):
                raise ParseError("expected 'PARAMS eps gamma m1 m2'", lineno)
            eps, gamma, m1, m2 = (Fraction(tok) for tok in params.split()[1:5])
            links = []
            for i in range(count):
                lineno, tag = next_line()
                if tag != f"LINK {i}":
                    raise ParseError(f"expected 'LINK {i}', got {tag!r}", lineno)
                lineno, tag = next_line()
                if tag != "BASE":
                    raise ParseError("expected 'BASE'", lineno)
                lineno, kn = next_line()
                k, n = (int(tok) for tok in kn.split())
                edges = []
                for _ in range(_count_edges(lines, pos, k)):
                    lineno, row = next_line()
                    edges.append([int(tok) for tok in row.split()])
                base = Hypergraph.from_edges(k, n, edges)
                lineno, tag = next_line()
                if tag != "PARTS":
                    raise ParseError("expected 'PARTS'", lineno)
                parts = []
                for _ in range(n):
                    lineno, row = next_line()
                    parts.append(tuple(int(tok) for tok in row.split()))
                singleton = None
                save = pos
                lineno, tag = next_line()
                if tag.startswith("SINGLETON "):
                    singleton = int(tag.split()[1])
                else:
                    pos = save
                links.append(ChainLink(base=base, parts=tuple(parts), singleton=singleton))
            lineno, tag = next_line()
            if tag != "SHARED" and count > 1:
                raise ParseError("expected 'SHARED'", lineno)
            shared = []
            for _ in range(count - 1):
                lineno, row = next_line()
                shared.append(tuple(sorted(int(tok) for tok in row.split())))
            return cls(
                links=tuple(links), shared=tuple(shared), epsilon=eps, gamma=gamma, m1=m1, m2=m2
            )
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed field: {exc}", lineno) from exc


def _count_edges(lines: list[str], start: int, k: int) -> int:
    """Edges of an inline base run until the next PARTS tag."""
    count = 0
    for raw in lines[start:]:
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped == "PARTS":
            break
        count += 1
    return count


class LazyChainHost:
    """Edge-membership view of the union of a chain's link blow-ups.

    Used when materializing the edge list would be prohibitive.
    """

    def __init__(self, certificate: ChainCertificate):
        self.certificate = certificate
        self._blowups = [link.blowup() for link in certificate.links]
        vertices: set[int] = set()
        for link in certificate.links:
            vertices.update(link.vertex_set)
        self.k = certificate.k
        self.n = max(vertices) + 1 if vertices else 0
        self._vertices = frozenset(vertices)
        if self._vertices != frozenset(range(self.n)):
            raise BadParams("chain links do not cover a dense vertex range")

    def has_edge(self, f: Sequence[int]) -> bool:
        return any(b.has_edge(f) for b in self._blowups)


@dataclass(frozen=True)
class HostInstance:
    host: object  # Hypergraph or LazyChainHost
    certificate: ChainCertificate | None
    provenance: str


@dataclass(frozen=True)
class ChainReport:
    """Outcome of verify_chain, one entry per checked property."""

    violations: tuple[tuple[int, str], ...]  # (property number, description)
    membership_checked: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = []
        for num in (1, 2, 3, 4, 5):
            bad = [msg for n, msg in self.violations if n == num]
            status = "FAIL" if bad else "PASS"
            out.append(f"property ({num}): {status}" + (f" [{'; '.join(bad)}]" if bad else ""))
        extra = [msg for n, msg in self.violations if n == 0]
        if self.membership_checked:
            out.append(
                "membership: " + ("FAIL [" + "; ".join(extra) + "]" if extra else "PASS")
            )
        else:
            out.append("membership: SKIPPED (virtual host)")
        return out


def _nearly_regular_ok(
    link: ChainLink, gamma: Fraction, m1: Fraction, m2: Fraction
) -> bool:
    """Some m* in [m1, m2] puts every non-singleton part inside
    [(1-gamma)m*, (1+gamma)m*]; at most one singleton part allowed."""
    sizes = [len(p) for p in link.parts]
    singles = [i for i, sz in enumerate(sizes) if sz == 1]
    if len(singles) > 1:
        return False
    if singles and link.singleton not in singles:
        return False
    rest = [Fraction(sz) for sz in sizes if sz != 1]
    if not rest:
        return True
    lower = max(max(rest) / (1 + gamma), m1)
    upper = min(m2, min(rest) / (1 - gamma)) if gamma < 1 else m2
    return lower <= upper


def _structure_violations(host, certificate: ChainCertificate) -> list[tuple[int, str]]:
    """(property number, description) of each violated chain property 1-5."""
    viol: list[tuple[int, str]] = []
    links = certificate.links
    eps = certificate.epsilon
    for i, link in enumerate(links):
        base = link.base
        if base.isolated_vertices:
            viol.append((1, f"link {i}: isolated base vertices {base.isolated_vertices}"))
        if 2 * base.min_supported_codegree() < (1 + eps) * base.n:
            viol.append(
                (1, f"link {i}: 2*delta*={2 * base.min_supported_codegree()} < "
                    f"(1+eps)*s={(1 + eps) * base.n}")
            )
        if not _nearly_regular_ok(link, certificate.gamma, certificate.m1, certificate.m2):
            viol.append((2, f"link {i}: not (gamma, m*)-nearly-regular for m* in [m1, m2]"))

    covered: set[int] = set()
    for link in links:
        covered.update(link.vertex_set)
    host_vertices = set(range(host.n))
    if covered != host_vertices:
        viol.append((3, "link vertex sets do not cover V(H) exactly"))

    for i in range(len(links)):
        for j in range(i + 2, len(links)):
            inter = links[i].vertex_set & links[j].vertex_set
            if inter:
                viol.append((4, f"links {i} and {j} share vertices {sorted(inter)}"))

    for j in range(len(links) - 1):
        inter = links[j].vertex_set & links[j + 1].vertex_set
        listed = set(certificate.shared[j])
        if inter != listed:
            viol.append(
                (5, f"links {j},{j + 1} intersect in {sorted(inter)}, listed {sorted(listed)}")
            )
            continue
        if len(listed) != certificate.k:
            viol.append((5, f"shared set {sorted(listed)} has size {len(listed)}"))
            continue
        for side, link in ((j, links[j]), (j + 1, links[j + 1])):
            b = link.blowup()
            if not b.has_edge(tuple(listed)):
                viol.append((5, f"shared set not an edge of link {side}"))
                continue
            bases = {b.phi[v] for v in listed}
            if link.singleton is not None and link.singleton in bases:
                viol.append((5, f"shared set meets the singleton part of link {side}"))
    return viol


def verify_chain(host, certificate: ChainCertificate) -> ChainReport:
    """Check the five chain properties plus genuine-subgraph membership.

    Membership (every partite transversal of every base edge is a host edge)
    is only exercised against materialized hosts; virtual hosts satisfy it
    by construction and are reported as skipped.
    """
    viol = _structure_violations(host, certificate)
    membership_checked = isinstance(host, Hypergraph)
    if membership_checked:
        from itertools import product

        for i, link in enumerate(certificate.links):
            for e in link.base.edges:
                for transversal in product(*(link.parts[x] for x in e)):
                    if not host.has_edge(transversal):
                        viol.append(
                            (0, f"link {i}: transversal {transversal} of {e} not in H")
                        )
                        break
                else:
                    continue
                break
    return ChainReport(violations=tuple(viol), membership_checked=membership_checked)


def generate_chain_host(
    k: int,
    s: int,
    num_links: int,
    part_size: int,
    seed: int,
    singleton: bool = False,
    gamma: Fraction = Fraction(1, 10),
    materialize: bool | None = None,
) -> HostInstance:
    """Synthetic chain host: each link is a blow-up of K_s^(k), consecutive
    links overlapping in one transversal edge.  Deterministic in the seed."""
    if s < k + 2:
        raise BadParams(f"need s >= k+2, got s={s}, k={k}")
    if num_links < 1:
        raise BadParams("need at least one link")
    if num_links > 1 and s < 2 * k:
        raise BadParams(
            f"consecutive links share disjoint entry/exit edges; need s >= 2k, got s={s}"
        )
    base = Hypergraph.complete(k, s)
    requirements = min_part_requirements(base)
    needed = max(requirements.values())
    if part_size < needed:
        raise BadParams(
            f"part_size {part_size} below the allocation minimum {needed} for K_{s}^({k})"
        )
    if singleton and s < 2 * k + 1:
        raise BadParams(f"singleton links need s >= 2k+1, got s={s}")

    rng = random.Random(seed)
    low = max(math.ceil((1 - gamma) * part_size), needed)
    high = math.floor((1 + gamma) * part_size)

    entry_edge = tuple(range(k))            # shared with the previous link
    exit_edge = tuple(range(k, 2 * k))      # shared with the next link
    singleton_base = 2 * k if singleton else None

    links: list[ChainLink] = []
    shared: list[tuple[int, ...]] = []
    next_vertex = 0
    prev_exit_transversal: tuple[int, ...] | None = None

    for li in range(num_links):
        sizes = []
        for x in range(s):
            if singleton_base is not None and x == singleton_base:
                sizes.append(1)
            else:
                sizes.append(rng.randint(low, high))
        if k == 2:
            # The fill layer only produces even cycles, so each link must
            # reach it with an even vertex count.  The stellar singleton
            # absorber (used when s < 3k+1) removes one vertex first.
            target = 1 if (singleton and s < 3 * k + 1) else 0
            if sum(sizes) % 2 != target:
                bump = s - 1 if singleton_base != s - 1 else s - 2
                sizes[bump] += 1 if sizes[bump] < high else -1
        parts: list[tuple[int, ...]] = []
        for x in range(s):
            fresh = []
            if li > 0 and x in entry_edge:
                fresh.append(prev_exit_transversal[entry_edge.index(x)])
                take = sizes[x] - 1
            else:
                take = sizes[x]
            fresh.extend(range(next_vertex, next_vertex + take))
            next_vertex += take
            parts.append(tuple(sorted(fresh)))
        link = ChainLink(base=base, parts=tuple(parts), singleton=singleton_base)
        links.append(link)
        if li < num_links - 1:
            transversal = tuple(parts[x][0] for x in exit_edge)
            prev_exit_transversal = transversal
            shared.append(tuple(sorted(transversal)))

    eps = Fraction(2 * base.min_supported_codegree() - s, s)
    certificate = ChainCertificate(
        links=tuple(links),
        shared=tuple(shared),
        epsilon=max(eps, Fraction(0)),
        gamma=gamma,
        m1=Fraction(part_size),
        m2=Fraction(part_size),
    )
    total_edges = sum(link.edge_count() for link in links)
    if materialize is None:
        materialize = total_edges <= MATERIALIZE_EDGE_LIMIT
    if materialize:
        if total_edges > MATERIALIZE_EDGE_LIMIT:
            raise BadParams(f"host would have {total_edges} edges; keep it virtual")
        from itertools import product

        edges: set[Edge] = set()
        for link in links:
            for e in link.base.edges:
                for tr in product(*(link.parts[x] for x in e)):
                    edges.add(tuple(sorted(tr)))
        # Already canonical (sorted k-sets in range): from_edges would redo it.
        host: object = Hypergraph(k=k, n=next_vertex, edges=tuple(sorted(edges)))
    else:
        host = LazyChainHost(certificate)
    provenance = (
        f"generate_chain_host(k={k},s={s},num_links={num_links},"
        f"part_size={part_size},seed={seed},singleton={singleton})"
    )
    return HostInstance(host=host, certificate=certificate, provenance=provenance)


def _free_facet(blowup: Blowup, banned_bases: set[int]) -> tuple[int, ...]:
    """Lex-least transversal of the lex-least base edge avoiding the banned
    base vertices (used for the unconstrained side of end links)."""
    for e in blowup.base.edges:
        if set(e) & banned_bases:
            continue
        return tuple(sorted(blowup.parts[x][0] for x in e))
    raise ChainInvalid(f"no base edge avoids {sorted(banned_bases)}")


def spanning_sphere(host, certificate: ChainCertificate, jobs: int = 1) -> SimplicialComplex:
    """Allocate a spanning sphere per link and glue along the shared facets.

    Checks the certificate's structure (chain properties 1-5, ChainInvalid
    on a violation) but not that the host contains each link's transversals:
    `verify_chain` checks that membership, and `is_spanning_copy` checks the
    output's facets against the host.  Link allocations are independent;
    with jobs > 1 they run concurrently and are always merged in link order.
    """
    violations = _structure_violations(host, certificate)
    if violations:
        raise ChainInvalid("; ".join(m for _, m in violations))
    links = certificate.links
    tasks = []
    for i, link in enumerate(links):
        b = link.blowup()
        banned: set[int] = set()
        if link.singleton is not None:
            banned.add(link.singleton)
        f1 = tuple(sorted(certificate.shared[i - 1])) if i > 0 else None
        f2 = tuple(sorted(certificate.shared[i])) if i < len(links) - 1 else None
        for fixed in (f1, f2):
            if fixed is not None:
                banned.update(b.phi[v] for v in fixed)
        if f1 is None:
            f1 = _free_facet(b, banned)
            banned.update(b.phi[v] for v in f1)
        if f2 is None:
            f2 = _free_facet(b, banned)
        tasks.append((i, link, b, f1, f2))

    def solve(task):
        i, link, b, f1, f2 = task
        try:
            return allocate(link.base, b, f1, f2).sphere
        except SphereError as exc:
            raise ChainSolveError(i, exc) from exc

    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            pieces = list(pool.map(solve, tasks))
    else:
        pieces = [solve(t) for t in tasks]
    return glue(pieces[0], zip(pieces[1:], certificate.shared))


def lower_bound_codegree(k: int, n: int) -> HostInstance:
    """Host on T + X + Y (|T| = k-1, X and Y near-equal) whose edges are all
    k-sets except those meeting both X and Y; delta* is about n/2 while no
    spanning sphere exists."""
    if n < 2 * k:
        raise BadParams(f"need n >= 2k, got n={n}, k={k}")
    t = tuple(range(k - 1))
    rest = n - (k - 1)
    x = tuple(range(k - 1, k - 1 + (rest + 1) // 2))
    y = tuple(range(k - 1 + (rest + 1) // 2, n))
    from itertools import combinations

    edges = []
    xs, ys = set(x), set(y)
    for e in combinations(range(n), k):
        se = set(e)
        if se & xs and se & ys:
            continue
        edges.append(e)
    host = Hypergraph.from_edges(k, n, edges)
    return HostInstance(
        host=host, certificate=None, provenance=f"lower_bound_codegree(k={k},n={n})"
    )


def lower_bound_tight_cycle(k: int, n: int) -> HostInstance:
    """Partition X + Y with |Y| = n/k + 1; edges are all k-sets with at least
    k-1 vertices in X.  No perfect matching, delta* = (1-1/k)n - (k-1)."""
    if n % k != 0:
        raise BadParams(f"need k | n, got n={n}, k={k}")
    y_size = n // k + 1
    if y_size >= n:
        raise BadParams(f"n={n} too small for |Y|={y_size}")
    x = tuple(range(n - y_size))
    from itertools import combinations

    xs = set(x)
    edges = [e for e in combinations(range(n), k) if len(set(e) & xs) >= k - 1]
    host = Hypergraph.from_edges(k, n, edges)
    return HostInstance(
        host=host, certificate=None, provenance=f"lower_bound_tight_cycle(k={k},n={n})"
    )


def lower_bound_vertex_degree(n: int) -> HostInstance:
    """3-graph on X + Y + Z with edges of type XXY, YYZ, ZZX and all edges
    inside each part; no spanning tight component."""
    if n % 3 != 0:
        raise BadParams(f"need 3 | n, got n={n}")
    third = n // 3
    groups = [
        tuple(range(0, third)),
        tuple(range(third, 2 * third)),
        tuple(range(2 * third, n)),
    ]
    from itertools import combinations

    of = {}
    for gi, g in enumerate(groups):
        for v in g:
            of[v] = gi
    cyclic_ok = {(0, 0, 1), (1, 1, 2), (2, 2, 0)}
    edges = []
    for e in combinations(range(n), 3):
        sig = tuple(sorted(of[v] for v in e))
        if len(set(sig)) == 1:
            edges.append(e)
            continue
        counts = {g: sig.count(g) for g in set(sig)}
        doubled = [g for g, c in counts.items() if c == 2]
        if len(doubled) != 1:
            continue
        g2 = doubled[0]
        g1 = next(g for g in counts if counts[g] == 1)
        if (g2, g2, g1) in cyclic_ok:
            edges.append(e)
    host = Hypergraph.from_edges(3, n, edges)
    return HostInstance(
        host=host, certificate=None, provenance=f"lower_bound_vertex_degree(n={n})"
    )
