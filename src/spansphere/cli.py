"""Command-line front door: deterministic runs, stable reports, typed exits.

Exit codes: 0 = pass, 1 = verification failure, 2 = precondition or parse
error.  All randomness sits behind --seed; identical inputs and seed give
byte-identical artifact and report files (wall time goes to stdout only).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import chain as chain_mod
from . import extremal as extremal_mod
from .allocation import Blowup, allocate
from .complexes import (
    DEFAULT_SHELLING_BUDGET,
    CertLevel,
    SimplicialComplex,
    is_spanning_copy,
    verify_sphere,
)
from .errors import BadParams, ChainInvalid, ParseError, SphereError
from .hypergraph import Hypergraph, tight_components
from .spheres import (
    partite_sphere_a,
    partite_sphere_b,
    tight_path_blowup_sphere,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


class RunReport:
    """Ordered report: command, input hashes, seed, checks, outcome."""

    def __init__(self, command: str, seed: int | None = None):
        self.command = command
        self.seed = seed
        self.inputs: list[tuple[str, str]] = []
        self.checks: list[str] = []
        self.outcome = "PASS"
        self._start = time.perf_counter()

    def add_input(self, path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.inputs.append((str(path), digest))

    def check(self, name: str, ok: bool | None = None, value=None) -> None:
        if ok is None:
            self.checks.append(f"check: {name} = {value}")
        else:
            self.checks.append(f"check: {name}: {'PASS' if ok else 'FAIL'}")
            if not ok:
                self.outcome = "FAIL"

    def lines(self) -> list[str]:
        out = [f"command: {self.command}"]
        for path, digest in self.inputs:
            out.append(f"input: {path} sha256={digest}")
        if self.seed is not None:
            out.append(f"seed: {self.seed}")
        out.extend(self.checks)
        out.append(f"outcome: {self.outcome}")
        return out

    def emit(self, out_dir: Path | None) -> None:
        text = "\n".join(self.lines()) + "\n"
        if out_dir is not None:
            (out_dir / "report.txt").write_text(text)
        sys.stdout.write(text)
        sys.stdout.write(f"wall_time: {time.perf_counter() - self._start:.3f}s\n")

    @property
    def exit_code(self) -> int:
        return EXIT_PASS if self.outcome == "PASS" else EXIT_FAIL


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_facet(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise BadParams(f"{flag} takes vertex indices, got {text!r}") from None


def _load_parts(path) -> tuple[tuple[int, ...], ...]:
    parts = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                parts.append(tuple(int(tok) for tok in line.split()))
            except ValueError:
                raise ParseError(f"non-integer field in {line!r}", lineno) from None
    return tuple(parts)


def _check_chain(report: RunReport, rep: chain_mod.ChainReport) -> None:
    for name, value in rep.entries():
        report.check(name, value=value)


def cmd_stats(args) -> int:
    report = RunReport("stats")
    report.add_input(args.path)
    h = Hypergraph.load(args.path)
    report.check("n", value=h.n)
    report.check("edges", value=len(h.edges))
    report.check("delta_star", value=h.min_supported_codegree())
    for d in range(1, h.k):
        report.check(f"delta_star_{d}", value=h.min_supported_d_degree(d).delta_star_d)
    comps, isolated = tight_components(h)
    report.check("tight_components", value=len(comps))
    report.check("isolated_vertices", value=len(isolated))
    report.emit(_out_dir(args))
    return report.exit_code


def cmd_verify_sphere(args) -> int:
    report = RunReport("verify-sphere")
    report.add_input(args.path)
    complex_ = SimplicialComplex.load(args.path)
    cert = verify_sphere(complex_, shelling_budget=args.budget)
    report.check("level", value=cert.level.value)
    report.check("euler", value=cert.euler)
    report.check("certificate", ok=cert.level is not CertLevel.REJECTED)
    if cert.failure_reason:
        report.check("reason", value=cert.failure_reason)
    if args.host:
        report.add_input(args.host)
        host = Hypergraph.load(args.host)
        report.check("spanning", ok=is_spanning_copy(complex_, host))
    report.emit(_out_dir(args))
    return report.exit_code


def cmd_sphere_partite(args) -> int:
    report = RunReport("sphere partite")
    if args.kind == "a":
        sphere = partite_sphere_a(args.k, args.length)
    else:
        sphere = partite_sphere_b(args.k, args.length)
    cert = verify_sphere(sphere, shelling_budget=args.budget)
    report.check("facets", value=len(sphere.facets))
    report.check("level", value=cert.level.value)
    report.check("certificate", ok=cert.level is not CertLevel.REJECTED)
    out = _out_dir(args)
    if out is not None:
        sphere.save(out / "sphere.sc")
    report.emit(out)
    return report.exit_code


def cmd_sphere_path(args) -> int:
    report = RunReport("sphere path")
    dcs = tight_path_blowup_sphere(args.k, args.length)
    from .spheres import check_doubly_covering

    violations = check_doubly_covering(dcs, spanning=True)
    report.check("facets", value=len(dcs.sphere.facets))
    report.check("doubly_covering", ok=not violations)
    for v in violations:
        report.check("violation", value=v)
    out = _out_dir(args)
    if out is not None:
        dcs.sphere.save(out / "sphere.sc")
        with open(out / "families.manifest", "w") as fh:
            for e in dcs.blowup.path_edges():
                e_txt = " ".join(str(i) for i in e)
                f_txt = " ".join(str(v) for v in dcs.family_f[e])
                fp_txt = " ".join(str(v) for v in dcs.family_fp[e])
                fh.write(f"e: {e_txt} | f: {f_txt} | fp: {fp_txt}\n")
    report.emit(out)
    return report.exit_code


def cmd_allocate(args) -> int:
    report = RunReport("allocate")
    report.add_input(args.base)
    report.add_input(args.parts)
    base = Hypergraph.load(args.base)
    parts = _load_parts(args.parts)
    singleton = next((x for x, p in enumerate(parts) if len(p) == 1), None)
    blowup = Blowup(base=base, parts=parts, singleton=singleton)
    f1, f2 = _parse_facet(args.f1, "--f1"), _parse_facet(args.f2, "--f2")
    result = allocate(base, blowup, f1, f2)
    rep = result.report
    report.check("spanning", ok=rep.spanning)
    report.check("facets_in_host", ok=rep.facets_in_host)
    report.check("f1_is_facet", ok=rep.f1_is_facet)
    report.check("f2_is_facet", ok=rep.f2_is_facet)
    report.check("certificate", ok=rep.certificate.level is not CertLevel.REJECTED)
    report.check("level", value=rep.certificate.level.value)
    out = _out_dir(args)
    if out is not None:
        result.sphere.save(out / "sphere.sc")
    report.emit(out)
    return report.exit_code


def _chain_from_args(args, report: RunReport):
    if getattr(args, "chain", None):
        report.add_input(args.chain)
        certificate = chain_mod.ChainCertificate.load(args.chain)
        if getattr(args, "host", None):
            report.add_input(args.host)
            host = Hypergraph.load(args.host)
        else:
            host = chain_mod.LazyChainHost(certificate)
        return host, certificate
    if getattr(args, "host", None):
        raise BadParams("--host needs --chain")
    generated = {"-k": args.k, "-s": args.s, "--links": args.links, "--part-size": args.part_size}
    missing = [flag for flag, value in generated.items() if value is None]
    if missing:
        raise BadParams(f"give --chain, or {' '.join(missing)} to generate a chain")
    instance = chain_mod.generate_chain_host(
        k=args.k,
        s=args.s,
        num_links=args.links,
        part_size=args.part_size,
        seed=args.seed,
        singleton=args.singleton,
    )
    return instance.host, instance.certificate


def cmd_chain_gen(args) -> int:
    report = RunReport("chain gen", seed=args.seed)
    instance = chain_mod.generate_chain_host(
        k=args.k,
        s=args.s,
        num_links=args.links,
        part_size=args.part_size,
        seed=args.seed,
        singleton=args.singleton,
    )
    rep = chain_mod.verify_chain(instance.host, instance.certificate)
    report.check("chain_valid", ok=rep.ok)
    _check_chain(report, rep)
    out = _out_dir(args)
    if out is not None:
        instance.certificate.save(out / "chain.chain")
        if isinstance(instance.host, Hypergraph):
            instance.host.save(out / "host.hg")
    report.emit(out)
    return report.exit_code


def cmd_chain_verify(args) -> int:
    report = RunReport("chain verify")
    host, certificate = _chain_from_args(args, report)
    rep = chain_mod.verify_chain(host, certificate)
    _check_chain(report, rep)
    report.check("chain_valid", ok=rep.ok)
    report.emit(_out_dir(args))
    return report.exit_code


def _solve_and_check(host, certificate, report: RunReport):
    sphere = chain_mod.spanning_sphere(host, certificate)
    cert = verify_sphere(sphere, attempt_shelling=False)
    report.check("spanning", ok=is_spanning_copy(sphere, host))
    report.check("certificate", ok=cert.level is not CertLevel.REJECTED)
    report.check("level", value=cert.level.value)
    return sphere


def cmd_chain_solve(args) -> int:
    report = RunReport("chain solve")
    host, certificate = _chain_from_args(args, report)
    rep = chain_mod.verify_chain(host, certificate)
    if not rep.ok:
        raise ChainInvalid("; ".join(m for _, m in rep.violations))
    sphere = _solve_and_check(host, certificate, report)
    out = _out_dir(args)
    if out is not None:
        sphere.save(out / "sphere.sc")
    report.emit(out)
    return report.exit_code


def cmd_pipeline(args) -> int:
    report = RunReport("pipeline", seed=args.seed)
    host, certificate = _chain_from_args(args, report)
    rep = chain_mod.verify_chain(host, certificate)
    report.check("chain_valid", ok=rep.ok)
    out = _out_dir(args)
    if rep.ok:
        sphere = _solve_and_check(host, certificate, report)
        if out is not None:
            sphere.save(out / "sphere.sc")
            certificate.save(out / "chain.chain")
    else:
        _check_chain(report, rep)
    report.emit(out)
    return report.exit_code


def cmd_extremal_pg(args) -> int:
    report = RunReport("extremal pg")
    report.add_input(args.input)
    h = Hypergraph.load(args.input)
    try:
        epsilon = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise BadParams(f"--epsilon takes a fraction, got {args.epsilon!r}") from None
    predicate = extremal_mod.dirac_supported_property(epsilon, h.k)
    pg = extremal_mod.property_graph(h, predicate, args.s, budget=args.budget)
    report.check("edges", value=len(pg.edges))
    out = _out_dir(args)
    if out is not None:
        pg.save(out / "property_graph.hg")
    report.emit(out)
    return report.exit_code


def cmd_extremal_turan(args) -> int:
    report = RunReport("extremal turan")
    report.add_input(args.input)
    p = Hypergraph.load(args.input)
    found = extremal_mod.find_partite_blowup(p, args.b, budget=args.budget)
    report.check("found", ok=found is not None)
    out = _out_dir(args)
    if out is not None and found is not None:
        with open(out / "blowup.parts", "w") as fh:
            for part in found:
                fh.write(" ".join(str(v) for v in part) + "\n")
    report.emit(out)
    return report.exit_code


def cmd_extremal_pigeonhole(args) -> int:
    report = RunReport("extremal pigeonhole")
    report.add_input(args.input)
    report.add_input(args.parts)
    h = Hypergraph.load(args.input)
    parts = _load_parts(args.parts)
    family = _family_from_parts(h, parts)
    result = extremal_mod.pigeonhole_blowup(h, parts, family, args.b, budget=args.budget)
    report.check("found", ok=result is not None)
    out = _out_dir(args)
    if out is not None and result is not None:
        member, blowup = result
        member.save(out / "member.hg")
        with open(out / "blowup.parts", "w") as fh:
            for part in blowup:
                fh.write(" ".join(str(v) for v in part) + "\n")
    report.emit(out)
    return report.exit_code


def _family_from_parts(h, parts):
    """Family for the pigeonhole CLI: every induced labelled graph seen on a
    transversal, so the lemma's hypothesis holds and the majority colour is
    extracted."""
    from itertools import product as iproduct

    seen = {}
    for tr in iproduct(*parts):
        g = extremal_mod.induced_subgraph(h, tr)
        seen[g.edges] = g
    return list(seen.values())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spansphere",
        description="Build and verify spanning simplicial spheres in dense hypergraphs.",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, budget=False, seed=False):
        p.add_argument("--out", default=None, help="directory for artifacts")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_SHELLING_BUDGET)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("stats", help="degree/connectivity statistics of a .hg file")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify-sphere", help="graded sphere verification of a .sc file")
    p.add_argument("path")
    p.add_argument("--host", default=None, help=".hg file to test spanning against")
    common(p, budget=True)
    p.set_defaults(func=cmd_verify_sphere)

    sphere = sub.add_parser("sphere", help="explicit sphere constructions")
    ssub = sphere.add_subparsers(dest="sphere_command")
    p = ssub.add_parser("partite", help="spanning sphere of a complete partite host")
    p.add_argument("--kind", choices=("a", "b"), required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--length", type=int, required=True, dest="length")
    common(p, budget=True)
    p.set_defaults(func=cmd_sphere_partite)
    p = ssub.add_parser("path", help="doubly edge-covering sphere in a path blow-up")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--length", type=int, required=True, dest="length")
    common(p)
    p.set_defaults(func=cmd_sphere_path)

    p = sub.add_parser("allocate", help="spanning sphere of a blow-up with two facets")
    p.add_argument("--base", required=True)
    p.add_argument("--parts", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    common(p)
    p.set_defaults(func=cmd_allocate)

    chain = sub.add_parser("chain", help="blow-up chain generation/verification/solving")
    csub = chain.add_subparsers(dest="chain_command")
    p = csub.add_parser("gen", help="generate a synthetic chain host")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--links", type=int, required=True)
    p.add_argument("--part-size", type=int, required=True, dest="part_size")
    p.add_argument("--singleton", action="store_true")
    common(p, seed=True)
    p.set_defaults(func=cmd_chain_gen)
    p = csub.add_parser("verify", help="verify a chain certificate")
    p.add_argument("--chain", required=True)
    p.add_argument("--host", default=None)
    common(p)
    p.set_defaults(func=cmd_chain_verify)
    p = csub.add_parser("solve", help="assemble the spanning sphere of a chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--host", default=None)
    common(p)
    p.set_defaults(func=cmd_chain_solve)

    p = sub.add_parser("pipeline", help="chain verify + solve + final verification")
    p.add_argument("--chain", default=None)
    p.add_argument("--host", default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-s", type=int, default=None)
    p.add_argument("--links", type=int, default=None)
    p.add_argument("--part-size", type=int, default=None, dest="part_size")
    p.add_argument("--singleton", action="store_true")
    common(p, seed=True)
    p.set_defaults(func=cmd_pipeline)

    extremal = sub.add_parser("extremal", help="toy-scale density tools")
    esub = extremal.add_subparsers(dest="extremal_command")
    p = esub.add_parser("pg", help="property graph of a host")
    p.add_argument("--input", required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--epsilon", default="1/10")
    common(p, budget=True)
    p.set_defaults(func=cmd_extremal_pg)
    p = esub.add_parser("turan", help="complete partite subgraph search")
    p.add_argument("--input", required=True)
    p.add_argument("-b", type=int, required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_extremal_turan)
    p = esub.add_parser("pigeonhole", help="majority-colour blow-up extraction")
    p.add_argument("--input", required=True)
    p.add_argument("--parts", required=True)
    p.add_argument("-b", type=int, required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_extremal_pigeonhole)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help()
        return EXIT_ERROR
    try:
        return args.func(args)
    except (SphereError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
