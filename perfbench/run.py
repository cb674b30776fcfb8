"""spansphere benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through spansphere's public API from the checkout's
`src/` for S seconds of whole rounds, checks every output with the
independent checks in `checks.py`, and prints one JSON object as its last
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the tracer in `tracing.py`
is installed after set-up and the per-layer metrics are reported instead.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("chain_k3", "wide_link", "dense_host", "verify_mix")
SETUP_REPEATS = 3
TAIL_PERCENTILE = 90
IMPORTS = "import spansphere.chain, spansphere.complexes"

UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "vertices_per_s": "vertices/s",
    "verdict_s": "s",
    "verdict_tail_s": "s",
    "facets_per_s": "facets/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One timed operation: a pipeline instance or one checker verdict."""

    seconds: float = 0.0  # wall time of the whole operation
    verdict: float = 0.0  # part spent on the graded certificate
    vertices: int = 0
    facets: int = 0
    failed: bool = False
    problems: list[str] = field(default_factory=list)


# ------------------------------------------------------------ chain workloads


class ChainWorkload:
    """Rounds of `spansphere pipeline` instances: generate_chain_host,
    verify_chain, spanning_sphere, verify_sphere, is_spanning_copy."""

    def __init__(self, name: str, seed: int):
        self.specs = inputs.chain_round(name, seed)
        self.warmups = inputs.warmup_specs(name)

    def prepare(self) -> None:
        for spec in self.warmups:  # outcomes are checked in the rounds
            run_op(self, spec, f"warm-up {spec.label}")

    def operations(self):
        return list(self.specs)

    def close(self) -> None:
        pass

    def run_one(self, spec: inputs.ChainSpec) -> Op:
        from spansphere import chain, complexes

        op = Op()
        t0 = time.perf_counter()
        instance = chain.generate_chain_host(
            spec.k, spec.s, spec.links, spec.part_size, seed=spec.seed,
            singleton=spec.singleton, materialize=spec.materialize,
        )
        report = chain.verify_chain(instance.host, instance.certificate)
        if not report.ok:
            op.failed = True
            op.problems.append(f"{spec.label}: verify_chain rejected the generated chain")
            return op
        sphere = chain.spanning_sphere(instance.host, instance.certificate, jobs=spec.jobs)
        t1 = time.perf_counter()
        # Collections left pending by the allocation-heavy steps would
        # otherwise land in the short certificate timing at a point that
        # shifts with the seed; the collection itself is not timed.
        gc.collect()
        t2 = time.perf_counter()
        cert = complexes.verify_sphere(sphere, attempt_shelling=False)
        t3 = time.perf_counter()
        spanning = complexes.is_spanning_copy(sphere, instance.host)
        t4 = time.perf_counter()
        op.seconds, op.verdict = (t1 - t0) + (t4 - t2), t3 - t2
        op.vertices, op.facets = len(sphere.vertex_set), len(sphere.facets)
        if cert.level is complexes.CertLevel.REJECTED or not spanning:
            op.failed = True
            op.problems.append(f"{spec.label}: spansphere rejected its own output")
            return op
        self.check(spec, instance, sphere, op)
        return op

    @staticmethod
    def check(spec, instance, sphere, op: Op) -> None:
        links = [(link.parts, link.base.edges) for link in instance.certificate.links]
        parts = checks.PartsMembership(links)
        if spec.materialize:
            host = checks.SortedEdgeList(instance.host.edges)
        else:
            host = parts
        facets = sphere.facets
        for reason in (
            None if len(facets[0]) == spec.k else f"facets have {len(facets[0])} vertices, not {spec.k}",
            checks.check_sphere(facets, spec.k - 1),
            checks.check_spanning(facets, parts.vertex_count),
            checks.check_membership(facets, host),
        ):
            if reason:
                op.problems.append(f"{spec.label}: {reason}")


# ------------------------------------------------------------ checker workload


class MixWorkload:
    """Rounds of `spansphere verify-sphere` verdicts: SimplicialComplex.load
    then verify_sphere on seeded .sc files whose answer is known."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.dir = WORK / f"{name}-seed{seed}"
        self.items: list[inputs.MixItem] = []

    def prepare(self) -> None:
        self.items = inputs.verify_mix(self.seed)
        self.close()
        self.dir.mkdir(parents=True)
        for i, item in enumerate(self.items):
            inputs.write_sc(self.path(i), item)
        for i in range(0, len(self.items), 8):  # outcomes are checked in the rounds
            run_op(self, i, f"warm-up {self.items[i].name}")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, i: int) -> Path:
        return self.dir / f"{i:03d}-{self.items[i].name}.sc"

    def operations(self):
        return list(range(len(self.items)))

    def run_one(self, i: int) -> Op:
        from spansphere.complexes import CertLevel, SimplicialComplex, verify_sphere

        item = self.items[i]
        op = Op()
        t0 = time.perf_counter()
        complex_ = SimplicialComplex.load(self.path(i))
        cert = verify_sphere(complex_)
        op.seconds = op.verdict = time.perf_counter() - t0
        op.vertices, op.facets = len(complex_.vertex_set), len(complex_.facets)
        if complex_.dim != item.dim or complex_.facets != item.facets:
            op.problems.append(f"{item.name}: parsed complex differs from the file's facets")
        if item.sphere:
            # full recognition in dimensions 1-2, at least link-verified above
            want = ("FullDim1", "FullDim2") if item.dim <= 2 else ("LinkVerified", "Shelled")
            if cert.level.value not in want:
                op.problems.append(f"{item.name}: sphere graded {cert.level.value}")
        elif cert.level is not CertLevel.REJECTED:
            op.problems.append(f"{item.name}: non-sphere graded {cert.level.value}")
        return op


# ------------------------------------------------------------------ driving


def make_workload(name: str, seed: int):
    return MixWorkload(name, seed) if name == "verify_mix" else ChainWorkload(name, seed)


def fresh_import_seconds() -> float:
    """Wall time for a new interpreter to import the package from src/."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {IMPORTS}"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, capture_output=True)
    return time.perf_counter() - t0


def run_op(workload, key, label: str) -> Op:
    try:
        return workload.run_one(key)
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return Op(failed=True, problems=[f"{label}: raised"])


def end_to_end(rounds: list[list[Op]], setup_s: float) -> dict[str, float]:
    """Every round repeats the same operations.  Each operation is timed by
    its fastest round, because interference from other processes only adds
    time; the metrics then summarize those times over the round's operations."""
    ops = [[r[j] for r in rounds if not r[j].failed] for j in range(len(rounds[0]))]
    ops = [runs for runs in ops if runs]
    best = [min(op.seconds for op in runs) for runs in ops]
    verdicts = [min(op.verdict for op in runs) for runs in ops]
    vertices = sum(runs[0].vertices for runs in ops)
    facets = sum(runs[0].facets for runs in ops)
    return {
        "setup_s": setup_s,
        "pipeline_s": statistics.fmean(best),
        "vertices_per_s": vertices / sum(best),
        "verdict_s": statistics.median(verdicts),
        "verdict_tail_s": tail(verdicts),
        "facets_per_s": facets / sum(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tail(samples: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile when at least ten samples lie
    beyond it, otherwise the slowest sample."""
    if len(samples) * (100 - TAIL_PERCENTILE) / 100 >= 10:
        return statistics.quantiles(samples, n=100)[TAIL_PERCENTILE - 1]
    return max(samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "spansphere" / "__init__.py").is_file():
        print(f"spansphere sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Set-up: fresh-interpreter imports and input generation plus warm-up,
    # each repeated; setup_s is the sum of the two medians.
    imports = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    __import__("spansphere.chain")
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = make_workload(args.workload, args.seed)
        workload.prepare()
        prep.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(prep)

    try:
        return measure(args, workload, setup_s)
    finally:
        workload.close()


def measure(args, workload, setup_s: float) -> int:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ops = workload.operations()
    rounds: list[list[Op]] = []
    traced_rounds = []
    round_seconds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        r = len(rounds)
        gc.collect()  # every round starts from a collected heap, as a fresh process would
        t_round = time.perf_counter()
        done = []
        for j, key in enumerate(ops):
            if tracer:
                tracer.instance = [r, j]
                tracer.hosts.clear()
            done.append(run_op(workload, key, f"round {r} op {j}"))
        rounds.append(done)
        round_seconds.append(time.perf_counter() - t_round)
        if tracer:
            traced_rounds.append(tracer.take_counts())
    if tracer:
        tracer.uninstall()

    all_ops = [op for ops_ in rounds for op in ops_]
    attempted, failed = len(all_ops), sum(op.failed for op in all_ops)
    for message in dict.fromkeys(p for op in all_ops for p in op.problems):
        print(message, file=sys.stderr)
    if failed == attempted:
        print("every operation failed; nothing to measure", file=sys.stderr)
        return 1
    correct = not any(op.problems for op in all_ops if not op.failed)

    e2e = end_to_end(rounds, setup_s)
    if tracer:
        # the same figure as the untraced pipeline_s; their ratio is the
        # tracing overhead
        print(f"{args.workload} pipeline_s under tracing = {e2e['pipeline_s']:.6g} s")
        metrics = traced_metrics(tracer, traced_rounds)
        WORK.mkdir(parents=True, exist_ok=True)
        # every round repeats the same work, so the first one shows it all
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl", rounds=1)
        units = tracing.UNITS
    else:
        metrics, units = e2e, UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(
        f"{args.workload} rounds = {len(rounds)} (fastest {min(round_seconds):.4g} s, "
        f"median {statistics.median(round_seconds):.4g} s), attempted = {attempted}, failed = {failed}"
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(tracer, round_counts) -> dict[str, float]:
    """Per-layer metrics per round, averaged over the run's rounds (every
    round repeats the same inputs, so counts are the same in each)."""
    by_round: dict[int, list] = {}
    for idx, span in enumerate(tracer.spans):
        by_round.setdefault(span[4][0], []).append((idx, span))
    values = [tracing.per_layer(by_round.get(r, []), counts) for r, counts in enumerate(round_counts)]
    means = {m: statistics.fmean(v[m] for v in values) for m in values[0]}
    return {m: int(x) if tracing.PER_LAYER[m][0] == "counter" and x.is_integer() else x for m, x in means.items()}


if __name__ == "__main__":
    sys.exit(main())
