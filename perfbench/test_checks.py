"""Tests of the benchmark's own output checks and input generator.

    python3 -m pytest perfbench/test_checks.py     (or run this file)
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402


def test_octahedron_accepted():
    assert checks.check_2sphere(inputs.cross_polytope(2)) is None


def test_torus_7_rejected():
    assert checks.euler(inputs.torus_7()) == 0
    assert checks.check_2sphere(inputs.torus_7()) is not None


def test_rp2_6_rejected():
    rp2 = inputs.rp2_6()
    assert checks._closed_connected(rp2) is None  # a closed surface ...
    assert checks.euler(rp2) == 1  # ... that is not a sphere
    assert checks.check_2sphere(rp2) is not None


def test_cycles():
    assert checks.check_cycle(inputs.cycle(5)) is None
    assert checks.check_cycle(inputs.disjoint_union(inputs.cycle(3), inputs.cycle(4))) is not None
    assert checks.check_cycle(inputs.wedge(inputs.cycle(3), inputs.cycle(4))) is not None
    assert checks.check_cycle(inputs.cycle(5)[:-1]) is not None


def test_3spheres():
    assert checks.check_3sphere(inputs.simplex_boundary(3)) is None
    assert checks.check_3sphere(inputs.cross_polytope(3)) is None
    assert checks.check_3sphere(inputs.join(inputs.cycle(4), inputs.cycle(5))) is None
    assert checks.check_3sphere(inputs.suspension(inputs.torus_7())) is not None


def test_spanning_and_membership():
    facets = [(0, 2), (1, 2), (0, 1)]
    assert checks.check_spanning(facets, 3) is None
    assert checks.check_spanning(facets, 4) is not None
    # two links sharing vertex 2; the second link's base has no edge {0, 1}
    parts = checks.PartsMembership([(((0,), (1,), (2,)), [(0, 1), (0, 2), (1, 2)]),
                                    (((2,), (3,), (4,)), [(0, 2), (1, 2)])])
    assert parts.vertex_count == 5
    assert (0, 1) in parts and (2, 4) in parts and (3, 4) in parts
    assert (2, 3) not in parts and (0, 3) not in parts
    edges = checks.SortedEdgeList(sorted([(0, 1), (1, 2), (3, 4)]))
    assert (2, 1) in edges and (0, 2) not in edges and (5, 6) not in edges
    assert checks.check_membership(facets, edges) is not None


def test_stacked_spheres_are_spheres():
    rng = random.Random(3)
    assert checks.check_2sphere(inputs.stacked_sphere(2, 40, rng)) is None
    assert checks.check_3sphere(inputs.stacked_sphere(3, 20, rng)) is None


def test_mix_answers_agree_with_the_checks():
    """Up to dimension 3 the known answer of every generated complex is
    confirmed by the independent checks."""
    items = inputs.verify_mix(11)
    assert items == inputs.verify_mix(11)
    assert {item.dim for item in items} == {1, 2, 3, 4, 5}
    for item in items:
        if item.dim <= 3:
            verdict = checks.check_sphere(item.facets, item.dim)
            assert (verdict is None) == item.sphere, (item.name, verdict)


def test_benchmark_json_names_what_the_runs_report():
    import json

    import run
    import tracing

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
