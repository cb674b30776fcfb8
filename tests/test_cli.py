"""CLI surface: commands, exit codes, file outputs."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spansphere.chain import ChainCertificate, lower_bound_codegree
from spansphere.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main
from spansphere.complexes import SimplicialComplex, suspension
from spansphere.errors import ParseError
from spansphere.hypergraph import Hypergraph

REPO = Path(__file__).resolve().parents[1]


def write_k5(tmp_path):
    path = tmp_path / "k5.hg"
    Hypergraph.complete(3, 5).save(path)
    return path


def octahedron_file(tmp_path):
    cycle = SimplicialComplex.from_facets([(0, 1), (1, 2), (2, 3), (0, 3)])
    o = suspension(cycle)
    path = tmp_path / "oct.sc"
    o.save(path)
    return path


class TestStats:
    def test_k5(self, tmp_path, capsys):
        assert main(["stats", str(write_k5(tmp_path))]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "delta_star = 3" in out

    def test_edgeless(self, tmp_path, capsys):
        path = tmp_path / "empty.hg"
        path.write_text("3 6\n")
        assert main(["stats", str(path)]) == EXIT_PASS
        assert "delta_star = 0" in capsys.readouterr().out

    def test_lower_bound_host(self, tmp_path, capsys):
        path = tmp_path / "lb.hg"
        lower_bound_codegree(3, 12).host.save(path)
        assert main(["stats", str(path)]) == EXIT_PASS
        assert "delta_star = 5" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("3 5\n0 1\n")
        assert main(["stats", str(path)]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "text, error",
        [
            ("3 5\n0 1 2\n0 1 1\n", "line 3: edge [0, 1, 1] is not a 3-set of distinct vertices"),
            ("3 5\n0 1 5\n", "line 2: edge [0, 1, 5] has a vertex outside 0..4"),
            ("# k n\n1 5\n", "line 2: uniformity must be >= 2, got 1"),
            ("3 -1\n", "line 1: vertex count must be >= 0, got -1"),
        ],
    )
    def test_edge_error_names_line(self, tmp_path, capsys, text, error):
        path = tmp_path / "bad.hg"
        path.write_text(text)
        assert main(["stats", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {error}\n"


class TestVerifySphere:
    def test_octahedron(self, tmp_path, capsys):
        assert main(["verify-sphere", str(octahedron_file(tmp_path))]) == EXIT_PASS
        assert "level = FullDim2" in capsys.readouterr().out

    def test_torus_rejected_exit_1(self, tmp_path, capsys):
        facets = []
        for i in range(7):
            facets.append(tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))))
            facets.append(tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))))
        path = tmp_path / "torus.sc"
        SimplicialComplex.from_facets(facets).save(path)
        assert main(["verify-sphere", str(path)]) == EXIT_FAIL
        assert "Rejected" in capsys.readouterr().out

    def test_spanning_against_host(self, tmp_path, capsys):
        host = tmp_path / "k6.hg"
        Hypergraph.complete(3, 6).save(host)
        code = main(
            ["verify-sphere", str(octahedron_file(tmp_path)), "--host", str(host)]
        )
        assert code == EXIT_PASS
        assert "spanning: PASS" in capsys.readouterr().out


class TestSphereCommands:
    def test_partite(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["sphere", "partite", "--kind", "a", "-k", "3", "-l", "2", "--out", str(out)]
        )
        assert code == EXIT_PASS
        assert (out / "sphere.sc").exists()
        loaded = SimplicialComplex.load(out / "sphere.sc")
        assert len(loaded.facets) == 8

    def test_path_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sphere", "path", "-k", "3", "-l", "5", "--out", str(out)])
        assert code == EXIT_PASS
        manifest = (out / "families.manifest").read_text().splitlines()
        assert len(manifest) == 3  # path on 5 vertices has 3 edges
        for line in manifest:
            assert line.startswith("e: ") and "| f: " in line and "| fp: " in line


class TestAllocateCommand:
    def argv(self, tmp_path, f1="0,40,80"):
        """allocate on K_6^(3) blown up into six parts of 40 vertices."""
        base = tmp_path / "k6.hg"
        Hypergraph.complete(3, 6).save(base)
        parts_file = tmp_path / "parts.txt"
        parts_file.write_text(
            "".join(" ".join(str(v) for v in range(x, x + 40)) + "\n" for x in range(0, 240, 40))
        )
        return ["allocate", "--base", str(base), "--parts", str(parts_file),
                "--f1", f1, "--f2", "120,160,200"]

    def test_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(self.argv(tmp_path) + ["--out", str(out)])
        assert code == EXIT_PASS
        assert (out / "sphere.sc").exists()
        assert "level = FullDim2" in capsys.readouterr().out

    def test_parts_parse_error_exit_2(self, tmp_path, capsys):
        argv = self.argv(tmp_path)
        parts_file = tmp_path / "parts.txt"
        parts_file.write_text(parts_file.read_text() + "0 1 x\n")
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: line 7: non-integer field in '0 1 x'\n"

    def test_bad_facet_flag_exit_2(self, tmp_path, capsys):
        assert main(self.argv(tmp_path, f1="0 x")) == EXIT_ERROR
        assert capsys.readouterr().err == "error: --f1 takes vertex indices, got '0 x'\n"


def gen_small_chain(out) -> int:
    """Two links over K_4^(2), parts of about 14: chain.chain and host.hg."""
    return main(["chain", "gen", "-k", "2", "-s", "4", "--links", "2",
                 "--part-size", "14", "--seed", "3", "--out", str(out)])


class TestChainCommands:
    def test_gen_verify_solve(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert gen_small_chain(out) == EXIT_PASS
        assert (out / "chain.chain").exists()
        assert (out / "host.hg").exists()
        capsys.readouterr()

        code = main(["chain", "verify", "--chain", str(out / "chain.chain"),
                     "--host", str(out / "host.hg")])
        assert code == EXIT_PASS
        assert "chain_valid: PASS" in capsys.readouterr().out

        solve_out = tmp_path / "solve"
        code = main(["chain", "solve", "--chain", str(out / "chain.chain"),
                     "--host", str(out / "host.hg"), "--out", str(solve_out)])
        assert code == EXIT_PASS
        assert (solve_out / "sphere.sc").exists()
        assert "level = FullDim1" in capsys.readouterr().out

    def test_corrupted_shared_line(self, tmp_path, capsys):
        out = tmp_path / "gen"
        main(["chain", "gen", "-k", "3", "-s", "6", "--links", "2",
              "--part-size", "35", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        text = (out / "chain.chain").read_text().splitlines()
        # clobber a vertex on the SHARED line
        shared_idx = text.index("SHARED") + 1
        fields = text[shared_idx].split()
        fields[0] = "0"
        text[shared_idx] = " ".join(fields)
        bad = tmp_path / "bad.chain"
        bad.write_text("\n".join(text) + "\n")
        code = main(["chain", "verify", "--chain", str(bad)])
        assert code == EXIT_FAIL
        assert "property (5)" in capsys.readouterr().out

    def test_solve_host_missing_transversal_exit_2(self, tmp_path, capsys):
        out = tmp_path / "gen"
        gen_small_chain(out)
        capsys.readouterr()
        host = Hypergraph.load(out / "host.hg")
        holed = tmp_path / "holed.hg"
        Hypergraph.from_edges(host.k, host.n, host.edges[1:]).save(holed)
        code = main(["chain", "solve", "--chain", str(out / "chain.chain"),
                     "--host", str(holed)])
        assert code == EXIT_ERROR
        assert "not in H" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["chain", "verify", "--chain", str(tmp_path / "missing.chain")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, error",
        [
            ("LINKS x\n", "error: line 1: "),
            ("LINKS 1\nPARAMS 1/0 1 1 1\n", "error: line 2: "),
            ("LINKS 0\nPARAMS 0 1/10 1 1\n", "error: a chain needs at least one link"),
        ],
    )
    def test_malformed_header_exit_2(self, tmp_path, capsys, text, error):
        bad = tmp_path / "bad.chain"
        bad.write_text(text)
        assert main(["chain", "verify", "--chain", str(bad)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(error)

    @pytest.mark.parametrize(
        "edit, link, error",
        [
            ("singleton names a large part", 1, "declared singleton part 0 has size 14"),
            ("singleton out of range", 0, "declared singleton part 99 is not a base vertex"),
            ("overlapping parts", 1, "parts are not disjoint"),
        ],
    )
    def test_malformed_link_exit_2(self, tmp_path, capsys, edit, link, error):
        out = tmp_path / "gen"
        gen_small_chain(out)
        capsys.readouterr()
        lines = (out / "chain.chain").read_text().splitlines()
        if edit == "singleton names a large part":
            lines.insert(lines.index("SHARED"), "SINGLETON 0")
        elif edit == "singleton out of range":
            lines.insert(lines.index("LINK 1"), "SINGLETON 99")
        else:
            first_part = lines.index("PARTS", lines.index("LINK 1")) + 1
            lines[first_part] += " " + lines[first_part + 1].split()[0]
        bad = tmp_path / "bad.chain"
        bad.write_text("\n".join(lines) + "\n")
        link_line = lines.index(f"LINK {link}") + 1
        with pytest.raises(ParseError) as exc:
            ChainCertificate.load(bad)
        assert exc.value.line == link_line
        assert str(exc.value).startswith(f"line {link_line}: link {link}: {error}")
        for host in ([], ["--host", str(out / "host.hg")]):
            assert main(["chain", "verify", "--chain", str(bad), *host]) == EXIT_ERROR
            assert capsys.readouterr().err == f"error: {exc.value}\n"


    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("0 1", "0 4", "edge [0, 4] has a vertex outside 0..3"),
            ("0 1", "1 1", "edge [1, 1] is not a 2-set of distinct vertices"),
            ("0 1", "0 1 2", "edge [0, 1, 2] is not a 2-set of distinct vertices"),
            ("2 4", "1 4", "uniformity must be >= 2, got 1"),
        ],
    )
    def test_malformed_base_exit_2(self, tmp_path, capsys, old, new, error):
        # The first such line of LINK 1's base is replaced.
        out = tmp_path / "gen"
        gen_small_chain(out)
        capsys.readouterr()
        lines = (out / "chain.chain").read_text().splitlines()
        bad_line = lines.index(old, lines.index("LINK 1")) + 1
        lines[bad_line - 1] = new
        bad = tmp_path / "bad.chain"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            ChainCertificate.load(bad)
        assert exc.value.line == bad_line
        assert str(exc.value) == f"line {bad_line}: {error}"
        assert main(["chain", "verify", "--chain", str(bad)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.fixture(scope="module")
def small_chain_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain")
    with contextlib.redirect_stdout(io.StringIO()):
        gen_small_chain(out)
    return (out / "chain.chain").read_text().splitlines(), out / "mutated.chain"


class TestChainFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        whole_line=st.booleans(),
        op=st.sampled_from(["delete", "duplicate", "replace"]),
        i=st.integers(0, 999),
        j=st.integers(0, 999),
        token=st.sampled_from(["-1", "0", "1", "2", "99", "x", "1/0", "-1/2"]),
    )
    @example(whole_line=False, op="replace", i=1, j=2, token="-1")  # gamma = -1
    def test_mutated_chain_exits_0_1_or_2(self, small_chain_lines, whole_line, op, i, j, token):
        # Line i, or token j of it, is deleted, duplicated or replaced (by
        # line j or by `token`): the CLI verdict is 0 or 1, or exit 2 with a
        # one-line error, never a traceback.
        lines, path = small_chain_lines
        path.write_text("\n".join(mutate(lines, whole_line, op, i, j, token)) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["chain", "verify", "--chain", str(path)])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_ERROR)
        if code == EXIT_ERROR:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


def mutate(lines, whole_line, op, i, j, token):
    """Line i, or token j of it, deleted, duplicated or replaced (by line j
    or by `token`)."""
    lines = list(lines)
    i %= len(lines)
    if whole_line:
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[j % len(lines)]
    else:
        tokens = lines[i].split()
        j %= len(tokens)
        if op == "delete":
            del tokens[j]
        elif op == "duplicate":
            tokens.insert(j, tokens[j])
        else:
            tokens[j] = token
        lines[i] = " ".join(tokens)
    return lines


class TestHypergraphFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        edgeless=st.booleans(),
        whole_line=st.booleans(),
        op=st.sampled_from(["delete", "duplicate", "replace"]),
        i=st.integers(0, 999),
        j=st.integers(0, 999),
        token=st.sampled_from(["-1", "0", "1", "2", "4", "5", "99", "x", "1/0"]),
    )
    @example(edgeless=True, whole_line=False, op="replace", i=0, j=1, token="-1")  # 3 -1
    def test_mutated_hg_exits_0_or_2(
        self, tmp_path_factory, edgeless, whole_line, op, i, j, token
    ):
        # stats on a mutated K_5^(3), or on its header line alone, either
        # reports or exits 2 with a one-line error, never a traceback.
        path = write_k5(tmp_path_factory.mktemp("hg"))
        lines = path.read_text().splitlines()[: 1 if edgeless else None]
        lines = mutate(lines, whole_line, op, i, j, token)
        path.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["stats", str(path)])
        assert code in (EXIT_PASS, EXIT_ERROR)
        if code == EXIT_ERROR:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


class TestSphereFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        whole_line=st.booleans(),
        op=st.sampled_from(["delete", "duplicate", "replace"]),
        i=st.integers(0, 999),
        j=st.integers(0, 999),
        token=st.sampled_from(["-1", "0", "1", "2", "5", "6", "99", "x", "1/0"]),
    )
    @example(whole_line=False, op="replace", i=1, j=1, token="0")  # facet 0 0 4
    def test_mutated_sc_exits_0_1_or_2(self, tmp_path_factory, whole_line, op, i, j, token):
        # The CLI verdict on a mutated octahedron is 0 or 1, or exit 2 with
        # a one-line error, never a traceback.
        path = octahedron_file(tmp_path_factory.mktemp("sc"))
        lines = mutate(path.read_text().splitlines(), whole_line, op, i, j, token)
        path.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify-sphere", str(path)])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_ERROR)
        if code == EXIT_ERROR:
            assert err.getvalue().startswith("error: line ")
            assert err.getvalue().count("\n") == 1

    def test_repeated_vertex_names_line(self, tmp_path, capsys):
        path = octahedron_file(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = "0 0 2"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify-sphere", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: line 3: facet (0, 0, 2) has repeated vertices\n"


class TestPipeline:
    def test_generated(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["pipeline", "-k", "2", "-s", "4", "--links", "3",
                     "--part-size", "14", "--seed", "5", "--out", str(out)])
        assert code == EXIT_PASS
        report = (out / "report.txt").read_text()
        assert "outcome: PASS" in report
        assert "wall_time" not in report  # deterministic artifact

    def test_no_input_exit_2(self, capsys):
        assert main(["pipeline", "-k", "3"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: give --chain, or -s --links --part-size to generate a chain\n"

    def test_host_without_chain_exit_2(self, tmp_path, capsys):
        code = main(["pipeline", "-k", "2", "-s", "4", "--links", "1", "--part-size", "14",
                     "--host", str(tmp_path / "missing.hg")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: --host needs --chain\n"


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "H.hg", "--jobs", "3"],
            ["stats", "H.hg", "--budget", "1"],
            ["stats", "H.hg", "--seed", "9"],
            ["chain", "verify", "--chain", "C.chain", "--jobs", "2"],
            ["verify-sphere", "S.sc", "--seed", "1"],
            ["allocate", "--base", "R.hg", "--parts", "P", "--f1", "0", "--f2", "1",
             "--seed", "1"],
            ["chain", "solve", "--chain", "C.chain", "--seed", "1"],
            ["extremal", "pg", "--input", "H.hg", "-s", "5", "--seed", "1"],
            ["chain", "solve", "--chain", "C.chain", "--jobs", "2"],
            ["pipeline", "-k", "3", "-s", "6", "--links", "3", "--part-size", "35",
             "--jobs", "2"],
        ],
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExtremalCommands:
    def test_pg(self, tmp_path, capsys):
        host = tmp_path / "h.hg"
        Hypergraph.complete(3, 8).save(host)
        out = tmp_path / "out"
        code = main(["extremal", "pg", "--input", str(host), "-s", "5",
                     "--epsilon", "1/100", "--out", str(out)])
        assert code == EXIT_PASS
        pg = Hypergraph.load(out / "property_graph.hg")
        assert len(pg.edges) == 56

    @pytest.mark.parametrize("epsilon", ["x", "1/0"])
    def test_pg_bad_epsilon_exit_2(self, tmp_path, capsys, epsilon):
        host = tmp_path / "h.hg"
        Hypergraph.complete(3, 6).save(host)
        code = main(["extremal", "pg", "--input", str(host), "-s", "5", "--epsilon", epsilon])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --epsilon takes a fraction, got {epsilon!r}\n"

    def test_turan(self, tmp_path, capsys):
        g = tmp_path / "g.hg"
        Hypergraph.from_edges(
            2, 8, [(i, 4 + j) for i in range(4) for j in range(4)]
        ).save(g)
        out = tmp_path / "out"
        code = main(["extremal", "turan", "--input", str(g), "-b", "2",
                     "--out", str(out)])
        assert code == EXIT_PASS
        assert (out / "blowup.parts").exists()

    @pytest.mark.parametrize("b", ["0", "-1"])
    def test_turan_part_size_below_one_exit_2(self, tmp_path, capsys, b):
        g = tmp_path / "g.hg"
        Hypergraph.from_edges(2, 8, [(i, 4 + j) for i in range(4) for j in range(4)]).save(g)
        code = main(["extremal", "turan", "--input", str(g), "-b", b])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: need part size b >= 1, got b={b}\n"

    def test_pigeonhole_part_outside_host_exit_2(self, tmp_path, capsys):
        h = tmp_path / "h.hg"
        Hypergraph.complete(3, 5).save(h)
        pf = tmp_path / "parts.txt"
        pf.write_text("0 1\n2 3\n4 5\n")
        code = main(["extremal", "pigeonhole", "--input", str(h), "--parts", str(pf), "-b", "1"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: vertex 5 of part 2 is outside 0..4\n"

    def test_pigeonhole(self, tmp_path, capsys):
        from itertools import product

        parts = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        h = tmp_path / "h.hg"
        Hypergraph.from_edges(3, 9, list(product(*parts))).save(h)
        pf = tmp_path / "parts.txt"
        pf.write_text("\n".join(" ".join(str(v) for v in p) for p in parts) + "\n")
        out = tmp_path / "out"
        code = main(["extremal", "pigeonhole", "--input", str(h), "--parts", str(pf),
                     "-b", "2", "--out", str(out)])
        assert code == EXIT_PASS
        assert (out / "member.hg").exists()


class TestScripts:
    def test_demo_pipeline(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ))
        run = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "demo_pipeline.py"), "2", "4", "2", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "certificate: FullDim1" in run.stdout.splitlines()
