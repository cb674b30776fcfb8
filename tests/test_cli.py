"""CLI surface: commands, exit codes, file outputs."""

from __future__ import annotations

from itertools import combinations

import pytest

from spansphere.chain import lower_bound_codegree
from spansphere.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main
from spansphere.complexes import SimplicialComplex, suspension
from spansphere.hypergraph import Hypergraph


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
    def test_run(self, tmp_path, capsys):
        base = tmp_path / "k6.hg"
        Hypergraph.complete(3, 6).save(base)
        parts_file = tmp_path / "parts.txt"
        lines = []
        nxt = 0
        parts = []
        for _ in range(6):
            parts.append(tuple(range(nxt, nxt + 40)))
            lines.append(" ".join(str(v) for v in parts[-1]))
            nxt += 40
        parts_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        f1 = ",".join(str(parts[x][0]) for x in (0, 1, 2))
        f2 = ",".join(str(parts[x][0]) for x in (3, 4, 5))
        code = main(
            [
                "allocate",
                "--base", str(base),
                "--parts", str(parts_file),
                "--f1", f1,
                "--f2", f2,
                "--out", str(out),
            ]
        )
        assert code == EXIT_PASS
        assert (out / "sphere.sc").exists()
        assert "level = FullDim2" in capsys.readouterr().out


class TestChainCommands:
    def test_gen_verify_solve(self, tmp_path, capsys):
        out = tmp_path / "gen"
        args = ["chain", "gen", "-k", "2", "-s", "4", "--links", "2",
                "--part-size", "14", "--seed", "3", "--out", str(out)]
        assert main(args) == EXIT_PASS
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
        main(["chain", "gen", "-k", "2", "-s", "4", "--links", "2",
              "--part-size", "14", "--seed", "3", "--out", str(out)])
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


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "H.hg", "--jobs", "3"],
            ["stats", "H.hg", "--budget", "1"],
            ["stats", "H.hg", "--seed", "9"],
            ["chain", "verify", "--chain", "C.chain", "--jobs", "2"],
            ["verify-sphere", "S.sc", "--seed", "1"],
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
