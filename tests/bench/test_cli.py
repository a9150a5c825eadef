"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.kernel == "seg_plus_scan"
        assert args.lmul == [1, 2, 4, 8]


class TestCommands:
    def test_table(self, capsys):
        assert main(["table", "7"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out and "115,039" in out

    def test_table_unknown(self, capsys):
        assert main(["table", "99"]) == 2

    def test_advise(self, capsys):
        assert main(["advise", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "choose LMUL=4" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--sizes", "100", "1000", "--lmul", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "LMUL=4" in out and "145" in out

    def test_sort_radix(self, capsys):
        assert main(["sort", "--n", "500", "--algo", "radix"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_sort_quicksort(self, capsys):
        assert main(["sort", "--n", "300", "--algo", "quicksort"]) == 0
        assert "quicksort" in capsys.readouterr().out

    def test_fuse(self, capsys):
        assert main(["fuse", "--n", "200", "--vlen", "128"]) == 0
        out = capsys.readouterr().out
        assert "fuse [0, 1, 2, 3]" in out          # the after-dump
        assert "plan: 4 nodes" in out              # the before-dump
        assert "bit-identical" in out

    def test_fuse_filter_pipeline(self, capsys):
        assert main(["fuse", "--pipeline", "filter", "--n", "200",
                     "--vlen", "128", "--codegen", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "pack" in out and "keep" in out

    def test_fuse_backend_flag(self, capsys):
        for backend in ("codegen", "native"):
            assert main(["fuse", "--n", "200", "--vlen", "128",
                         "--backend", backend]) == 0
            assert "bit-identical" in capsys.readouterr().out
        for removed in ("interp", "native-speed"):
            with pytest.raises(SystemExit) as exc:
                main(["fuse", "--backend", removed])
            assert exc.value.code == 2

    def test_bench_out_merged_grid_jobs1(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "grid.json"
        assert main(["bench", "--suite", "all", "--n", "2000",
                     "--jobs", "1", "--out", str(out_file)]) == 0
        assert f"wrote merged grid to {out_file}" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        # the merged document carries every suite that ran
        assert set(doc) == {"meta", "fusion", "batch", "codegen"}
        assert doc["meta"]["jobs"] == 1
        assert len(doc["fusion"]) == 4
        assert all(c["identical"] for c in doc["fusion"])
        assert all(c["identical_results"] and c["identical_counters"]
                   for c in doc["batch"])
        assert all(c["codegen_instr"] == c["strict_instr"]
                   for c in doc["codegen"])

    def test_bench_out_matches_across_jobs(self, tmp_path):
        # the merged grid is computed by the parent at any --jobs count,
        # and worker fan-out must not change a single byte of it
        docs = []
        for jobs, name in ((1, "j1.json"), (2, "j2.json")):
            out_file = tmp_path / name
            assert main(["bench", "--suite", "fusion", "--n", "2000",
                         "--jobs", str(jobs), "--out", str(out_file)]) == 0
            docs.append(out_file.read_text().replace(
                f'"jobs": {jobs}', '"jobs": X'))
        assert docs[0] == docs[1]
