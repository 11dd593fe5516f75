import argparse
import concurrent.futures
import contextlib
import dataclasses
import gc
import importlib.util
import io
import math
import re
import shlex
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from qlidar import allocation, cli, fading, metrics, states
from qlidar.channel import ChannelParams, apply_loss
from qlidar.states import ProbeBudget, probe_from_budget, thermal_state

# full single-row output, frozen: schema and values must stay put
GOLDEN_BENCHMARK_ROW = (
    "eta,w2_sq,xi_qbb_overlap,xi_qbb_proxy,xi_qcb,snr_sq_opt\n"
    "0.5,3.36365549783,0.212705097307,0.209007676975,0.216877115065,0.983493010645\n"
)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qlidar", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def read_manifest(path: Path) -> dict:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def assert_parameter_error(argv, out: Path) -> str:
    """Run ``argv`` in-process and check that it exits 2 with ``status = error`` and
    no CSV; return the manifest's error line."""
    assert cli.main([*argv, "--out", str(out)]) == 2
    manifest = read_manifest(out / f"{argv[0]}_manifest.txt")
    assert manifest["status"] == "error"
    assert not list(out.glob("*.csv"))
    return manifest["error"]


def write_csv_per_value(path: Path, header: list[str], rows) -> None:
    """The row-at-a-time writer that ``cli._write_csv`` replaced, kept as its reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".12g") for v in row) + "\n")


def row_major(columns):
    """The rows of a table as ``cli._write_csv`` lays them out: a 2-d last column
    is the product of the two axis columns before it, expanded row-major."""
    if np.ndim(columns[-1]) != 2:
        return zip(*columns)
    row_axis, col_axis, values = columns
    return ((r, c, values[i, j]) for i, r in enumerate(row_axis) for j, c in enumerate(col_axis))


def assert_writers_agree(tmp_path: Path, columns) -> None:
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_csv(tmp_path / "chunked.csv", header, columns)
    write_csv_per_value(tmp_path / "per_value.csv", header, row_major(columns))
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "per_value.csv").read_bytes()


class TestCsvWriter:
    EDGE_VALUES = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                            1e12 - 1.0, 1e12, 1e12 + 1.0, 1.0, -3.0, 1e5, 2.0**53, 0.1])

    @pytest.mark.parametrize("rows", [1, len(EDGE_VALUES), cli._CSV_CHUNK_ROWS - 1,
                                      cli._CSV_CHUNK_ROWS, cli._CSV_CHUNK_ROWS + 1])
    def test_edge_values_and_row_counts_around_a_chunk(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        # every bit pattern: all magnitudes, subnormals, nan payloads, both zeros
        raw = rng.integers(0, 2**64, size=(2, rows), dtype=np.uint64).view(np.float64)
        scaled = rng.normal(size=rows) * 10.0 ** rng.integers(-15, 15, size=rows)
        edge = np.resize(self.EDGE_VALUES, rows)
        assert_writers_agree(tmp_path, [np.arange(rows), *raw, scaled, edge, edge[::-1]])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    def test_integer_columns_print_as_their_float(self, dtype, tmp_path):
        # a column within (-1e12, 1e12) prints with %d; one reaching 1e12 or beyond
        # must keep the float format, which the per-value writer's float(v) pins
        info = np.iinfo(dtype)
        for m in (1, 10**12 - 1, 10**12, 2**53 + 1, info.max, -info.min):
            for extreme in (m, -m):  # each bound is reached by a column's max, then its min
                column = np.array([v for v in (0, 1, -1, extreme) if info.min <= v <= info.max],
                                  dtype=dtype)
                floats = np.linspace(-1.0, 1.0, column.size)
                assert_writers_agree(tmp_path, [column, floats, column[::-1]])
        long = np.resize(np.array([0, 1, 10**6], dtype=dtype), 2 * cli._CSV_CHUNK_ROWS + 3)
        assert_writers_agree(tmp_path, [long, np.arange(long.size) / 3.0])

    @pytest.mark.parametrize("shape", [(1, 1), (1, len(EDGE_VALUES)), (len(EDGE_VALUES), 1),
                                       (101, 96)])
    def test_product_table_is_its_row_major_expansion(self, shape, tmp_path):
        rng = np.random.default_rng(shape)
        # every edge value on an axis long enough to hold them all
        row_axis, col_axis = (np.resize(rng.permutation(self.EDGE_VALUES), n) for n in shape)
        values = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
        assert_writers_agree(tmp_path, [row_axis, col_axis, values])

    def test_every_subcommand_writes_what_the_per_value_writer_writes(self, monkeypatch,
                                                                         tmp_path):
        written = []
        chunked = cli._write_csv

        def both(path, header, columns):
            chunked(path, header, columns)
            reference = path.with_suffix(".reference")
            write_csv_per_value(reference, header, row_major(columns))
            written.append((path, reference))

        monkeypatch.setattr(cli, "_write_csv", both)
        argvs = (["benchmark"], ["benchmark", "--eta", "0.5"], ["heatmap"], ["parametric"],
                 ["fading"])
        for i, argv in enumerate(argvs):
            assert cli.main([*argv, "--out", str(tmp_path / str(i))]) == 0
        assert len(written) == 1 + 1 + 2 + 5 + 4
        for path, reference in written:
            assert path.read_bytes() == reference.read_bytes(), path.name
        # the heatmap's cell order is the row-major order of its per-cell loop
        grid = allocation.allocation_grid(10.0, 0.1, allocation.default_eta_grid(0.01),
                                          allocation.default_lambda_grid(0.01))
        write_csv_per_value(tmp_path / "cells.csv", ["eta", "lambda", "w2_sq"], (
            (eta, lam, grid.scores[i, j])
            for i, eta in enumerate(grid.eta_grid) for j, lam in enumerate(grid.lambda_grid)))
        assert (tmp_path / "2" / "heatmap_scores.csv").read_bytes() == \
            (tmp_path / "cells.csv").read_bytes()


class TestOutputContract:
    """What a run writes is decided in ``main``: the manifest lists exactly the
    CSV files on disk, and a run that exits non-zero writes none."""

    @pytest.mark.parametrize("argv", [
        ("benchmark",),
        ("heatmap", "--grid-step", "0.25"),
        ("parametric", "--grid-step", "0.25"),
        ("fading", "--realizations", "40"),
        ("metrics", "--budget", "5,0.5"),
        ("threshold",),
    ])
    def test_manifest_lists_exactly_the_files_written(self, argv, tmp_path):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        manifest = read_manifest(tmp_path / f"{argv[0]}_manifest.txt")
        listed = [v for k, v in manifest.items() if k.startswith("output_")]
        assert sorted(listed) == sorted(str(p) for p in tmp_path.glob("*.csv"))
        assert len(listed) == {"benchmark": 1, "heatmap": 2, "fading": 4,
                               "parametric": len(cli.PARAMETRIC_SCENARIOS)}.get(argv[0], 0)

    def test_failing_run_writes_no_csv(self, tmp_path):
        # the heatmap grid computes, then n_tot = 0 has no threshold
        assert cli.main(["heatmap", "--n-tot", "0", "--out", str(tmp_path)]) == 2
        manifest = read_manifest(tmp_path / "heatmap_manifest.txt")
        assert manifest["status"] == "error"
        assert not list(tmp_path.glob("*.csv"))
        assert not [k for k in manifest if k.startswith("output_")]
        assert "transition_eta_empirical" not in manifest

    def test_fading_summary_section_is_the_summary_type(self, tmp_path):
        argv = ["fading", "--realizations", "40"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        keys = list(read_manifest(tmp_path / "fading_manifest.txt"))
        last_parameter = list(cli._SUBCOMMANDS["fading"][2])[-1]
        section = keys[keys.index(last_parameter) + 1:keys.index("duration_s")]
        assert [k for k in section if not k.startswith("postselect_")] == \
            [f.name for f in dataclasses.fields(fading.FadingSummary)]


class PoolStarted(RuntimeError):
    pass


def test_grids_start_no_process_and_fading_does(monkeypatch, tmp_path):
    def refuse(self, *args, **kwargs):
        raise PoolStarted(f"a {type(self).__name__} was started")

    # patching the classes themselves catches every name they are imported under
    for executor in (concurrent.futures.ProcessPoolExecutor, concurrent.futures.ThreadPoolExecutor):
        monkeypatch.setattr(executor, "__init__", refuse)
    for command, files in (("heatmap", 2), ("parametric", len(cli.PARAMETRIC_SCENARIOS))):
        for workers in ("1", "2"):
            argv = [command, "--workers", workers, "--out", str(tmp_path / command / workers)]
            assert cli.main(argv) == 0
        serial, pooled = tmp_path / command / "1", tmp_path / command / "2"
        names = sorted(p.name for p in serial.glob("*.csv"))
        assert len(names) == files
        for name in names:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

    with pytest.raises(PoolStarted, match="ProcessPoolExecutor"):  # two blocks
        cli.main(["fading", "--realizations", str(fading._BLOCK + 1), "--workers", "2",
                  "--out", str(tmp_path / "fading")])


def test_parser_is_built_once_per_process(monkeypatch, tmp_path):
    built = 0
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    counts = []
    for _ in range(3):
        assert cli.main(["threshold", "--out", str(tmp_path)]) == 0
        counts.append(built)
    # the program parser and one per subcommand, all in the first run
    assert counts == [1 + len(cli._SUBCOMMANDS)] * 3


def test_a_reused_parser_keeps_no_state(tmp_path, capsys):
    runs = (["fading", "--seed", "3", "--realizations", "40"],
            ["fading", "--realizations", "40"],
            ["threshold", "--eta", "0.3"])

    def run(argv, out):
        """Exit code and manifest lines, without the run time and with ``out`` as ``<out>``."""
        code = cli.main([*argv, "--out", str(out)])
        text = (out / f"{argv[0]}_manifest.txt").read_text(encoding="utf-8")
        return code, [line for line in text.replace(str(out), "<out>").splitlines()
                      if not line.startswith("duration_s =")]

    fresh = []
    for i, argv in enumerate(runs):
        cli._build_parser.cache_clear()
        fresh.append(run(argv, tmp_path / "fresh" / str(i)))

    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as rejected:
        cli.main(["fading", "--seed", "x", "--out", str(tmp_path / "rejected")])
    assert rejected.value.code == 2
    assert not (tmp_path / "rejected").exists()
    with pytest.raises(SystemExit) as version:
        cli.main(["--version"])
    assert version.value.code == 0
    assert capsys.readouterr().out == f"qlidar {cli.__version__}\n"
    reused = [run(argv, tmp_path / "reused" / str(i)) for i, argv in enumerate(runs)]
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 2]
    assert "seed = 3" in reused[0][1]
    assert f"seed = {fading.DEFAULT_SEED}" in reused[1][1]


class TestBenchmark:
    def test_default_sweep(self, tmp_path):
        result = run_cli("benchmark", "--out", str(tmp_path))
        assert result.returncode == 0
        lines = (tmp_path / "benchmark.csv").read_text().splitlines()
        assert lines[0] == "eta,w2_sq,xi_qbb_overlap,xi_qbb_proxy,xi_qcb,snr_sq_opt"
        assert len(lines) == 201  # header + 200 rows
        w2 = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a < b for a, b in zip(w2, w2[1:]))  # monotone in eta
        manifest = read_manifest(tmp_path / "benchmark_manifest.txt")
        assert manifest["status"] == "ok"
        assert manifest["n_tot"] == "5.0"
        assert "output_0" in manifest

    def test_single_row_golden(self, tmp_path):
        result = run_cli("benchmark", "--eta", "0.5", "--out", str(tmp_path))
        assert result.returncode == 0
        assert (tmp_path / "benchmark.csv").read_text() == GOLDEN_BENCHMARK_ROW

    def test_eta_zero_row(self, tmp_path):
        result = run_cli("benchmark", "--eta", "0", "--out", str(tmp_path))
        assert result.returncode == 0
        row = (tmp_path / "benchmark.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == 0.0

    def test_row_matches_library(self, tmp_path):
        run_cli("benchmark", "--eta", "0.7", "--out", str(tmp_path))
        row = (tmp_path / "benchmark.csv").read_text().splitlines()[1].split(",")
        out = apply_loss(
            probe_from_budget(ProbeBudget(5.0, 0.5)), ChannelParams(eta=0.7, n_th=2.0)
        )
        rep = metrics.metric_report(out, thermal_state(2.0))
        assert abs(float(row[1]) - rep.w2_sq) < 1e-11
        assert abs(float(row[2]) - rep.xi_qbb) < 1e-11
        assert abs(float(row[4]) - rep.xi_qcb) < 1e-11

        # every row of a batched sweep prints exactly what the library score gives
        rng = np.random.default_rng(71)
        for k in range(3):
            n_tot, n_th = float(rng.uniform(0.5, 40.0)), float(rng.uniform(0.05, 3.0))
            lam, eta_det = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.3, 0.99))
            v_el = 0.0 if k == 0 else float(rng.uniform(0.0, 0.5))
            out_dir = tmp_path / f"sweep{k}"
            result = run_cli("benchmark", "--n-tot", repr(n_tot), "--n-th", repr(n_th),
                             "--lambda", repr(lam), "--eta-det", repr(eta_det),
                             "--v-el", repr(v_el), "--out", str(out_dir))
            assert result.returncode == 0, result.stderr
            rows = (out_dir / "benchmark.csv").read_text().splitlines()[1:]
            assert len(rows) == 200
            for eta, line in zip(np.linspace(0.001, 1.0, 200), rows):
                rep = metrics.w2_score(ProbeBudget(n_tot, lam), ChannelParams(
                    eta=eta, n_th=n_th, eta_det=eta_det, v_el=v_el))
                values = (eta, rep.w2_sq, rep.xi_qbb, rep.xi_qbb_proxy, rep.xi_qcb, rep.snr_sq_opt)
                assert line == ",".join(format(float(v), ".12g") for v in values)

    def test_folded_noise_above_bound_is_parameter_error(self, tmp_path):
        # n_eff = n_th + v_el / (2 (1 - eta_eff)) is about 5e9 at the sweep's last eta
        result = run_cli("benchmark", "--eta-det", "0.9999999999", "--v-el", "1",
                         "--out", str(tmp_path))
        assert result.returncode == 2
        assert "n_th" in read_manifest(tmp_path / "benchmark_manifest.txt")["error"]
        assert not list(tmp_path.glob("*.csv"))

    def test_deterministic_rerun(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_cli("benchmark", "--out", str(a_dir))
        run_cli("benchmark", "--out", str(b_dir))
        assert (a_dir / "benchmark.csv").read_bytes() == (b_dir / "benchmark.csv").read_bytes()


class TestHeatmap:
    def test_trivial_single_cell(self, tmp_path):
        result = run_cli("heatmap", "--grid-step", "1", "--out", str(tmp_path))
        assert result.returncode == 0
        opt = (tmp_path / "heatmap_lambda_opt.csv").read_text().splitlines()
        assert opt[0] == "eta,lambda_opt"
        first = opt[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    def test_default_map_regimes(self, tmp_path):
        result = run_cli("heatmap", "--grid-step", "0.05", "--out", str(tmp_path))
        assert result.returncode == 0
        rows = [line.split(",") for line in
                (tmp_path / "heatmap_lambda_opt.csv").read_text().splitlines()[1:]]
        lam_by_eta = {float(e): float(l) for e, l in rows}
        assert lam_by_eta[0.05] == 0.0
        assert lam_by_eta[1.0] > 0.0
        manifest = read_manifest(tmp_path / "heatmap_manifest.txt")
        assert manifest["eta_critical_analytic"].startswith("0.12857")
        assert float(manifest["transition_eta_empirical"]) > 0.0

    def test_scores_file_schema(self, tmp_path):
        run_cli("heatmap", "--grid-step", "0.25", "--out", str(tmp_path))
        lines = (tmp_path / "heatmap_scores.csv").read_text().splitlines()
        assert lines[0] == "eta,lambda,w2_sq"
        # 5 etas x 4 lambdas (0, 0.25, 0.5, 0.75; cap 0.95 truncates the grid)
        grid = allocation.default_lambda_grid(0.25)
        assert len(lines) == 1 + 5 * grid.size


class TestParametric:
    def test_default_scenarios(self, tmp_path):
        result = run_cli("parametric", "--grid-step", "0.05", "--out", str(tmp_path))
        assert result.returncode == 0
        files = sorted(p.name for p in tmp_path.glob("parametric_*.csv"))
        assert files == [
            "parametric_ntot10_nth0.1.csv",
            "parametric_ntot20_nth0.1.csv",
            "parametric_ntot20_nth2.csv",
            "parametric_ntot5_nth0.1.csv",
            "parametric_ntot5_nth2.csv",
        ]

    def test_single_scenario_equals_slice(self, tmp_path):
        full_dir, single_dir = tmp_path / "full", tmp_path / "single"
        run_cli("parametric", "--grid-step", "0.1", "--out", str(full_dir))
        run_cli("parametric", "--grid-step", "0.1", "--n-tot", "10", "--n-th", "0.1",
                "--out", str(single_dir))
        full = (full_dir / "parametric_ntot10_nth0.1.csv").read_bytes()
        single = (single_dir / "parametric_ntot10_nth0.1.csv").read_bytes()
        assert full == single
        assert full.decode().splitlines()[0] == "eta,lambda_opt"

    def test_each_score_map_is_freed_before_the_next_is_built(self, monkeypatch, tmp_path):
        # a scenario keeps only its lambda_opt table, so one score map is alive at a time
        built, alive_before = [], []
        original = allocation.allocation_grid

        def tracked(*args, **kwargs):
            gc.collect()
            alive_before.append(sum(ref() is not None for ref in built))
            grid = original(*args, **kwargs)
            built.append(weakref.ref(grid))
            return grid

        monkeypatch.setattr(allocation, "allocation_grid", tracked)
        assert cli.main(["parametric", "--grid-step", "0.25", "--out", str(tmp_path)]) == 0
        assert alive_before == [0] * len(cli.PARAMETRIC_SCENARIOS)

    def test_partial_scenario_flags_rejected(self, tmp_path):
        result = run_cli("parametric", "--n-tot", "10", "--out", str(tmp_path))
        assert result.returncode == 2


class TestFading:
    def test_single_realization_matches_library(self, tmp_path):
        result = run_cli("fading", "--realizations", "1", "--seed", "77",
                         "--out", str(tmp_path))
        assert result.returncode == 0
        row = (tmp_path / "fading_realizations.csv").read_text().splitlines()[1].split(",")
        config = fading.FadingConfig(n_realizations=1, seed=77)
        ens = fading.run_ensemble(config)
        assert abs(float(row[1]) - ens.etas[0]) < 1e-11
        assert abs(float(row[2]) - ens.w2_sq[0]) < 1e-10
        assert abs(float(row[3]) - ens.xi_qbb[0]) < 1e-11

    def test_outputs_and_summary(self, tmp_path):
        result = run_cli("fading", "--realizations", "500", "--seed", "11",
                         "--out", str(tmp_path))
        assert result.returncode == 0
        for name in ("fading_realizations.csv", "fading_hist_eta.csv",
                     "fading_hist_w2_sq.csv", "fading_hist_xi_qbb.csv"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "fading_realizations.csv").read_text().splitlines()
        assert lines[0] == "realization,eta,w2_sq,xi_qbb"
        assert len(lines) == 501
        manifest = read_manifest(tmp_path / "fading_manifest.txt")
        for key in ("mean_eta", "pearson_w2_eta", "contrast_iqr_median",
                    "saturated_count", "postselect_w2_q90_mean_eta"):
            assert key in manifest
        hist = (tmp_path / "fading_hist_eta.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,density"
        mass = sum(
            (float(b) - float(a)) * float(d)
            for a, b, d in (line.split(",") for line in hist[1:])
        )
        assert abs(mass - 1.0) < 1e-9

    def test_near_bernoulli_shapes_keep_histograms_finite(self, tmp_path):
        # nearly every eta sits at 0 or 1, so the Freedman-Diaconis bin count
        # (about 1.6e13 uncapped) is capped at the sample count
        result = run_cli("fading", "--alpha", "0.005", "--beta", "0.01", "--realizations", "4000",
                         "--seed", "7", "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr
        assert read_manifest(tmp_path / "fading_manifest.txt")["status"] == "ok"
        for key in ("eta", "w2_sq", "xi_qbb"):
            rows = np.loadtxt(tmp_path / f"fading_hist_{key}.csv", delimiter=",", skiprows=1,
                              ndmin=2)
            assert 1 <= len(rows) <= 4000
            assert abs(float(np.sum((rows[:, 1] - rows[:, 0]) * rows[:, 2])) - 1.0) < 1e-9

    def test_gamma_underflow_and_full_squeezing_run(self, tmp_path):
        # both Gamma draws of one realization underflow to 0.0 at these shapes
        for label, argv in (("small", ("--alpha", "0.01", "--beta", "0.01",
                                       "--realizations", "3000")),
                            ("lam", ("--lambda", "0.97", "--realizations", "10"))):
            result = run_cli("fading", *argv, "--out", str(tmp_path / label))
            assert result.returncode == 0, result.stderr
            assert read_manifest(tmp_path / label / "fading_manifest.txt")["status"] == "ok"

    def test_seed_reproducibility(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_cli("fading", "--realizations", "300", "--seed", "5", "--out", str(a_dir))
        run_cli("fading", "--realizations", "300", "--seed", "5", "--out", str(b_dir))
        assert (a_dir / "fading_realizations.csv").read_bytes() == \
            (b_dir / "fading_realizations.csv").read_bytes()


class TestMetricsCommand:
    def test_identical_states(self, tmp_path):
        result = run_cli("metrics", "--state0", "0,0,1,0,1", "--state1", "0,0,1,0,1",
                         "--out", str(tmp_path))
        assert result.returncode == 0
        values = dict(line.split(" = ") for line in result.stdout.strip().splitlines())
        assert float(values["w2_sq"]) == 0.0
        assert abs(float(values["fidelity"]) - 1.0) < 1e-12

    def test_vacuum_vs_coherent(self, tmp_path):
        mu_q = math.sqrt(2.0)
        result = run_cli("metrics", "--state0", "0,0,1,0,1",
                         "--state1", f"{mu_q},0,1,0,1", "--out", str(tmp_path))
        values = dict(line.split(" = ") for line in result.stdout.strip().splitlines())
        assert abs(float(values["w2_sq"]) - 2.0) < 1e-10
        assert abs(float(values["fidelity"]) - math.exp(-1.0)) < 1e-10

    def test_budget_shorthand_matches_benchmark(self, tmp_path):
        run_cli("benchmark", "--n-tot", "10", "--lambda", "0.5", "--n-th", "0.1",
                "--eta", "0.4", "--out", str(tmp_path))
        row = (tmp_path / "benchmark.csv").read_text().splitlines()[1].split(",")
        result = run_cli("metrics", "--budget", "10,0.5", "--eta", "0.4",
                         "--n-th", "0.1", "--out", str(tmp_path))
        values = dict(line.split(" = ") for line in result.stdout.strip().splitlines())
        assert abs(float(values["w2_sq"]) - float(row[1])) < 1e-10
        assert abs(float(values["xi_qbb"]) - float(row[2])) < 1e-10

    def test_budget_above_bound_is_parameter_error(self, tmp_path):
        result = run_cli("metrics", "--budget", "1e300,0.5", "--out", str(tmp_path))
        assert result.returncode == 2
        assert result.stdout == ""
        manifest = read_manifest(tmp_path / "metrics_manifest.txt")
        assert manifest["status"] == "error"
        assert "n_tot" in manifest["error"]

    def test_thermal_occupation_above_bound_is_parameter_error(self, tmp_path):
        # at n_th = 1e15 the overlap scores divide by zero; the bound stops it first
        result = run_cli("metrics", "--budget", "1,0.5", "--eta", "0.5", "--n-th", "1e15",
                         "--out", str(tmp_path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "n_th" in read_manifest(tmp_path / "metrics_manifest.txt")["error"]

    @pytest.mark.parametrize("channel", [("--eta", "1.5"), ("--eta", "1", "--v-el", "0.1")])
    def test_budget_is_checked_before_the_channel(self, channel, tmp_path):
        # both the fraction and the channel are invalid: the budget's error is the one reported
        result = run_cli("metrics", "--budget", "5,2", *channel, "--out", str(tmp_path))
        assert result.returncode == 2
        assert result.stdout == ""
        named = "lam must be in [0, 1], got 2.0"
        assert named in result.stderr
        assert read_manifest(tmp_path / "metrics_manifest.txt")["error"] == named

    @pytest.mark.parametrize("flag,value,rest,code", [
        ("--state1", "-1,0,1,0,1", ("--state0", "0,0,1,0,1"), 0),
        ("--state0", "-0.5,2,3,0.1,1", ("--state1", "0,0,1,0,1"), 0),
        ("--budget", "-5,0.5", (), 2),
    ])
    def test_negative_list_as_two_tokens_is_its_equals_form(self, flag, value, rest, code,
                                                            tmp_path, capsys):
        runs = []
        for i, given in enumerate(([flag, value], [f"{flag}={value}"])):
            out = tmp_path / str(i)
            runs.append((cli.main(["metrics", *given, *rest, "--out", str(out)]),
                         capsys.readouterr().out, COMPARE.written(out)))
        assert runs[0] == runs[1] and runs[0][0] == code

    def test_parse_error_names_field(self, tmp_path):
        result = run_cli("metrics", "--state0", "0,0,1,x,1", "--state1", "0,0,1,0,1",
                         "--out", str(tmp_path))
        assert result.returncode == 2
        assert "sigma_qp" in result.stderr

    def test_missing_pair(self, tmp_path):
        result = run_cli("metrics", "--out", str(tmp_path))
        assert result.returncode == 2

    @pytest.mark.parametrize("argv,named", [
        (("--state0", "0,0,1,0", "--state1", "0,0,1,0,1"), "state0 must have 5 comma-separated "
         "values ('mu_q', 'mu_p', 'sigma_qq', 'sigma_qp', 'sigma_pp'), got 4"),
        (("--state0", "0,0,1,0,1"), "give both --state0 and --state1"),
        (("--budget", "5,0.5,0,1"),
         "budget must have 2 or 3 comma-separated values ('n_tot', 'lambda', 'phase'), got 4"),
        (("--budget", "a,0.5"), "budget: invalid value for n_tot: 'a'"),
        (("--budget", "5,0.5,x"), "budget: invalid value for phase: 'x'"),
        (("--state0", "0,0,1,0,1", "--state1", "0,0,1e200,0,1e200"),
         "state1: state moments must be finite and at most 1e+30 in magnitude"),
    ], ids=["state-of-4", "state0-alone", "budget-of-4", "budget-n_tot", "budget-phase",
            "state1-moment-bound"])
    def test_bad_state_or_budget_is_named(self, argv, named, tmp_path):
        assert assert_parameter_error(("metrics", *argv), tmp_path) == named

    @pytest.mark.parametrize("from_config", [False, True])
    def test_state_pair_and_budget_together_are_rejected(self, from_config, tmp_path):
        config = tmp_path / "budget.conf"
        config.write_text("budget = 5,0.5\n")
        given = ("--config", str(config)) if from_config else ("--budget", "5,0.5")
        argv = ("metrics", "--state0", "0,0,1,0,1", "--state1", "1.41,0,1,0,1", *given)
        assert assert_parameter_error(argv, tmp_path) == "give either --state0/--state1 or --budget"

    @pytest.mark.parametrize("flags", [
        ("--eta", "0.3", "--n-th", "5"), ("--eta-det", "0.9"), ("--v-el", "0.1"),
    ])
    def test_budget_channel_flags_rejected_with_state_pair(self, flags, tmp_path):
        result = run_cli("metrics", "--state0", "0,0,1,0,1", "--state1", "1.41,0,1,0,1",
                         *flags, "--out", str(tmp_path))
        assert result.returncode == 2
        assert result.stdout == ""
        manifest = read_manifest(tmp_path / "metrics_manifest.txt")
        assert manifest["status"] == "error"
        assert all(flag in manifest["error"] for flag in flags[::2])


class TestThreshold:
    def test_reachable(self, tmp_path):
        result = run_cli("threshold", "--n-tot", "10", "--n-th", "0.1",
                         "--out", str(tmp_path))
        assert result.returncode == 0
        assert "eta_critical = 0.128571428571" in result.stdout
        assert "reachable = true" in result.stdout

    def test_unreachable_flagged(self, tmp_path):
        result = run_cli("threshold", "--n-tot", "5", "--n-th", "2", "--out", str(tmp_path))
        assert result.returncode == 0
        assert "eta_critical = 2.5" in result.stdout
        assert "no quantum regime" in result.stdout

    def test_detector_substitution(self, tmp_path):
        result = run_cli("threshold", "--n-tot", "10", "--n-th", "2", "--v-el", "0.1",
                         "--eta", "0.5", "--out", str(tmp_path))
        assert result.returncode == 0
        values = dict(
            line.split(" = ") for line in result.stdout.strip().splitlines()
            if " = " in line
        )
        expected = allocation.eta_critical(10.0, 2.1)
        assert abs(float(values["eta_critical_effective"]) - expected) < 1e-10

    def test_zero_power_is_parameter_error(self, tmp_path):
        result = run_cli("threshold", "--n-tot", "0", "--n-th", "0.1", "--out", str(tmp_path))
        assert result.returncode == 2

    @pytest.mark.parametrize("from_config", [False, True])
    def test_eta_rejected_without_detector_imperfections(self, from_config, tmp_path):
        # at eta_det = 1 and v_el = 0 the threshold never reads eta
        config = tmp_path / "eta.conf"
        config.write_text("eta = 0.3\n")
        given = ("--config", str(config)) if from_config else ("--eta", "0.3")
        result = run_cli("threshold", "--n-tot", "10", "--n-th", "0.1", *given,
                         "--out", str(tmp_path))
        assert result.returncode == 2
        assert result.stdout == ""
        manifest = read_manifest(tmp_path / "threshold_manifest.txt")
        assert manifest["status"] == "error"
        assert "--eta" in manifest["error"]


    @pytest.mark.parametrize("argv,named", [
        (("--eta-det", "1.5", "--eta", "0.3"), "eta_det must be in (0, 1]"),
        (("--v-el", "0.1"), "--eta is needed"),
        (("--v-el", "0.1", "--eta", "1"), "diverges at unit transmissivity"),
        (("--v-el", "1e9", "--eta", "0.5"), "n_th with v_el folded in must be in"),
    ])
    def test_channel_is_checked_before_any_output(self, argv, named, tmp_path):
        result = run_cli("threshold", *argv, "--out", str(tmp_path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert named in read_manifest(tmp_path / "threshold_manifest.txt")["error"]


class TestErrorHandling:
    def test_bad_parameter_exit_code(self, tmp_path):
        result = run_cli("benchmark", "--eta", "1.5", "--out", str(tmp_path))
        assert result.returncode == 2
        manifest = read_manifest(tmp_path / "benchmark_manifest.txt")
        assert manifest["status"] == "error"
        assert "error" in manifest

    def test_unwritable_output(self):
        result = run_cli("benchmark", "--eta", "0.5", "--out", "/proc/nope")
        assert result.returncode == 3

    def test_unhandled_exception_is_recorded_then_raised(self, monkeypatch, tmp_path):
        def broken(p, manifest):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "threshold", broken)
        with pytest.raises(RuntimeError, match="^boom$"):
            cli.main(["threshold", "--out", str(tmp_path)])
        manifest = read_manifest(tmp_path / "threshold_manifest.txt")
        assert manifest["status"] == "error"
        assert manifest["error"] == "RuntimeError: boom"

    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n_tot = 7\nn_th = 1\n# comment\n\neta = 0.5\n")
        result = run_cli("benchmark", "--config", str(config), "--n-th", "2",
                         "--out", str(tmp_path))
        assert result.returncode == 0
        manifest = read_manifest(tmp_path / "benchmark_manifest.txt")
        assert manifest["n_tot"] == "7.0"   # from config
        assert manifest["n_th"] == "2.0"    # flag wins
        assert manifest["eta"] == "0.5"

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("just some words\n")
        result = run_cli("benchmark", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 2

    def test_unreadable_config_is_parameter_error(self, tmp_path):
        error = assert_parameter_error(("benchmark", "--config", str(tmp_path / "missing.conf")),
                                       tmp_path)
        assert error.startswith(f"cannot read config file {tmp_path / 'missing.conf'}: ")

    def test_config_value_that_does_not_convert_is_named(self, tmp_path):
        config = tmp_path / "abc.conf"
        config.write_text("n_tot = abc\n")
        error = assert_parameter_error(("benchmark", "--config", str(config)), tmp_path)
        assert error.startswith("config key n_tot: ") and "'abc'" in error

    def test_unwritable_manifest_after_a_run_is_io_error(self, tmp_path, capsys):
        (tmp_path / "threshold_manifest.txt").mkdir()
        assert cli.main(["threshold", "--out", str(tmp_path)]) == 3
        assert "eta_critical = " in capsys.readouterr().out
        assert not list((tmp_path / "threshold_manifest.txt").iterdir())
        assert not list(tmp_path.glob("*.csv"))

    def test_unknown_config_key_is_named(self, tmp_path):
        config = tmp_path / "typo.conf"
        config.write_text("n_tott = 5\n")
        result = run_cli("benchmark", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "n_tott" in result.stderr
        assert "n_tott" in read_manifest(tmp_path / "benchmark_manifest.txt")["error"]

    def test_config_keys_of_other_subcommands_are_allowed(self, tmp_path):
        # one file serves every subcommand; heatmap reads none of these keys
        config = tmp_path / "shared.conf"
        config.write_text("seed = 3\nalpha = 2.5\nlam = 0.4\nbudget = 10,0.5\ngrid_step = 0.5\n")
        result = run_cli("heatmap", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert read_manifest(tmp_path / "heatmap_manifest.txt")["grid_step"] == "0.5"

    @pytest.mark.parametrize("argv", [
        ("heatmap", "--v-el", "0.1"),
        ("heatmap", "--lambda", "0.3"),
        ("fading", "--eta-det", "0.5"),
        ("benchmark", "--seed", "1"),
        ("threshold", "--grid-step", "0.1"),
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, argv, tmp_path):
        out = tmp_path / "d"
        result = run_cli(*argv, "--out", str(out))
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr
        assert not out.exists()   # the parser exits before any manifest is written

    @pytest.mark.parametrize("argv", [
        ("heatmap", "--n-tot", "abc"),
        ("fading", "--realizations", "2.5"),
    ])
    def test_values_the_parser_cannot_convert_leave_no_manifest(self, argv, tmp_path):
        out = tmp_path / "d"
        result = run_cli(*argv, "--out", str(out))
        assert result.returncode == 2
        assert "invalid" in result.stderr and "value" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("heatmap", "--grid-step", "0"),
        ("parametric", "--grid-step", "-0.1"),
        ("heatmap", "--grid-step", "nan"),
        ("fading", "--seed", "-1"),
        ("fading", "--n-th", "nan"),
        ("threshold", "--n-th", "nan"),
        ("threshold", "--eta-det", "1.5"),
        ("threshold", "--v-el", "-0.1"),
        ("threshold", "--eta-det", "nan"),
        ("heatmap", "--workers", "0"),
        ("parametric", "--workers", "0"),
        ("fading", "--workers", "-3"),
        ("fading", "--alpha", "0.0005"),
        ("heatmap", "--grid-step", "1e-300"),
        ("parametric", "--grid-step", "1e-300"),
        ("heatmap", "--grid-step", "0.0004"),
        ("threshold", "--n-tot", "1e21"),
        ("metrics", "--state0", "0,0,1,0,1", "--state1", "0,0,1e200,0,1e200"),
        ("fading", "--realizations", str(states.MAX_REALIZATIONS + 1)),
    ])
    def test_out_of_domain_value_is_parameter_error(self, argv, tmp_path):
        result = run_cli(*argv, "--out", str(tmp_path))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        manifest = read_manifest(tmp_path / f"{argv[0]}_manifest.txt")
        assert manifest["status"] == "error"
        assert manifest["error"]
        assert not list(tmp_path.glob("*.csv"))

    def test_parametric_reads_scenario_from_config(self, tmp_path):
        config = tmp_path / "one.conf"
        config.write_text("n_tot = 5\nn_th = 2\ngrid_step = 0.1\n")
        result = run_cli("parametric", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        files = sorted(p.name for p in tmp_path.glob("parametric_*.csv"))
        assert files == ["parametric_ntot5_nth2.csv"]

    def test_threshold_reads_eta_from_config(self, tmp_path):
        config = tmp_path / "eta.conf"
        config.write_text("n_tot = 10\nn_th = 2\neta = 0.5\n")
        result = run_cli("threshold", "--config", str(config), "--v-el", "0.1",
                         "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert "eta_critical_effective = " in result.stdout
        assert read_manifest(tmp_path / "threshold_manifest.txt")["eta"] == "0.5"


def _compare_tool():
    """``tools/compare_cli_outputs.py`` as a module: its command lines and pins."""
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_cli_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_cli_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMPARE = _compare_tool()


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """Runs a compare line in-process once, on first use: (exit code, stdout, out dir)."""
    runs = {}

    def run(line):
        if line not in runs:
            out = tmp_path_factory.mktemp("first")
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                code = cli.main([*shlex.split(line), "--out", str(out)])
            runs[line] = code, printed.getvalue(), out
        return runs[line]

    return run


class TestManifestReplay:
    @pytest.mark.parametrize("line", COMPARE.COMMANDS)
    def test_manifest_replays_its_run(self, line, first_run, tmp_path, capsys):
        # a run given its own manifest as --config exits as it did, prints the same
        # values and writes the same bytes, manifests normalised as the compare tool does
        code, printed, first = first_run(line)
        again = tmp_path / "again"
        argv = shlex.split(line)
        manifest = first / f"{argv[0]}_manifest.txt"
        assert cli.main([argv[0], "--config", str(manifest), "--out", str(again)]) == code
        assert capsys.readouterr().out == printed

        assert COMPARE.written(again) == COMPARE.written(first)

    @pytest.mark.parametrize("line", COMPARE.COMMANDS)
    def test_outputs_match_their_pins(self, line, first_run):
        # the exit code, stdout and every file a compare line writes hash as pinned;
        # numpy's SIMD loops may move a last digit between CPUs, so the pins hold only
        # on the numpy version and CPU features they were taken on
        pinned, pins = COMPARE.read_pins()
        if pinned != (here := COMPARE.fingerprint()):
            pytest.skip(f"outputs pinned on {pinned!r}, this host has {here!r}")
        code, printed, out = first_run(line)
        assert COMPARE.pin(line, code, printed, COMPARE.written(out)) == pins.get(line)

    def test_every_compare_line_is_pinned_once(self):
        text = COMPARE.PINS.read_text(encoding="utf-8")
        lines = [x.split("\t", 1)[0] for x in text.splitlines() if x and not x.startswith("#")]
        assert sorted(lines) == sorted(COMPARE.COMMANDS)

    def test_fingerprint_reads_numpy_1_cpu_features(self, monkeypatch):
        # numpy 1.x has no numpy._core: the features come from numpy.core instead
        fake = types.ModuleType("numpy.core._multiarray_umath")
        fake.__cpu_features__ = {"SSE2": True, "AVX512F": False, "AVX2": True}
        monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)
        monkeypatch.setitem(sys.modules, "numpy.core._multiarray_umath", fake)
        assert COMPARE.fingerprint() == f"numpy {np.__version__}; AVX2 SSE2"

    def test_manifest_without_parameters_is_parameter_error(self, tmp_path):
        # a run stopped before its parameters resolved records none; its manifest
        # cannot replay it and must not run the defaults instead
        config = tmp_path / "bad.conf"
        config.write_text("n_tot = abc\n")
        error = assert_parameter_error(("benchmark", "--eta", "0.5", "--config", str(config)),
                                       tmp_path / "first")
        assert error == "config key n_tot: could not convert string to float: 'abc'"
        manifest = str(tmp_path / "first" / "benchmark_manifest.txt")
        error = assert_parameter_error(("benchmark", "--config", manifest), tmp_path / "again")
        assert error == "config file is the manifest of a run with no parameters"

    def test_manifest_of_another_command_is_parameter_error(self, tmp_path):
        assert cli.main(["threshold", "--out", str(tmp_path)]) == 0
        manifest = str(tmp_path / "threshold_manifest.txt")
        error = assert_parameter_error(("heatmap", "--config", manifest), tmp_path / "h")
        assert error == "config file is the manifest of a threshold run, not heatmap"


def readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_run(tmp_path):
    block = re.search(r"```\n(.*?)```", readme_cli_section(), re.S).group(1)
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("qlidar ")]
    assert len(commands) >= 6
    for i, argv in enumerate(commands):
        assert argv[-2:] == ["--out", "out"], argv
        result = run_cli(*argv[:-1], str(tmp_path / str(i)))
        assert result.returncode == 0, (argv, result.stderr)


def test_readme_flag_table_matches_parser():
    section = readme_cli_section()
    for name, (_, _, defaults) in cli._SUBCOMMANDS.items():
        row = re.search(rf"^\| `{name}` \|(.*)\|$", section, re.M).group(1)
        assert set(re.findall(r"`(--[a-z0-9-]+)`", row)) == {cli._FLAGS[k][0] for k in defaults}


def _loaded_after(out, *steps):
    """The driver and pool modules loaded after each step, a list of CLI runs, of one
    fresh interpreter."""
    code = ["import sys, qlidar.cli",
            "drivers = {'qlidar.allocation', 'qlidar.fading', 'qlidar.metrics', 'qlidar.fock'}",
            "pool = {'concurrent.futures', 'multiprocessing'}"]
    for step in steps:
        code += [f"assert qlidar.cli.main({[*argv, '--out', str(out)]!r}) == 0" for argv in step]
        code.append("print(sorted((drivers | pool) & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", "; ".join(code)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return [line for line in result.stdout.splitlines() if line.startswith("[")]


def test_serial_run_imports_no_pool(tmp_path):
    # the pool module is imported only when fading's --workers > 1 starts a
    # pool (a grid runs serially at any --workers), and the Fock oracle never;
    # each subcommand loads only the drivers it computes with
    after_benchmark, after_grids = _loaded_after(
        tmp_path, [["benchmark"]], [["heatmap", "--workers", "2"], ["threshold"]])
    assert after_benchmark == "[]"
    assert after_grids == "['qlidar.allocation']"
    # a one-pair budget report is scored in metrics, with no grid module
    budget = ["metrics", "--budget", "5,0.5", "--eta", "0.6", "--n-th", "1"]
    assert _loaded_after(tmp_path, [budget]) == ["['qlidar.metrics']"]


def test_package_names_resolve_on_first_use():
    import qlidar

    for name in qlidar.__all__:
        obj = getattr(qlidar, name)
        assert obj.__module__.startswith("qlidar.")
        assert vars(sys.modules[obj.__module__])[name] is obj, name
    namespace = {}
    exec("from qlidar import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qlidar.__all__)
    assert set(qlidar.__all__) <= set(dir(qlidar))
    with pytest.raises(AttributeError, match="no_such_name"):
        qlidar.no_such_name
    code = "import sys, qlidar; print(sorted(m for m in sys.modules if m.startswith('qlidar.')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_imports_pull_in_no_scipy():
    code = (
        "import sys, qlidar, qlidar.cli, qlidar.fock; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

