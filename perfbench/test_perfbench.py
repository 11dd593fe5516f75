"""Self-tests of the benchmark (not part of the project's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_in_its_seed(name):
    generate = workloads.WORKLOADS[name].generate
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def _rewrite_csv(path: Path, column: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[column] = format(change(float(fields[column])), ".12g")
        out.append(",".join(fields))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def _one_op(workload, keep: int):
    workload.ops = workload.ops[:keep]
    return workload


@pytest.mark.parametrize("name, op, file, column, change", [
    ("sweep", 0, "benchmark.csv", 1, lambda w2: w2 * (1.0 + 1e-6)),
    ("grid", 0, "heatmap_scores.csv", 2, lambda w2: w2 * (1.0 + 1e-6)),
    ("grid", 0, "heatmap_lambda_opt.csv", 1, lambda lam: 0.95 - lam),
    ("fading", 0, "fading_realizations.csv", 1, lambda eta: eta * (1.0 + 1e-9)),
])
def test_check_flags_a_corrupted_output_file(tmp_path, name, op, file, column, change):
    workload = _one_op(workloads.WORKLOADS[name](3), op + 1)
    result = workload.run_pass(tmp_path / "pass")
    good = result.ops[op]
    assert good.error is None
    assert workload.check(op, good).error is None

    bad_dir = tmp_path / "corrupted"
    shutil.copytree(good.payload, bad_dir)
    _rewrite_csv(bad_dir / file, column, change)
    bad = workloads.OpResult(good.label, None, workloads._digest_csvs(bad_dir), bad_dir)
    assert bad.digest != good.digest
    assert workload.check(op, bad).error is not None


def test_oracle_check_flags_a_corrupted_value(tmp_path):
    workload = workloads.OracleWorkload(3)
    workload.pairs = workload.pairs[:2]
    result = workload.run_pass(tmp_path)
    good = result.ops[0]
    assert workload.check(0, good).error is None
    fid, *rest = good.payload
    bad = workloads.OpResult(good.label, None, None, (fid + 1e-5, *rest))
    assert workload.check(0, bad).error is not None


def _traced_calls(workload, pass_dir: Path) -> dict[str, int]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        workload.run_pass(pass_dir)
    finally:
        tracer.uninstall()
    return {name: s["calls"] for name, s in tracing.summarize(tracer.take()).items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_reaches_no_layer_predicted_idle(tmp_path, name):
    workload = workloads.WORKLOADS[name](5)
    if name == "oracle":
        workload.pairs = workload.pairs[:4]
    calls = _traced_calls(workload, tmp_path)
    for fn in spec.PREDICTED_ZERO[name]:
        assert calls.get(fn, 0) == 0, fn
    busy = {"sweep": "metrics.xi_qcb", "grid": "allocation.allocation_grid",
            "fading": "fading.sample_eta", "oracle": "fock.build_state"}[name]
    assert calls.get(busy, 0) > 0


def test_call_counts_repeat_and_bindings_are_restored(tmp_path):
    from qlidar import channel, cli, fading

    originals = (cli.main, cli._COMMANDS["benchmark"], fading.apply_loss, channel.apply_loss)
    workload = workloads.SweepWorkload(11)
    first = _traced_calls(workload, tmp_path / "a")
    second = _traced_calls(workload, tmp_path / "b")
    assert first == second
    assert first["channel.apply_loss"] == workload.units_per_pass
    assert (cli.main, cli._COMMANDS["benchmark"], fading.apply_loss, channel.apply_loss) == originals


def test_benchmark_json_is_generated_from_spec_and_within_limits():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark_json()
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["per_layer"]) <= 128
    assert 1 <= committed["run_seconds"] <= 60
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    names += [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
