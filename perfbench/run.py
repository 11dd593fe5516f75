"""qlidar benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The benchmark imports qlidar from ``src/`` of the tree it sits in and drives
it in-process.  It draws the workload's inputs from ``--seed``, runs one
warm-up pass whose outputs are checked against independent references,
then repeats the pass for ``--seconds`` seconds.  Every pass must produce
byte-identical outputs (sha256) to the warm-up pass; a failed, unchecked or
differing operation counts as failed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time
after the warm-up), ``units_per_s`` (work units per pass over ``wall_s``),
``peak_rss_mb`` (peak resident memory of this process) and ``setup_s``
(median over fresh interpreters of ``import qlidar.cli`` plus a CLI parser
build).  Pass times are scaled by a calibration kernel timed around each
segment of a pass, and setup times by calibration imports in fresh
interpreters around each of them, so that ``wall_s`` and ``setup_s`` do not
follow the load of a shared host (see ``CAL_REF_S`` and ``SETUP_CAL_REF_S``);
they are seconds on a host where the kernels take those reference times.
``--trace 1`` reports the per-layer metrics: half of the time runs untraced
passes, whose plain median pass time is ``raw_wall_s``, the other half
traced passes whose calls into qlidar's public functions are recorded as
spans (see :mod:`tracer`); import times per module, in plain seconds, come
from ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine fingerprint, pass times, sample counts, worst relative error of
the checks) goes to ``perfbench/out/<workload>_seed<seed>_trace<t>.json``;
a traced run also writes the spans of its first traced pass next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

BLAS_THREADS = 1
# one process drives the load: unset, OpenBLAS starts a thread per host CPU,
# which made dense Fock work 5-10x slower and far noisier on a 2-core quota
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS cap)

import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
# oracle passes take 6-8 s on a 2-vCPU host; a third one would add a run's
# length without making its median steadier (seeds differ more than passes)
MIN_PASSES = 2
MIN_TRACE_PASSES = 2
CHILD_TIMEOUT_S = 60

# The speed of a shared host drifts by 20-30% within seconds and for minutes
# at a time.  Every timed segment of a pass (a CLI invocation, a chunk of
# oracle pairs) is therefore divided by the mean time of a fixed calibration
# kernel run right before and after it, and scaled to a machine on which
# that kernel takes CAL_REF_S: the reported seconds follow the program, not
# the host's load.  Raw times are kept in the run record.
CAL_REF_S = 0.02

# The setup time of a fresh interpreter does not follow that kernel; it is
# divided instead by the mean time of two calibration imports, each in a
# fresh interpreter right before and after it, and scaled to a host on which
# one takes SETUP_CAL_REF_S.  The calibration imports standard-library
# modules that neither qlidar, numpy nor scipy imports, so it does the same
# kind of work (finding, unmarshalling and running modules, loading
# extensions) and none of qlidar's.
SETUP_CAL_REF_S = 0.08

TIMED_IMPORT = """\
import time
t0 = time.perf_counter()
{}
print(repr(time.perf_counter() - t0))
"""
SETUP_CODE = TIMED_IMPORT.format("""\
import qlidar.cli
try:
    qlidar.cli.main(["--version"])
except SystemExit:
    pass""")
SETUP_CAL_CODE = TIMED_IMPORT.format(
    "import asyncio, configparser, email.mime.multipart, html.parser, http.server, "
    "tarfile, urllib.request, xml.etree.ElementTree")


def calibration_s() -> float:
    """Seconds for a fixed kernel of interpreter and small-array work (no qlidar)."""
    start = time.perf_counter()
    acc = 0.0
    m = np.eye(2)
    for i in range(2000):
        v = np.array([i * 0.5, 1.0])
        m = 0.5 * (m + m.T) + 1e-9 * np.outer(v, v)
        acc += float(v @ m @ v) % 3.0
        acc += len(str({"a": i, "b": [i, i + 1]}))
    return time.perf_counter() - start


class PassTimer:
    """Times the segments of one pass, each between two calibration kernels."""

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.calibrations = [calibration_s()]

    def __call__(self, segment):
        start = time.perf_counter()
        result = segment()
        elapsed = time.perf_counter() - start
        calibration = calibration_s()
        self.raw_s += elapsed
        self.scaled_s += CAL_REF_S * elapsed / (0.5 * (self.calibrations[-1] + calibration))
        self.calibrations.append(calibration)
        return result


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_child(code: str) -> float:
    """Seconds that ``code`` reports for itself in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_samples() -> tuple[list[float], list[float]]:
    """Scaled and raw seconds of fresh-interpreter setups (qlidar import, CLI parser)."""
    scaled, raw = [], []
    calibration = timed_child(SETUP_CAL_CODE)
    for _ in range(SETUP_REPEATS):
        setup = timed_child(SETUP_CODE)
        after = timed_child(SETUP_CAL_CODE)
        scaled.append(SETUP_CAL_REF_S * setup / (0.5 * (calibration + after)))
        raw.append(setup)
        calibration = after
    return scaled, raw


def import_times() -> dict[str, float]:
    """Cumulative import time in seconds per module, from one -X importtime run."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import qlidar.cli, qlidar.fock"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    times = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        times[name.strip()] = int(cumulative) * 1e-6
    return times


def fingerprint() -> dict:
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "qlidar").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
    }


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Ledger:
    """Operations attempted and failed, checked outputs and reference digests."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.worst_rel_err = 0.0
        self.digests: list[str | None] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def first(self, result) -> None:
        """Check every operation of the warm-up pass against the references."""
        for i, op in enumerate(result.ops):
            self.attempted += 1
            if op.error is not None:
                self.fail(f"{op.label}: {op.error}")
                continue
            check = self.workload.check(i, op)
            self.worst_rel_err = max(self.worst_rel_err, check.worst_rel_err)
            if check.error is not None:
                self.fail(check.error)
        self.digests = [op.digest for op in result.ops]

    def later(self, result, pass_index: int) -> None:
        """A later pass must reproduce the warm-up pass byte for byte."""
        for op, digest in zip(result.ops, self.digests):
            self.attempted += 1
            if op.error is not None:
                self.fail(f"pass {pass_index} {op.label}: {op.error}")
            elif op.digest != digest:
                self.fail(f"pass {pass_index} {op.label}: outputs differ from the warm-up pass")


def run_passes(workload, ledger, work: Path, until: float, minimum: int, start_index: int,
               on_pass=None) -> tuple[list[float], list[float], list[float]]:
    """Timed passes until ``until``: scaled and raw pass seconds, calibration times."""
    scaled, raw, calibrations = [], [], []
    while len(scaled) < minimum or time.perf_counter() < until:
        index = start_index + len(scaled)
        pass_dir = work / f"pass{index}"
        timer = PassTimer()
        result = workload.run_pass(pass_dir, timer)
        if on_pass is not None:
            on_pass()
        ledger.later(result, index)
        shutil.rmtree(pass_dir, ignore_errors=True)
        scaled.append(timer.scaled_s)
        raw.append(timer.raw_s)
        calibrations += timer.calibrations
    return scaled, raw, calibrations


def end_to_end(workload, ledger, work: Path, seconds: float) -> tuple[dict, dict]:
    setup, setup_raw = setup_samples()
    warm = workload.run_pass(work / "pass0")
    ledger.first(warm)
    shutil.rmtree(work / "pass0", ignore_errors=True)
    walls, raw, cals = run_passes(workload, ledger, work, time.perf_counter() + seconds,
                                  MIN_PASSES, 1)
    wall = statistics.median(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s"),
        "units_per_s": (workload.units_per_pass / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {
        "wall_s_quartiles": statistics.quantiles(walls, n=4),
        "raw_wall_s_median": statistics.median(raw),
        "pass_wall_s": walls,
        "raw_pass_wall_s": raw,
        "setup_samples_s": setup,
        "raw_setup_samples_s": setup_raw,
        "calibration_median_s": statistics.median(cals),
        "counters_per_pass": warm.counters,
    }
    return metrics, detail


def per_layer(workload, ledger, work: Path, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    start = time.perf_counter()
    warm = workload.run_pass(work / "pass0")
    ledger.first(warm)
    shutil.rmtree(work / "pass0", ignore_errors=True)
    untraced, untraced_raw, _ = run_passes(workload, ledger, work, start + seconds / 2,
                                           MIN_TRACE_PASSES, 1)

    tracer = tracing.Tracer()
    per_pass = []
    tracer.install()
    try:
        tracer.enabled = True
        traced, _, _ = run_passes(workload, ledger, work, start + seconds, MIN_TRACE_PASSES,
                               1 + len(untraced), on_pass=lambda: per_pass.append(tracer.take()))
    finally:
        tracer.uninstall()
    tracing.write_spans(spans_path, per_pass[0])

    summaries = [tracing.summarize(spans) for spans in per_pass]
    metrics, samples = {}, {}
    for fn in spec.TRACED:
        calls = [s.get(fn, {}).get("calls", 0) for s in summaries]
        if len(set(calls)) != 1:
            ledger.fail(f"{fn}: call counts differ between traced passes: {calls}")
        durations = [d for s in summaries for d in s.get(fn, {}).get("durations", [])]
        p50, p99 = tracing.percentiles_us(durations)
        metrics[f"{fn}.calls"] = (calls[0], "count")
        metrics[f"{fn}.self_s"] = (statistics.median(s.get(fn, {}).get("self_s", 0.0)
                                                      for s in summaries), "s")
        metrics[f"{fn}.us_per_call_p50"] = (p50, "us")
        metrics[f"{fn}.us_per_call_p99"] = (p99, "us")
        samples[fn] = len(durations)
    metrics["allocation.allocation_grid.cells"] = (
        warm.counters.get("allocation.allocation_grid.cells", 0), "count")
    metrics["fock.cutoff_escalations"] = (warm.counters.get("fock.cutoff_escalations", 0), "count")
    metrics["cli.bytes_written"] = (warm.counters.get("cli.bytes_written", 0), "B")
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    metrics["raw_wall_s"] = (statistics.median(untraced_raw), "s")

    imports = [import_times() for _ in range(IMPORTTIME_REPEATS)]
    for module in spec.IMPORTED:
        metrics[spec.import_metric(module)] = (
            statistics.median(t.get(module, 0.0) for t in imports), "s")
    detail = {
        "untraced_pass_wall_s": untraced,
        "traced_pass_wall_s": traced,
        "percentile_samples": samples,
        "importtime_repeats": IMPORTTIME_REPEATS,
        "counters_per_pass": warm.counters,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qlidar" / "__init__.py").is_file():
        print(f"qlidar sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports qlidar from SRC

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    ledger = Ledger(workload)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, detail = per_layer(workload, ledger, work, args.seconds,
                                        OUT / f"spans_{args.workload}_seed{args.seed}.csv")
        else:
            metrics, detail = end_to_end(workload, ledger, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = ledger.failed / ledger.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": workload.unit,
        "units_per_pass": workload.units_per_pass,
        "notes": list(workload.notes),
        "fingerprint": fingerprint(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": failed_frac,
        "errors": ledger.errors,
        "worst_rel_err": ledger.worst_rel_err,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    fp = record["fingerprint"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{workload.units_per_pass} {workload.unit} per pass")
    print("machine: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for note in workload.notes:
        print(f"note: {note}")
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed "
          f"(failed_frac {failed_frac:.4g}); worst relative error vs reference "
          f"{ledger.worst_rel_err:.3g}")
    for message in ledger.errors:
        print(f"failure: {message}")
    if not args.trace:
        print(f"passes timed: {len(detail['pass_wall_s'])} (raw median "
              f"{detail['raw_wall_s_median']:.4g} s; wall_s below is scaled to {CAL_REF_S} s "
              f"per calibration kernel); setup repeats: {SETUP_REPEATS} (raw median "
              f"{statistics.median(detail['raw_setup_samples_s']):.4g} s; setup_s below is "
              f"scaled to {SETUP_CAL_REF_S} s per calibration import)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
