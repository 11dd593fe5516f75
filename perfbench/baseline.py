"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --first-seed 1 --out perfbench/baseline.json

For every workload this runs ``run.py --trace 0`` once per seed (the
``RUNS`` seeds from ``--first-seed`` on) and ``run.py --trace 1``
once at the first seed.  For each end-to-end metric it records the median,
the quartiles as ``statistics.quantiles(values, n=4)`` gives them and the
spread (q3 - q1) / median, next to the metric's bound; per-layer metrics
are recorded from the traced run.  A later change is compared with the
parent by running this on both commits on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = HERE / "out" / f"{workload}_seed{seed}_trace{trace}.json"
    result["fingerprint"] = json.loads(record_path.read_text())["fingerprint"]
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "baseline.json")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    summary = {"run_seconds": spec.RUN_SECONDS, "seeds": seeds, "workloads": {}}
    for workload in spec.WORKLOADS:
        started = time.perf_counter()
        runs = [run_once(workload, seed, spec.RUN_SECONDS, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], spec.RUN_SECONDS, 1)
        summary["fingerprint"] = runs[0]["fingerprint"]
        end_to_end = {
            name: summarise([r["metrics"][name]["value"] for r in runs], bound)
            for name, (_, _, bound) in spec.END_TO_END.items()
        }
        summary["workloads"][workload] = {
            "unit": spec.WORKLOADS[workload][0],
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(f"{workload}: {time.perf_counter() - started:.0f} s, failed "
              f"{summary['workloads'][workload]['failed']}", flush=True)
        for name, s in end_to_end.items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
    summary["layer_map"] = [
        {"layer_metrics": list(layer), "moves": list(moves), "workloads": list(where)}
        for layer, moves, where in spec.LAYER_MAP
    ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
