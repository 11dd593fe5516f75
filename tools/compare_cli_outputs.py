"""Run the CLI from two source trees and report every difference in what it writes.

Each command line of ``COMMANDS`` runs in a fresh interpreter, once with
``PYTHONPATH`` set to SRC_A and once with SRC_B (directories from which
``import qlidar`` resolves, such as a checkout's ``src``).  The exit codes,
stdout, the set of files written and every CSV are compared byte for byte,
and every manifest line by line once its ``duration_s`` line is dropped and
the run's ``--out`` directory is replaced by ``<out>``.  Each difference is
printed, a differing CSV with every moved column, its moved-cell count and
its worst relative change, a differing manifest with its moved lines, and
the exit code is 1 if there is any:

    python tools/compare_cli_outputs.py /path/to/other/checkout/src src
"""

import argparse
import csv
import difflib
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    "benchmark",
    "benchmark --eta 0.5",
    "benchmark --eta-det 0.8 --v-el 0.1",
    "heatmap",
    "heatmap --workers 2",
    "heatmap --n-tot 3.3 --n-th 0.7 --grid-step 0.003",
    "parametric --workers 2",
    "parametric --n-tot 7 --n-th 0.4",
    "parametric --n-tot 0 --n-th 0.1",
    "fading",
    "fading --workers 2",
    "fading --alpha 0.5 --beta 1 --realizations 3000 --seed 11",
    "metrics --budget 5,0.5 --eta 0.6 --n-th 1",
    "metrics --budget 5,0.5,0.3 --eta 0.6 --n-th 1 --eta-det 0.8 --v-el 0.1",
    "metrics --state0 0,0,1,0,1 --state1 1.41,0,1,0,1",
    "metrics --budget 5,1 --eta 0.6 --n-th 1",
    "metrics --state0 0,0,1,0,1 --state1 0,0,0.5,0.2,3",
    "metrics --budget 1e16,1 --eta 0.5 --n-th 0.1",
    "metrics --state0 0,0,3,0,3 --state1 1,0,0.5,0,2",
    "metrics --state0 0.3,-0.2,1.7,0.4,2.2 --state1 0.3,-0.2,1.7,0.4,2.2",
    "threshold",
    "threshold --eta 0.5 --eta-det 0.8 --v-el 0.1",
    "benchmark --eta 1.5",
)


def run(src: Path, line: str, out: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stdout and {relative path: bytes} of every file written to ``out``,
    each manifest without its run time and with ``out`` as ``<out>``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    out.parent.mkdir(parents=True, exist_ok=True)
    result = subprocess.run([sys.executable, "-m", "qlidar", *shlex.split(line), "--out", str(out)],
                            capture_output=True, text=True, env=env, cwd=out.parent)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    for name, data in files.items():
        if name.endswith("_manifest.txt"):
            lines = data.decode().replace(str(out), "<out>").splitlines(keepends=True)
            files[name] = "".join(x for x in lines if not x.startswith("duration_s =")).encode()
    return result.returncode, result.stdout, files


def line_diff(what: str, lines_a: list[str], lines_b: list[str]) -> str:
    diff = difflib.unified_diff(lines_a, lines_b, "A", "B", lineterm="", n=0)
    return f"{what} differs:\n    " + "\n    ".join(list(diff)[:20])


def differences(a, b) -> list[str]:
    (code_a, stdout_a, files_a), (code_b, stdout_b, files_b) = a, b
    found = []
    if code_a != code_b:
        found.append(f"exit code {code_a} (A) != {code_b} (B)")
    if stdout_a != stdout_b:
        found.append(line_diff("stdout", stdout_a.splitlines(), stdout_b.splitlines()))
    if set(files_a) != set(files_b):
        found.append(f"files written only by A: {sorted(set(files_a) - set(files_b))}, "
                     f"only by B: {sorted(set(files_b) - set(files_a))}")
    for name in sorted(set(files_a) & set(files_b)):
        if files_a[name] == files_b[name]:
            continue
        if not name.endswith(".csv"):
            found.append(line_diff(name, files_a[name].decode().splitlines(),
                                   files_b[name].decode().splitlines()))
            continue
        lines_a, lines_b = files_a[name].splitlines(), files_b[name].splitlines()
        first = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                     min(len(lines_a), len(lines_b)))
        found.append(f"{name} differs from line {first + 1} "
                     f"({len(lines_a)} lines in A, {len(lines_b)} in B)"
                     + "".join(f"\n    {line}" for line in moved_columns(lines_a, lines_b)))
    return found


def moved_columns(lines_a, lines_b) -> list[str]:
    """One line per column whose cells differ: the moved-cell count and the worst
    relative change |b - a| / |a| of a numeric cell (absolute where a = 0).  Tables
    whose headers or row counts differ are not compared cell by cell."""
    rows_a = list(csv.reader(line.decode() for line in lines_a))
    rows_b = list(csv.reader(line.decode() for line in lines_b))
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        return ["headers or row counts differ"]
    report = []
    for j, column in enumerate(rows_a[0]):
        moved, worst = 0, 0.0
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            x, y = row_a[j:j + 1], row_b[j:j + 1]
            if x == y:
                continue
            moved += 1
            try:
                a, b = float(x[0]), float(y[0])
            except (IndexError, ValueError):
                worst = math.inf
                continue
            worst = max(worst, abs(b - a) / abs(a) if a else abs(b))
        if moved:
            report.append(f"column {column}: {moved} of {len(rows_a) - 1} cells moved, "
                          f"worst relative change {worst:.3g}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path, help="directory holding one tree's qlidar package")
    parser.add_argument("src_b", type=Path, help="directory holding the other tree's qlidar package")
    args = parser.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not (src / "qlidar" / "__init__.py").is_file():
            parser.error(f"{src} holds no qlidar package")

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, line in enumerate(COMMANDS):
            runs = [run(src.resolve(), line, Path(tmp) / side / str(i))
                    for side, src in (("a", args.src_a), ("b", args.src_b))]
            found = differences(*runs)
            print(f"{'DIFF' if found else 'same'}: qlidar {line} (exit {runs[0][0]})")
            for text in found:
                print(f"  {text}")
            failed += bool(found)
    print(f"{len(COMMANDS)} command lines, {failed} with differences")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
