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

With ``--write-pins`` the runs from SRC_B are then pinned in ``PINS``, which
``tests/test_cli.py`` checks the in-process runs of the same lines against: per
line the exit code and the sha256 of stdout and of every file written, under a
header naming numpy's version and the CPU features it dispatches on, since
numpy's SIMD ``log``, ``exp``, ``expm1`` and ``arctan2`` may differ by an ulp
between CPUs and so move a 12-digit cell with no program change.
"""

import argparse
import csv
import difflib
import hashlib
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PINS = Path(__file__).resolve().parents[1] / "tests" / "data" / "cli_outputs.sha256"

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
    "fading --workers 64 --realizations 3000",
    "fading --realizations 1 --workers 2",
    "fading --alpha 0.5 --beta 1 --realizations 3000 --seed 11",
    "fading --alpha 1.000001 --beta 60 --realizations 20000 --seed 5",
    "fading --realizations 1",
    "fading --realizations 2 --seed 3",
    "fading --alpha 0.001 --beta 1 --realizations 3001 --seed 5",
    "fading --n-tot 0 --n-th 0 --realizations 7",
    "fading --realizations 40000 --workers 2 --seed 9",  # several blocks over the pool
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
    "threshold --n-tot 1 --n-th 2",
    "threshold --eta 0.5 --eta-det 0.8",
    "benchmark --eta 1.5",
    "benchmark --eta nan",  # the error names the value as the command line gave it
    "metrics --state0 0,0,1,x,1 --state1 0,0,1,0,1",
    "metrics --state0 0,0,1,0 --state1 0,0,1,0,1",
    "metrics --budget 5,0.5,0,1",
    "metrics --budget a,0.5",
    "metrics --state0 0,0,1,0,1 --state1 1.41,0,1,0,1 --budget 5,0.5",
    "threshold --n-tot 1e21",
    "metrics --state0 0,0,1,0,1 --state1 0,0,1e200,0,1e200",
    "fading --realizations 10000001",
    # a general pair with s* near 0.65, and a near-pure state against a mixed one (s* near 0.15)
    "metrics --state0 2.456266685841861,0.30994626445227585,5.28197410538129,0.023740030776651856,"
    "2.767994128416328 --state1=-0.06789540783267793,0.6775493330735691,9.097762478514328,"
    "-4.813503497055847,2.8701387331574346",
    "metrics --state0 0,0,1.0000001,0,1 --state1 0.5,-0.3,2,0.1,4",
    "metrics --state0 0,0,1,0,1 --state1 -1,0,1,0,1",  # a negative first value, two tokens
    # a grid's checks run in order: grid step, then workers, then the grid's own
    "heatmap --n-tot 0",  # scored, then no threshold: the manifest has no transition
    "parametric --workers 0",
    "heatmap --workers 0 --grid-step 0",
)


def written(out: Path) -> dict[str, bytes]:
    """{relative path: bytes} of every file written to ``out``, each manifest without
    its run time and with ``out`` as ``<out>``."""
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    for name, data in files.items():
        if name.endswith("_manifest.txt"):
            lines = data.decode().replace(str(out), "<out>").splitlines(keepends=True)
            files[name] = "".join(x for x in lines if not x.startswith("duration_s =")).encode()
    return files


def run(src: Path, line: str, out: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stdout and the ``written`` files of one command line."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    out.parent.mkdir(parents=True, exist_ok=True)
    result = subprocess.run([sys.executable, "-m", "qlidar", *shlex.split(line), "--out", str(out)],
                            capture_output=True, text=True, env=env, cwd=out.parent)
    return result.returncode, result.stdout, written(out)


def fingerprint() -> str:
    """numpy's version and the CPU features its ufunc loops dispatch on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ModuleNotFoundError:  # numpy 1.x, where numpy._core is still numpy.core
        from numpy.core._multiarray_umath import __cpu_features__
    enabled = sorted(name for name, on in __cpu_features__.items() if on)
    return f"numpy {np.__version__}; " + " ".join(enabled)


def pin(line: str, code: int, stdout: str, files: dict[str, bytes]) -> str:
    """The line of ``PINS`` for one run: its command line, exit code and the sha256 of
    its stdout and of each ``written`` file, tab-separated."""
    outputs = {"stdout": stdout.encode(), **dict(sorted(files.items()))}
    digests = [f"{name} {hashlib.sha256(data).hexdigest()}" for name, data in outputs.items()]
    return "\t".join([line, f"exit {code}", *digests])


def read_pins() -> tuple[str, dict[str, str]]:
    """(fingerprint, {command line: pin}) of a pins file."""
    lines = PINS.read_text(encoding="utf-8").splitlines()
    found = next(x for x in lines if x.startswith("# fingerprint: "))
    return found.removeprefix("# fingerprint: "), {x.split("\t", 1)[0]: x for x in lines
                                                    if x and not x.startswith("#")}


def write_pins(pins: list[str]) -> None:
    header = ["# sha256 of what each command line of tools/compare_cli_outputs.py writes, as run",
              "# from one tree: exit code, stdout and every file, manifests normalised as the tool",
              "# compares them.  Rewrite with:",
              "#     python tools/compare_cli_outputs.py PARENT/src src --write-pins",
              f"# fingerprint: {fingerprint()}"]
    PINS.write_text("\n".join(header + pins) + "\n", encoding="utf-8")


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
    parser.add_argument("--write-pins", action="store_true",
                        help=f"then pin the runs from SRC_B in {PINS.relative_to(PINS.parents[2])}")
    args = parser.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not (src / "qlidar" / "__init__.py").is_file():
            parser.error(f"{src} holds no qlidar package")

    failed, pins = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for i, line in enumerate(COMMANDS):
            runs = [run(src.resolve(), line, Path(tmp) / side / str(i))
                    for side, src in (("a", args.src_a), ("b", args.src_b))]
            found = differences(*runs)
            print(f"{'DIFF' if found else 'same'}: qlidar {line} (exit {runs[0][0]})")
            for text in found:
                print(f"  {text}")
            failed += bool(found)
            pins.append(pin(line, *runs[1]))
    print(f"{len(COMMANDS)} command lines, {failed} with differences")
    if args.write_pins:
        write_pins(pins)
        print(f"pinned the runs from {args.src_b} in {PINS}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
