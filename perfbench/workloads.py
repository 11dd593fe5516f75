"""The benchmark's workloads: seeded inputs, one pass of work, output checks.

A workload turns the benchmark seed into qlidar inputs, runs one pass of
fixed work through qlidar's public API and ``qlidar.cli.main`` in-process,
and checks the outputs of a pass against the independent references in
:mod:`reference`.  A pass is a list of operations (one CLI invocation, or
one oracle pair); each operation yields a digest of its outputs so that
repeated passes can be compared byte for byte.  ``run_pass`` hands each
segment of work (a CLI invocation, a chunk of oracle pairs) to a ``timed``
callable, so the caller decides how the pass is timed.

qlidar is imported through module attributes (``cli.main``, ``fock.build_state``)
so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from qlidar import cli, fock, metrics
from qlidar.errors import CutoffTooSmallError
from qlidar.states import GaussianState

# relative W2 tolerance per unit of tr sigma0 + tr sigma1 (absolute scale)
W2_ATOL_PER_TRACE = 1e-9
# CSVs carry 12 significant digits
CSV_RTOL = 1e-11
SNR_RTOL = 1e-9
# closed form vs Fock oracle, as acceptance criterion 4
ORACLE_ATOL = 1e-6
# cutoff convergence gate of criterion 4 and tools/freeze_oracle_reference.py
ORACLE_CONVERGENCE = 1e-8
ORACLE_START_CUTOFF = 60

_SCENARIO_FILE = re.compile(r"parametric_ntot(.+)_nth(.+)\.csv")

_STREAMS = {"sweep": 1, "grid": 2, "fading": 3, "oracle": 4}


def _rng(workload: str, seed: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload], *extra])


def _arg(x: float) -> str:
    # repr round-trips, so the CLI parses exactly the drawn value
    return repr(float(x))


@dataclass
class OpResult:
    """One operation of a pass: its error (None if it ran) and output digest."""

    label: str
    error: str | None
    digest: str | None
    payload: object = None


@dataclass
class PassResult:
    ops: list[OpResult]
    counters: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    error: str | None
    worst_rel_err: float


def _untimed(fn):
    return fn()


def _digest_csvs(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else abs(a - b)


def _check_w2(w2: float, pair, what: str) -> tuple[str | None, float]:
    mu0, s0, mu1, s1 = pair
    ref = reference.w2_sq(mu0, s0, mu1, s1)
    tol = W2_ATOL_PER_TRACE * reference.trace_sum(s0, s1)
    if not abs(w2 - ref) <= tol:
        return f"{what}: w2_sq {w2!r} vs reference {ref!r} (atol {tol:.2e})", _rel(w2, ref)
    return None, _rel(w2, ref)


class CliWorkload:
    """A workload made of qlidar CLI invocations run in-process."""

    name = ""
    unit = ""
    notes: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        # (label, argv without --out, parameters the check needs)
        self.ops = self.generate(seed)

    @staticmethod
    def generate(seed: int) -> list[tuple[str, tuple[str, ...], dict]]:
        raise NotImplementedError

    @property
    def units_per_pass(self) -> int:
        raise NotImplementedError

    @staticmethod
    def _invoke(argv: list[str]) -> str | None:
        try:
            code = cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            return f"{type(exc).__name__}: {exc}"
        return None if code == 0 else f"exit code {code}"

    def run_pass(self, pass_dir: Path, timed=_untimed) -> PassResult:
        outcomes = [timed(lambda: self._invoke([*argv, "--out", str(pass_dir / label)]))
                    for label, argv, _ in self.ops]
        ops = []
        for (label, _, _), error in zip(self.ops, outcomes):
            out = pass_dir / label
            digest = _digest_csvs(out) if error is None else None
            ops.append(OpResult(label, error, digest, out))
        written = sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())
        return PassResult(ops, {"cli.bytes_written": written})

    def check(self, index: int, op: OpResult) -> CheckResult:
        label, _, params = self.ops[index]
        try:
            return self.check_outputs(label, params, op.payload)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return CheckResult(f"{label}: unreadable output: {type(exc).__name__}: {exc}", math.inf)

    def check_outputs(self, label: str, params: dict, out: Path) -> CheckResult:
        raise NotImplementedError


class SweepWorkload(CliWorkload):
    """Several `qlidar benchmark` eta sweeps at seed-drawn scenarios."""

    name = "sweep"
    unit = "metric pairs"
    RUNS = 4
    ROWS = 200
    SAMPLED_ROWS = 16

    @staticmethod
    def generate(seed):
        rng = _rng("sweep", seed)
        ops = []
        for k in range(SweepWorkload.RUNS):
            p = {
                "n_tot": float(math.exp(rng.uniform(math.log(1.0), math.log(50.0)))),
                "n_th": float(rng.uniform(0.05, 3.0)),
                "lam": float(rng.uniform(0.05, 0.9)),
                "eta_det": float(rng.uniform(0.5, 1.0)),
            }
            argv = ("benchmark", "--n-tot", _arg(p["n_tot"]), "--n-th", _arg(p["n_th"]),
                    "--lambda", _arg(p["lam"]), "--eta-det", _arg(p["eta_det"]))
            ops.append((f"benchmark{k}", argv, p))
        return ops

    @property
    def units_per_pass(self):
        return self.RUNS * self.ROWS

    def check_outputs(self, label, p, out):
        header, rows = _read_csv(out / "benchmark.csv")
        if header != ["eta", "w2_sq", "xi_qbb_overlap", "xi_qbb_proxy", "xi_qcb", "snr_sq_opt"]:
            return CheckResult(f"{label}: unexpected header {header}", math.inf)
        if len(rows) != self.ROWS:
            return CheckResult(f"{label}: {len(rows)} rows, expected {self.ROWS}", math.inf)
        for eta, _, qbb, _, qcb, _ in rows:
            # Chernoff exponent >= Bhattacharyya exponent, both in [0, cap]
            if not (0.0 <= qbb <= qcb <= metrics.XI_SATURATION_CAP):
                return CheckResult(f"{label}: eta={eta}: xi_qbb {qbb} > xi_qcb {qcb}", math.inf)
        worst = 0.0
        rng = _rng("sweep", self.seed, int(label[len("benchmark"):]))
        for i in rng.choice(len(rows), self.SAMPLED_ROWS, replace=False):
            eta, w2, _, _, _, snr = rows[i]
            pair = reference.probe_pair(p["n_tot"], p["lam"], p["n_th"], eta, p["eta_det"])
            error, rel = _check_w2(w2, pair, f"{label} eta={eta}")
            worst = max(worst, rel)
            if error:
                return CheckResult(error, worst)
            snr_ref = reference.snr_sq(pair[0], pair[2], pair[3])
            if not _rel(snr, snr_ref) <= SNR_RTOL:
                return CheckResult(f"{label} eta={eta}: snr_sq_opt {snr!r} vs {snr_ref!r}", worst)
        return CheckResult(None, worst)


class GridWorkload(CliWorkload):
    """Serial heatmap at a seed-drawn budget plus the pooled 5-scenario parametric."""

    name = "grid"
    unit = "grid cells"
    notes = ("parametric runs allocation_grid in a 2-worker process pool; spans inside "
             "pool workers are not collected, so that part is reported only at the "
             "allocation.allocation_grid boundary",)
    GRID_STEP = 0.01
    LAMBDA_MAX = 0.95
    SCENARIOS = 5
    SAMPLED_CELLS = 32
    SAMPLED_ETAS = 3

    @staticmethod
    def generate(seed):
        rng = _rng("grid", seed)
        p = {"n_tot": float(math.exp(rng.uniform(math.log(1.0), math.log(50.0)))),
             "n_th": float(rng.uniform(0.05, 3.0))}
        step = _arg(GridWorkload.GRID_STEP)
        return [
            ("heatmap", ("heatmap", "--n-tot", _arg(p["n_tot"]), "--n-th", _arg(p["n_th"]),
                         "--grid-step", step), p),
            ("parametric", ("parametric", "--workers", "2", "--grid-step", step), {}),
        ]

    @classmethod
    def grid_sizes(cls) -> tuple[int, int]:
        return (int(round(1.0 / cls.GRID_STEP)) + 1,
                int(round(cls.LAMBDA_MAX / cls.GRID_STEP)) + 1)

    @property
    def units_per_pass(self):
        n_eta, n_lam = self.grid_sizes()
        return (1 + self.SCENARIOS) * n_eta * n_lam

    def run_pass(self, pass_dir, timed=_untimed):
        result = super().run_pass(pass_dir, timed)
        # every allocation_grid call scores the full (eta, lambda) grid
        result.counters["allocation.allocation_grid.cells"] = self.units_per_pass
        return result

    def check_outputs(self, label, p, out):
        if label == "heatmap":
            return self._check_heatmap(p, out)
        return self._check_parametric(out)

    def _check_heatmap(self, p, out):
        n_eta, n_lam = self.grid_sizes()
        _, scores = _read_csv(out / "heatmap_scores.csv")
        _, opt = _read_csv(out / "heatmap_lambda_opt.csv")
        if len(scores) != n_eta * n_lam or len(opt) != n_eta:
            return CheckResult(f"heatmap: {len(scores)} score rows, {len(opt)} lambda_opt rows",
                               math.inf)
        worst = 0.0
        rng = _rng("grid", self.seed, 0)
        for i in rng.choice(len(scores), self.SAMPLED_CELLS, replace=False):
            eta, lam, w2 = scores[i]
            pair = reference.probe_pair(p["n_tot"], lam, p["n_th"], eta)
            error, rel = _check_w2(w2, pair, f"heatmap eta={eta} lambda={lam}")
            worst = max(worst, rel)
            if error:
                return CheckResult(error, worst)
        for row, (eta, lam_opt) in enumerate(opt):
            cells = scores[row * n_lam:(row + 1) * n_lam]
            if any(c[0] != eta for c in cells):
                return CheckResult(f"heatmap: score rows out of order at eta={eta}", worst)
            at_opt = [w2 for _, lam, w2 in cells if lam == lam_opt]
            # rounding to 12 digits keeps the order, so the score at the argmax is
            # still the largest rounded score of its row
            if len(at_opt) != 1 or at_opt[0] != max(w2 for _, _, w2 in cells):
                return CheckResult(f"heatmap: lambda_opt {lam_opt} is not the argmax at eta={eta}",
                                   worst)
        return CheckResult(None, worst)

    def _check_parametric(self, out):
        files = sorted(out.glob("parametric_ntot*_nth*.csv"))
        if len(files) != self.SCENARIOS:
            return CheckResult(f"parametric: {len(files)} scenario files", math.inf)
        n_eta, n_lam = self.grid_sizes()
        lambdas = np.linspace(0.0, self.LAMBDA_MAX, n_lam)
        rng = _rng("grid", self.seed, 1)
        for path in files:
            n_tot, n_th = (float(v) for v in _SCENARIO_FILE.fullmatch(path.name).groups())
            _, rows = _read_csv(path)
            if len(rows) != n_eta:
                return CheckResult(f"parametric {path.name}: {len(rows)} rows", math.inf)
            for i in rng.choice(n_eta, self.SAMPLED_ETAS, replace=False):
                eta, lam_opt = rows[i]
                pairs = [reference.probe_pair(n_tot, lam, n_th, eta) for lam in lambdas]
                best = max(reference.w2_sq(*pair) for pair in pairs)
                tol = W2_ATOL_PER_TRACE * max(reference.trace_sum(pr[1], pr[3]) for pr in pairs)
                at_opt = reference.w2_sq(*reference.probe_pair(n_tot, lam_opt, n_th, eta))
                if not at_opt >= best - tol:
                    return CheckResult(
                        f"parametric {path.name} eta={eta}: lambda_opt {lam_opt} scores "
                        f"{at_opt!r}, reference max {best!r}", math.inf)
        return CheckResult(None, 0.0)


class FadingWorkload(CliWorkload):
    """Serial fading ensembles with seed-drawn Philox seeds and Beta shapes.

    The 2e4 realizations are split over four runs so that each timed segment
    is short enough for the calibration kernel around it to track the host.
    """

    name = "fading"
    unit = "realizations"
    RUNS = 4
    REALIZATIONS = 5_000
    SAMPLED_ROWS = 16
    N_TOT, LAM, N_TH = 10.0, 0.5, 2.0

    @staticmethod
    def generate(seed):
        rng = _rng("fading", seed)
        cls = FadingWorkload
        alpha, beta = float(rng.uniform(1.0, 5.0)), float(rng.uniform(1.0, 5.0))
        ops = []
        for k in range(cls.RUNS):
            p = {"seed": int(rng.integers(0, 2**31 - 1)), "alpha": alpha, "beta": beta}
            argv = ("fading", "--seed", str(p["seed"]), "--alpha", _arg(alpha),
                    "--beta", _arg(beta), "--realizations", str(cls.REALIZATIONS),
                    "--n-tot", _arg(cls.N_TOT), "--lambda", _arg(cls.LAM),
                    "--n-th", _arg(cls.N_TH))
            ops.append((f"fading{k}", argv, p))
        return ops

    @property
    def units_per_pass(self):
        return self.RUNS * self.REALIZATIONS

    def check_outputs(self, label, p, out):
        header, rows = _read_csv(out / "fading_realizations.csv")
        if header != ["realization", "eta", "w2_sq", "xi_qbb"] or len(rows) != self.REALIZATIONS:
            return CheckResult(f"fading: header {header}, {len(rows)} rows", math.inf)
        if any(row[0] != i for i, row in enumerate(rows)):
            return CheckResult("fading: realization column is not 0..N-1", math.inf)
        worst = 0.0
        rng = _rng("fading", self.seed, int(label[len("fading"):]))
        for i in rng.choice(len(rows), self.SAMPLED_ROWS, replace=False):
            _, eta, w2, _ = rows[i]
            eta_ref = reference.philox_eta(p["seed"], int(i), p["alpha"], p["beta"])
            if not _rel(eta, eta_ref) <= CSV_RTOL:
                return CheckResult(f"fading: realization {i}: eta {eta!r} vs Philox {eta_ref!r}",
                                   _rel(eta, eta_ref))
            pair = reference.probe_pair(self.N_TOT, self.LAM, self.N_TH, eta)
            error, rel = _check_w2(w2, pair, f"fading realization {i}")
            worst = max(worst, rel)
            if error:
                return CheckResult(error, worst)
        for key in ("eta", "w2_sq", "xi_qbb"):
            _, bins = _read_csv(out / f"fading_hist_{key}.csv")
            mass = sum(d * (right - left) for left, right, d in bins)
            if not abs(mass - 1.0) <= 1e-9:
                return CheckResult(f"fading: histogram {key} integrates to {mass!r}", worst)
        return CheckResult(None, worst)


class OracleWorkload:
    """Seed-drawn state pairs through the Fock oracle, closed forms alongside.

    Each pair starts at cutoff 60 and escalates, as the frozen reference
    table was made: on CutoffTooSmallError to the suggested cutoff, and
    while a 1.5x larger cutoff still moves the fidelity or the s = 1/2
    overlap by 1e-8 or more.
    """

    name = "oracle"
    unit = "oracle pairs"
    notes = ()
    PAIRS = 270
    PAIRS_PER_SEGMENT = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.params = self.generate(seed)
        self.pairs = [(self.state(a), self.state(b)) for a, b in self.params]

    @staticmethod
    def generate(seed):
        """Pairs of (nbar, r, phi, mu_q, mu_p) in the frozen table's ranges."""
        rng = _rng("oracle", seed)

        def draw():
            return (float(rng.uniform(0.0, 0.8)), float(rng.uniform(0.0, 0.8)),
                    float(rng.uniform(0.0, math.pi)),
                    float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))

        return [(draw(), draw()) for _ in range(OracleWorkload.PAIRS)]

    @staticmethod
    def state(params) -> GaussianState:
        nbar, r, phi, mu_q, mu_p = params
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        core = (2.0 * nbar + 1.0) * np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)])
        return GaussianState([mu_q, mu_p], rot @ core @ rot.T)

    @property
    def units_per_pass(self):
        return self.PAIRS

    @staticmethod
    def _at_cutoff(s0, s1, cutoff):
        rho0 = fock.build_state(s0, cutoff)
        rho1 = fock.build_state(s1, cutoff)
        return fock.oracle_fidelity(rho0, rho1), fock.oracle_s_overlap(rho0, rho1, 0.5)

    def _converged(self, s0, s1):
        cutoff, escalations = ORACLE_START_CUTOFF, 0
        while True:
            bigger = int(math.ceil(1.5 * cutoff))
            try:
                fid, half = self._at_cutoff(s0, s1, cutoff)
                fid2, half2 = self._at_cutoff(s0, s1, bigger)
            except CutoffTooSmallError as exc:
                cutoff, escalations = exc.suggested_cutoff, escalations + 1
                continue
            if abs(fid - fid2) < ORACLE_CONVERGENCE and abs(half - half2) < ORACLE_CONVERGENCE:
                return fid, half, cutoff, escalations
            cutoff, escalations = bigger, escalations + 1

    def _evaluate(self, s0, s1):
        try:
            fid, half, cutoff, esc = self._converged(s0, s1)
            closed_fid = metrics.gaussian_fidelity(s0, s1)
            closed_half = math.exp(-metrics.xi_qbb(s0, s1))
        except Exception as exc:  # counted as a failed operation
            return f"{type(exc).__name__}: {exc}", None
        return None, (fid, half, closed_fid, closed_half, cutoff, esc)

    def run_pass(self, pass_dir: Path, timed=_untimed) -> PassResult:
        results = []
        step = self.PAIRS_PER_SEGMENT
        for k in range(0, len(self.pairs), step):
            results += timed(lambda: [self._evaluate(s0, s1) for s0, s1 in self.pairs[k:k + step]])
        ops = []
        for k, (error, values) in enumerate(results):
            digest = None if values is None else hashlib.sha256(repr(values).encode()).hexdigest()
            ops.append(OpResult(f"pair{k}", error, digest, values))
        escalations = sum(v[5] for _, v in results if v is not None)
        return PassResult(ops, {"fock.cutoff_escalations": escalations})

    def check(self, index: int, op: OpResult) -> CheckResult:
        fid, half, closed_fid, closed_half, cutoff, _ = op.payload
        worst = max(_rel(closed_fid, fid), _rel(closed_half, half))
        if not (abs(fid - closed_fid) <= ORACLE_ATOL and abs(half - closed_half) <= ORACLE_ATOL):
            return CheckResult(
                f"{op.label}: oracle F={fid!r} Q={half!r} vs closed form F={closed_fid!r} "
                f"Q={closed_half!r} at cutoff {cutoff} (atol {ORACLE_ATOL})", worst)
        return CheckResult(None, worst)


WORKLOADS = {w.name: w for w in (SweepWorkload, GridWorkload, FadingWorkload, OracleWorkload)}
