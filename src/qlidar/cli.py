"""Command-line front end.

Six subcommands: benchmark (metric sweep over transmissivity), heatmap
(score map over transmissivity and squeezing fraction), parametric
(optimal-fraction curves for several power/noise scenarios), fading
(Monte-Carlo fading ensemble), metrics (single state-pair report) and
threshold (quantum-advantage threshold evaluation).

Each subcommand declares its parameters and their defaults once, in
``_SUBCOMMANDS``; its parser takes only those flags.  Every run resolves
them as flags > config file > built-in defaults, writes UTF-8 CSV files
with LF line endings and 12 significant digits, and leaves a flat
key = value manifest next to them, also on failure once the command line
has parsed; a command line the parser rejects (a flag the subcommand does
not read, a value of the wrong type) exits 2 with a usage message and
leaves no manifest.  Exit codes: 0 success, 2 parameter error, 3 I/O
error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, allocation, fading, kernel, metrics
from .channel import ChannelParams, apply_loss, effective_noise
from .errors import InvalidParameterError, NumericalError
from .states import GaussianState, ProbeBudget, probe_from_budget, thermal_state

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

PARAMETRIC_SCENARIOS = ((5.0, 0.1), (5.0, 2.0), (10.0, 0.1), (20.0, 0.1), (20.0, 2.0))
# rows that _write_csv formats in one call; a chunk's text is a few hundred kB
_CSV_CHUNK_ROWS = 4096


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Equal-length ``columns`` as rows of values formatted as :func:`_fmt`
    formats them; "%.12g" is that format, applied to a chunk in one call."""
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            block = np.column_stack([c[start:start + _CSV_CHUNK_ROWS] for c in columns])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_manifest(path: Path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Each key of ``defaults`` from its flag, else the config file, else the default."""
    config = _read_config(args.config) if args.config else {}
    unknown = sorted(set(config) - set(_FLAGS))
    if unknown:
        raise InvalidParameterError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None and key in config:
            try:
                value = _FLAGS[key][1](config[key])
            except ValueError as exc:
                raise InvalidParameterError(f"config key {key}: {exc}") from exc
        resolved[key] = default if value is None else value
    return resolved


def _parse_state(text: str, name: str) -> GaussianState:
    fields = ("mu_q", "mu_p", "sigma_qq", "sigma_qp", "sigma_pp")
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise InvalidParameterError(
            f"{name} must have 5 comma-separated values {fields}, got {len(parts)}"
        )
    values = []
    for field, part in zip(fields, parts):
        try:
            values.append(float(part))
        except ValueError:
            raise InvalidParameterError(f"{name}: invalid value for {field}: {part!r}") from None
    return GaussianState.from_moments(values)


def cmd_benchmark(p: dict, out_dir: Path, manifest: dict) -> list[Path]:
    n_tot, n_th, lam, eta_det, v_el = p["n_tot"], p["n_th"], p["lam"], p["eta_det"], p["v_el"]
    etas = np.linspace(0.001, 1.0, 200) if p["eta"] is None else np.array([p["eta"]])
    manifest.update({k: v for k, v in p.items() if v is not None})
    manifest["eta_sweep"] = "single" if p["eta"] is not None else "0.001:1:200"

    # validate once at the largest eta, which also raises the SingularityError
    # of v_el > 0 at unit eta_eff, then score every eta in one kernel call
    effective_noise(ChannelParams(eta=etas.max(), n_th=n_th, eta_det=eta_det, v_el=v_el))
    ProbeBudget(n_tot, lam)
    eta_eff = etas * eta_det
    n_eff = kernel.effective_noise(n_th, v_el, eta_eff)
    h1 = kernel.channel(kernel.probe(lam, n_tot), eta_eff, n_eff)
    scores = kernel.report(h1, kernel.thermal(n_eff))
    columns = ("w2_sq", "xi_qbb", "xi_qbb_proxy", "xi_qcb", "snr_sq_opt")
    path = out_dir / "benchmark.csv"
    _write_csv(path, ["eta", "w2_sq", "xi_qbb_overlap", "xi_qbb_proxy", "xi_qcb", "snr_sq_opt"],
               [etas, *(scores[c] for c in columns)])
    return [path]


def _grids(step: float):
    return allocation.default_eta_grid(step), allocation.default_lambda_grid(step)


def cmd_heatmap(p: dict, out_dir: Path, manifest: dict) -> list[Path]:
    n_tot, n_th = p["n_tot"], p["n_th"]
    manifest.update(p)

    eta_grid, lambda_grid = _grids(p["grid_step"])
    grid = allocation.allocation_grid(n_tot, n_th, eta_grid, lambda_grid,
                                      eta_det=p["eta_det"], workers=p["workers"])
    etas, lams = np.meshgrid(grid.eta_grid, grid.lambda_grid, indexing="ij")
    scores_path = out_dir / "heatmap_scores.csv"
    opt_path = out_dir / "heatmap_lambda_opt.csv"
    _write_csv(scores_path, ["eta", "lambda", "w2_sq"],
               [etas.ravel(), lams.ravel(), grid.scores.ravel()])
    _write_csv(opt_path, ["eta", "lambda_opt"], [grid.eta_grid, grid.lambda_opt])

    found = allocation.transition_eta(grid)
    eta_c = allocation.eta_critical(n_tot, n_th)
    manifest["transition_eta_empirical"] = "none" if found is None else _fmt(found)
    manifest["eta_critical_analytic"] = _fmt(eta_c)
    manifest["eta_critical_reachable"] = str(eta_c <= 1.0).lower()
    return [scores_path, opt_path]


def cmd_parametric(p: dict, out_dir: Path, manifest: dict) -> list[Path]:
    if (p["n_tot"] is None) != (p["n_th"] is None):
        raise InvalidParameterError("give both --n-tot and --n-th to select one scenario")
    scenarios = PARAMETRIC_SCENARIOS if p["n_tot"] is None else ((p["n_tot"], p["n_th"]),)
    manifest.update({k: p[k] for k in ("eta_det", "grid_step", "workers")})
    manifest["scenarios"] = ";".join(f"{_fmt(n)}:{_fmt(t)}" for n, t in scenarios)

    eta_grid, lambda_grid = _grids(p["grid_step"])
    paths = []
    for n, t in scenarios:
        grid = allocation.allocation_grid(n, t, eta_grid, lambda_grid,
                                          eta_det=p["eta_det"], workers=p["workers"])
        path = out_dir / f"parametric_ntot{_fmt(n)}_nth{_fmt(t)}.csv"
        _write_csv(path, ["eta", "lambda_opt"], [grid.eta_grid, grid.lambda_opt])
        found = allocation.transition_eta(grid)
        manifest[f"transition_eta_ntot{_fmt(n)}_nth{_fmt(t)}"] = (
            "none" if found is None else _fmt(found)
        )
        paths.append(path)
    return paths


def cmd_fading(p: dict, out_dir: Path, manifest: dict) -> list[Path]:
    manifest.update(p)
    config = fading.FadingConfig(alpha=p["alpha"], beta=p["beta"], n_realizations=p["realizations"],
                                 seed=p["seed"], probe=ProbeBudget(p["n_tot"], p["lam"]),
                                 n_th=p["n_th"])
    ensemble = fading.run_ensemble(config, workers=p["workers"])
    real_path = out_dir / "fading_realizations.csv"
    _write_csv(real_path, ["realization", "eta", "w2_sq", "xi_qbb"],
               [np.arange(ensemble.etas.size), ensemble.etas, ensemble.w2_sq, ensemble.xi_qbb])
    paths = [real_path]
    for key in ("eta", "w2_sq", "xi_qbb"):
        hist = ensemble.histograms[key]
        path = out_dir / f"fading_hist_{key}.csv"
        _write_csv(path, ["bin_left", "bin_right", "density"],
                   [hist.edges[:-1], hist.edges[1:], hist.density])
        paths.append(path)

    s = ensemble.summary
    if s.iqr_over_median_xi_qbb > 0.0:
        contrast = s.iqr_over_median_w2_sq / s.iqr_over_median_xi_qbb
    else:
        contrast = float("nan")
    manifest.update({
        "mean_eta": _fmt(s.mean_eta),
        "var_eta": _fmt(s.var_eta),
        "mean_w2_sq": _fmt(s.mean_w2_sq),
        "mean_xi_qbb": _fmt(s.mean_xi_qbb),
        "cv_w2_sq": _fmt(s.cv_w2_sq),
        "cv_xi_qbb": _fmt(s.cv_xi_qbb),
        "pearson_w2_eta": _fmt(s.pearson_w2_eta),
        "iqr_over_median_w2_sq": _fmt(s.iqr_over_median_w2_sq),
        "iqr_over_median_xi_qbb": _fmt(s.iqr_over_median_xi_qbb),
        "contrast_iqr_median": _fmt(contrast),
        "saturated_count": s.saturated_count,
    })
    sel = fading.post_select(ensemble, metric="w2", quantile=0.9)
    manifest["postselect_w2_q90_mean_eta"] = _fmt(sel.mean_eta_selected)
    manifest["postselect_w2_q90_efficiency"] = _fmt(sel.efficiency)
    return paths


# channel of the metrics --budget shorthand; unused with an explicit state pair
_BUDGET_CHANNEL = {"eta": 1.0, "n_th": 0.0, "eta_det": 1.0, "v_el": 0.0}


def cmd_metrics(p: dict, out_dir: Path, manifest: dict) -> list[Path]:
    if p["state0"] is not None or p["state1"] is not None:
        if p["state0"] is None or p["state1"] is None:
            raise InvalidParameterError("give both --state0 and --state1")
        unused = [_FLAGS[k][0] for k in _BUDGET_CHANNEL if p[k] is not None]
        if unused:
            raise InvalidParameterError(f"{', '.join(unused)} apply only with --budget")
        state_h0 = _parse_state(p["state0"], "state0")
        state_h1 = _parse_state(p["state1"], "state1")
        manifest.update({"state0": p["state0"], "state1": p["state1"]})
    elif p["budget"] is not None:
        parts = [part.strip() for part in p["budget"].split(",")]
        if len(parts) not in (2, 3):
            raise InvalidParameterError("budget must be 'n_tot,lambda[,phase]'")
        try:
            n_tot, lam = float(parts[0]), float(parts[1])
            phase = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError as exc:
            raise InvalidParameterError(f"budget: {exc}") from None
        channel = {k: default if p[k] is None else p[k] for k, default in _BUDGET_CHANNEL.items()}
        n_eff = effective_noise(ChannelParams(**channel))
        probe = probe_from_budget(ProbeBudget(n_tot, lam, displacement_phase=phase))
        state_h1 = apply_loss(probe, ChannelParams(eta=channel["eta"], n_th=n_eff,
                                                   eta_det=channel["eta_det"]))
        state_h0 = thermal_state(n_eff)
        manifest.update(channel, budget_n_tot=n_tot, budget_lambda=lam, budget_phase=phase)
    else:
        raise InvalidParameterError("give either --state0/--state1 or --budget")

    rep = metrics.metric_report(state_h1, state_h0)
    for key in ("w2_sq", "displacement_term", "bures_sq", "fidelity",
                "xi_qbb", "xi_qbb_proxy", "xi_qcb", "snr_sq_opt", "theta_opt"):
        value = getattr(rep, key)
        print(f"{key} = {_fmt(value)}")
        manifest[key] = _fmt(value)
    return []


def cmd_threshold(p: dict, out_dir: Path, manifest: dict) -> list[Path]:
    n_tot, n_th = p["n_tot"], p["n_th"]
    # checked before any output; eta = 1 stands in where --eta is not read
    params = ChannelParams(eta=1.0 if p["eta"] is None else p["eta"], n_th=n_th,
                           eta_det=p["eta_det"], v_el=p["v_el"])
    imperfect = params.v_el > 0.0 or params.eta_det < 1.0
    if (p["eta"] is not None) != imperfect:
        raise InvalidParameterError("--eta is needed with --eta-det < 1 or --v-el > 0, and only then")
    manifest.update({k: v for k, v in p.items() if v is not None})

    eta_c = allocation.eta_critical(n_tot, n_th)
    reachable = eta_c <= 1.0
    print(f"eta_critical = {_fmt(eta_c)}")
    print(f"reachable = {str(reachable).lower()}")
    manifest["eta_critical"] = _fmt(eta_c)
    manifest["reachable"] = str(reachable).lower()
    if not reachable:
        print("no quantum regime at any transmissivity")

    if imperfect:
        eta_c_eff = allocation.eta_critical_effective(n_tot, params)
        print(f"eta_critical_effective = {_fmt(eta_c_eff)}")
        print(f"eta_effective = {_fmt(params.eta_eff)}")
        manifest["eta_critical_effective"] = _fmt(eta_c_eff)
        manifest["eta_effective"] = _fmt(params.eta_eff)
    return []


# key -> (flag, type, help); the key doubles as config-file and manifest key
_FLAGS = {
    "n_tot": ("--n-tot", float, "total mean photon budget"),
    "n_th": ("--n-th", float, "thermal background occupation"),
    "lam": ("--lambda", float, "squeezing fraction of the budget"),
    "eta": ("--eta", float, "channel transmissivity"),
    "eta_det": ("--eta-det", float, "detector efficiency (folded into eta)"),
    "v_el": ("--v-el", float, "detector electronic noise in shot-noise units"),
    "seed": ("--seed", int, "RNG seed"),
    "grid_step": ("--grid-step", float, "grid step for eta and lambda sweeps"),
    "realizations": ("--realizations", int, "number of Monte-Carlo realizations"),
    "workers": ("--workers", int,
                "parallel workers: threads for heatmap/parametric, processes for fading "
                "(output is byte-identical for any N)"),
    "alpha": ("--alpha", float, "Beta shape alpha"),
    "beta": ("--beta", float, "Beta shape beta"),
    "state0": ("--state0", str, "H0 state as mu_q,mu_p,sigma_qq,sigma_qp,sigma_pp"),
    "state1": ("--state1", str, "H1 state as mu_q,mu_p,sigma_qq,sigma_qp,sigma_pp"),
    "budget": ("--budget", str, "probe shorthand n_tot,lambda[,phase]; pairs with --eta/--n-th"),
}

# subcommand -> (help, {key: default}); None means "not given"
_SUBCOMMANDS = {
    "benchmark": ("metric sweep over transmissivity", {
        "n_tot": 5.0, "n_th": 2.0, "lam": 0.5, "eta_det": 1.0, "v_el": 0.0, "eta": None}),
    "heatmap": ("Wasserstein score map over (eta, lambda)", {
        "n_tot": 10.0, "n_th": 0.1, "eta_det": 1.0, "grid_step": 0.01, "workers": 1}),
    "parametric": ("optimal squeezing fraction per power/noise scenario", {
        "eta_det": 1.0, "grid_step": 0.01, "workers": 1, "n_tot": None, "n_th": None}),
    "fading": ("Monte-Carlo fading ensemble", {
        "alpha": 2.0, "beta": 3.0, "realizations": 10_000, "seed": fading.DEFAULT_SEED,
        "n_tot": 10.0, "lam": 0.5, "n_th": 2.0, "workers": 1}),
    "metrics": ("all metrics for one state pair", {
        "state0": None, "state1": None, "budget": None, **dict.fromkeys(_BUDGET_CHANNEL)}),
    "threshold": ("quantum-advantage threshold", {
        "n_tot": 10.0, "n_th": 0.1, "eta_det": 1.0, "v_el": 0.0, "eta": None}),
}

_COMMANDS = {
    "benchmark": cmd_benchmark,
    "heatmap": cmd_heatmap,
    "parametric": cmd_parametric,
    "fading": cmd_fading,
    "metrics": cmd_metrics,
    "threshold": cmd_threshold,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlidar", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qlidar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in defaults:
            flag, cast, flag_help = _FLAGS[key]
            p.add_argument(flag, dest=key, type=cast, help=flag_help)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None, help="flat key = value config file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command

    start = time.perf_counter()
    manifest: dict = {
        "command": command,
        "artifact_version": __version__,
        "status": "error",
    }
    out_dir = Path(args.out)
    outputs: list[Path] = []
    code = EXIT_OK
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
        params = _resolve(args, _SUBCOMMANDS[command][1])
        outputs = _COMMANDS[command](params, out_dir, manifest)
        manifest["status"] = "ok"
    except InvalidParameterError as exc:
        manifest["error"] = str(exc)
        print(f"parameter error: {exc}", file=sys.stderr)
        code = EXIT_PARAMETER
    except OSError as exc:
        manifest["error"] = str(exc)
        print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except (NumericalError, FloatingPointError) as exc:
        manifest["error"] = str(exc)
        print(f"numerical error: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    except Exception as exc:  # recorded, then raised unchanged
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["duration_s"] = f"{time.perf_counter() - start:.3f}"
        for i, path in enumerate(outputs):
            manifest[f"output_{i}"] = str(path)
        try:
            _write_manifest(out_dir / f"{command}_manifest.txt", manifest)
        except OSError:
            if code == EXIT_OK:
                code = EXIT_IO
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
