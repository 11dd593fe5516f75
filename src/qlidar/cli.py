"""Command-line front end.

Six subcommands: benchmark (metric sweep over transmissivity), heatmap
(score map over transmissivity and squeezing fraction), parametric
(optimal-fraction curves for several power/noise scenarios), fading
(Monte-Carlo fading ensemble), metrics (single state-pair report) and
threshold (quantum-advantage threshold evaluation).

Each subcommand declares its parameters and their defaults once, in
``_SUBCOMMANDS``; its parser takes only those flags.  Every run resolves
them as flags > config file > built-in defaults.  A subcommand computes
and returns its tables, ``{csv file name: (header, columns)}``, and writes
nothing; ``main`` then writes them as UTF-8 CSV files with LF line endings
and 12 significant digits, and leaves a flat key = value manifest next to
them, also on failure once the command line has parsed.  Three rules
follow:

* a run that exits non-zero writes no CSV, unless an I/O error strikes
  while writing: the files before it stay and are listed;
* the manifest lists exactly the files written, as ``output_<i>``;
* its parameter section is every resolved value that is not unset, and a
  subcommand adds only what it derives.

A command line the parser rejects (a flag the subcommand does not read, a
value of the wrong type) exits 2 with a usage message and leaves no
manifest.  Exit codes: 0 success, 2 parameter error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, allocation, fading, kernel, metrics
from .channel import ChannelParams, effective_noise
from .errors import InvalidParameterError, integer
from .states import GaussianState, ProbeBudget

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_IO = 3

PARAMETRIC_SCENARIOS = ((5.0, 0.1), (5.0, 2.0), (10.0, 0.1), (20.0, 0.1), (20.0, 2.0))
# rows that _write_csv formats in one call; a chunk's text is a few hundred kB
_CSV_CHUNK_ROWS = 4096
# 12 significant digits, for CSV cells and for printed and manifest values alike
_NUMBER = "%.12g"


def _fmt(x) -> str:
    return _NUMBER % float(x)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Equal-length ``columns`` as rows of ``_NUMBER`` values; the format is
    applied to a chunk in one call.  Columns ``(row_axis, col_axis, values)``
    with a 2-d ``values`` are the product table of the two axes, row-major:
    each axis value is formatted once, into one template per row that a single
    ``%`` fills with that row's values (``_NUMBER`` output never contains ``%``)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if np.ndim(columns[-1]) == 2:
            row_axis, col_axis, values = columns
            tail = [f",{_fmt(x)},{_NUMBER}\n" for x in col_axis]
            for x, row in zip(row_axis, values):
                head = _fmt(x)
                fh.write((head + head.join(tail)) % tuple(row.tolist()))
            return
        line = ",".join([_NUMBER] * len(columns)) + "\n"
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


def cmd_benchmark(p: dict, manifest: dict) -> dict:
    n_tot, n_th, lam, eta_det, v_el = p["n_tot"], p["n_th"], p["lam"], p["eta_det"], p["v_el"]
    etas = np.linspace(0.001, 1.0, 200) if p["eta"] is None else np.array([p["eta"]])
    manifest["eta_sweep"] = "single" if p["eta"] is not None else "0.001:1:200"

    # checked once at the largest eta, where the folded noise is largest and v_el > 0
    # at unit eta_eff is a SingularityError; then one kernel call scores every eta
    effective_noise(ChannelParams(eta=etas.max(), n_th=n_th, eta_det=eta_det, v_el=v_el))
    ProbeBudget(n_tot, lam)
    scores = kernel.report(*kernel.lidar_pair(lam, n_tot, etas * eta_det, n_th, v_el))
    columns = ("w2_sq", "xi_qbb", "xi_qbb_proxy", "xi_qcb", "snr_sq_opt")
    return {"benchmark.csv": (
        ["eta", "w2_sq", "xi_qbb_overlap", "xi_qbb_proxy", "xi_qcb", "snr_sq_opt"],
        [etas, *(scores[c] for c in columns)])}


def _grids(step: float):
    return allocation.default_eta_grid(step), allocation.default_lambda_grid(step)


def _lambda_opt(grid: allocation.AllocationGrid) -> tuple:
    """The optimal-fraction table of ``grid``, and its empirical transition
    eta as the manifest records it."""
    found = allocation.transition_eta(grid)
    table = (["eta", "lambda_opt"], [grid.eta_grid, grid.lambda_opt])
    return table, "none" if found is None else _fmt(found)


def cmd_heatmap(p: dict, manifest: dict) -> dict:
    n_tot, n_th = p["n_tot"], p["n_th"]
    eta_grid, lambda_grid = _grids(p["grid_step"])
    # checked as fading checks it, though a grid is one serial call for any value
    integer("workers", p["workers"], 1)
    grid = allocation.allocation_grid(n_tot, n_th, eta_grid, lambda_grid, eta_det=p["eta_det"])
    # n_tot = 0 has no threshold: that error leaves the transition out of the manifest
    eta_c = allocation.eta_critical(n_tot, n_th)
    opt, manifest["transition_eta_empirical"] = _lambda_opt(grid)
    manifest["eta_critical_analytic"] = _fmt(eta_c)
    manifest["eta_critical_reachable"] = str(eta_c <= 1.0).lower()
    return {"heatmap_scores.csv": (["eta", "lambda", "w2_sq"],
                                   [grid.eta_grid, grid.lambda_grid, grid.scores]),
            "heatmap_lambda_opt.csv": opt}


def cmd_parametric(p: dict, manifest: dict) -> dict:
    if (p["n_tot"] is None) != (p["n_th"] is None):
        raise InvalidParameterError("give both --n-tot and --n-th to select one scenario")
    scenarios = PARAMETRIC_SCENARIOS if p["n_tot"] is None else ((p["n_tot"], p["n_th"]),)
    manifest["scenarios"] = ";".join(f"{_fmt(n)}:{_fmt(t)}" for n, t in scenarios)

    eta_grid, lambda_grid = _grids(p["grid_step"])
    integer("workers", p["workers"], 1)
    tables = {}
    for n, t in scenarios:
        grid = allocation.allocation_grid(n, t, eta_grid, lambda_grid, eta_det=p["eta_det"])
        name = f"ntot{_fmt(n)}_nth{_fmt(t)}"
        tables[f"parametric_{name}.csv"], manifest[f"transition_eta_{name}"] = _lambda_opt(grid)
    return tables


def cmd_fading(p: dict, manifest: dict) -> dict:
    config = fading.FadingConfig(alpha=p["alpha"], beta=p["beta"], n_realizations=p["realizations"],
                                 seed=p["seed"], probe=ProbeBudget(p["n_tot"], p["lam"]),
                                 n_th=p["n_th"])
    ensemble = fading.run_ensemble(config, workers=p["workers"])
    manifest.update({k: _fmt(v) for k, v in dataclasses.asdict(ensemble.summary).items()})
    sel = fading.post_select(ensemble, metric="w2", quantile=0.9)
    manifest["postselect_w2_q90_mean_eta"] = _fmt(sel.mean_eta_selected)
    manifest["postselect_w2_q90_efficiency"] = _fmt(sel.efficiency)

    tables = {"fading_realizations.csv": (
        ["realization", "eta", "w2_sq", "xi_qbb"],
        [np.arange(ensemble.etas.size), ensemble.etas, ensemble.w2_sq, ensemble.xi_qbb])}
    for key, hist in ensemble.histograms.items():
        tables[f"fading_hist_{key}.csv"] = (["bin_left", "bin_right", "density"],
                                            [hist.edges[:-1], hist.edges[1:], hist.density])
    return tables


# channel of the metrics --budget shorthand; unused with an explicit state pair
_BUDGET_CHANNEL = {"eta": 1.0, "n_th": 0.0, "eta_det": 1.0, "v_el": 0.0}


def cmd_metrics(p: dict, manifest: dict) -> dict:
    if p["state0"] is not None or p["state1"] is not None:
        if p["state0"] is None or p["state1"] is None:
            raise InvalidParameterError("give both --state0 and --state1")
        unused = [_FLAGS[k][0] for k in _BUDGET_CHANNEL if p[k] is not None]
        if unused:
            raise InvalidParameterError(f"{', '.join(unused)} apply only with --budget")
        state_h0 = _parse_state(p["state0"], "state0")
        rep = metrics.metric_report(_parse_state(p["state1"], "state1"), state_h0)
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
        rep = allocation.w2_score(ProbeBudget(n_tot, lam, phase), ChannelParams(**channel))
        manifest.update(channel, budget_n_tot=n_tot, budget_lambda=lam, budget_phase=phase)
    else:
        raise InvalidParameterError("give either --state0/--state1 or --budget")

    for key, value in dataclasses.asdict(rep).items():
        print(f"{key} = {_fmt(value)}")
        manifest[key] = _fmt(value)
    return {}


def cmd_threshold(p: dict, manifest: dict) -> dict:
    n_tot, n_th = p["n_tot"], p["n_th"]
    # checked before any output; eta = 1 stands in where --eta is not read
    params = ChannelParams(eta=1.0 if p["eta"] is None else p["eta"], n_th=n_th,
                           eta_det=p["eta_det"], v_el=p["v_el"])
    imperfect = params.v_el > 0.0 or params.eta_det < 1.0
    if (p["eta"] is not None) != imperfect:
        raise InvalidParameterError("--eta is needed with --eta-det < 1 or --v-el > 0, and only then")

    eta_c = allocation.eta_critical(n_tot, n_th)
    eta_c_eff = allocation.eta_critical_effective(n_tot, params) if imperfect else None
    reachable = eta_c <= 1.0
    print(f"eta_critical = {_fmt(eta_c)}")
    print(f"reachable = {str(reachable).lower()}")
    manifest["eta_critical"] = _fmt(eta_c)
    manifest["reachable"] = str(reachable).lower()
    if not reachable:
        print("no quantum regime at any transmissivity")

    if imperfect:
        print(f"eta_critical_effective = {_fmt(eta_c_eff)}")
        print(f"eta_effective = {_fmt(params.eta_eff)}")
        manifest["eta_critical_effective"] = _fmt(eta_c_eff)
        manifest["eta_effective"] = _fmt(params.eta_eff)
    return {}


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
                "worker processes for fading (output is byte-identical for any N); "
                "heatmap/parametric accept it but always run serially"),
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first call and shared by later ones: building it
    costs more than a short run, and ``parse_args`` returns a fresh namespace
    each time, so no run sees another's values."""
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
    args = _build_parser().parse_args(argv)
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
        manifest.update({k: v for k, v in params.items() if v is not None})
        tables = _COMMANDS[command](params, manifest)
        for name, (header, columns) in tables.items():
            _write_csv(out_dir / name, header, columns)
            outputs.append(out_dir / name)
        manifest["status"] = "ok"
    except InvalidParameterError as exc:
        manifest["error"] = str(exc)
        print(f"parameter error: {exc}", file=sys.stderr)
        code = EXIT_PARAMETER
    except OSError as exc:
        manifest["error"] = str(exc)
        print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
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
