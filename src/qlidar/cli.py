"""Command-line front end.

Six subcommands: benchmark (metric sweep over transmissivity), heatmap
(score map over transmissivity and squeezing fraction), parametric
(optimal-fraction curves for several power/noise scenarios), fading
(Monte-Carlo fading ensemble), metrics (single state-pair report) and
threshold (quantum-advantage threshold evaluation).

Each subcommand declares its function, parameters and their defaults
once, in ``_SUBCOMMANDS``; its parser takes only those flags, and the
driver it computes with is loaded only when it runs, so that start-up
pays for no other subcommand's modules.  Every run resolves them as
flags > config file > built-in defaults.  A subcommand
computes and returns its tables, ``{csv file name: (header, columns)}``,
and writes nothing; ``main`` then writes them as UTF-8 CSV files with LF
line endings and 12 significant digits, and leaves a flat key = value
manifest next to them, also on failure once the command line has parsed.
Three rules follow:

* a run that exits non-zero writes no CSV, unless an I/O error strikes
  while writing: the files before it stay and are listed;
* the manifest lists exactly the files written, as ``output_<i>``;
* its parameter section is every resolved value that is not unset, and a
  subcommand adds only what it derives, so ``--config`` of it replays the run.

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

from . import __version__, kernel
from .channel import ChannelParams, effective_noise
from .errors import InvalidParameterError, ascending, integer
from .states import FadingConfig, GaussianState, ProbeBudget

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_IO = 3

PARAMETRIC_SCENARIOS = ((5.0, 0.1), (5.0, 2.0), (10.0, 0.1), (20.0, 0.1), (20.0, 2.0))
_ETA_SWEEP = (0.001, 1.0, 200)  # np.linspace arguments of the benchmark sweep
# rows that _write_csv formats in one call; a chunk's text is a few hundred kB
_CSV_CHUNK_ROWS = 4096
# 12 significant digits, for CSV cells and for printed and manifest values alike
_NUMBER = "%.12g"


def _fmt(x) -> str:
    return _NUMBER % float(x)


def _show(manifest: dict, **values: str) -> None:
    """Print each ``key = value`` line and record it in the manifest."""
    for key, value in values.items():
        print(f"{key} = {value}")
        manifest[key] = value


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Equal-length ``columns`` as rows of ``_NUMBER`` values; the format is
    applied to a chunk in one call.  Columns ``(row_axis, col_axis, values)``
    with a 2-d ``values`` are the product table of the two axes, row-major:
    each axis value is formatted once, into one template per row that a single
    ``%`` fills with that row's values (``_NUMBER`` output never contains ``%``).
    An integer column whose values all lie in (-1e12, 1e12) is written with
    ``%d``, which prints exactly the ``_NUMBER`` bytes of such values, faster."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if np.ndim(columns[-1]) == 2:
            row_axis, col_axis, values = columns
            tail = [f",{_fmt(x)},{_NUMBER}\n" for x in col_axis]
            for x, row in zip(row_axis, values):
                head = _fmt(x)
                fh.write((head + head.join(tail)) % tuple(row.tolist()))
            return
        exact = [j for j, c in enumerate(columns) if c.dtype.kind in "iu"
                 and (c.size == 0 or (c.min() > -10**12 and c.max() < 10**12))]
        line = ",".join("%d" if j in exact else _NUMBER for j in range(len(columns))) + "\n"
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            block = np.column_stack([c[start:start + _CSV_CHUNK_ROWS] for c in columns])
            cells = block.ravel().tolist()
            for j in exact:
                cells[j::len(columns)] = columns[j][start:start + _CSV_CHUNK_ROWS].tolist()
            fh.write(line * len(block) % tuple(cells))


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
    """Each key of ``defaults`` from its flag, else the config file, else the default.
    A config file with a ``command`` key is a manifest, which replays only the run of
    that subcommand: its keys outside ``_FLAGS`` are the writer's own, skipped.  One
    with none of the subcommand's keys is of a run whose parameters never resolved,
    which it cannot replay."""
    config = _read_config(args.config) if args.config else {}
    if "command" in config:
        if config["command"] != args.command:
            raise InvalidParameterError(
                f"config file is the manifest of a {config['command']} run, not {args.command}")
        config = {k: v for k, v in config.items() if k in _FLAGS}
        if not config.keys() & defaults.keys():
            raise InvalidParameterError("config file is the manifest of a run with no parameters")
    elif unknown := sorted(set(config) - set(_FLAGS)):
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


def _floats(text: str, name: str, fields: tuple[str, ...], optional: int = 0) -> list[float]:
    """The comma-separated numbers of ``text``, one per field in order; the last
    ``optional`` fields may be left out.  An error names the list and the field."""
    parts = [part.strip() for part in text.split(",")]
    if not len(fields) - optional <= len(parts) <= len(fields):
        count = " or ".join(str(n) for n in range(len(fields) - optional, len(fields) + 1))
        raise InvalidParameterError(
            f"{name} must have {count} comma-separated values {fields}, got {len(parts)}")
    values = []
    for field, part in zip(fields, parts):
        try:
            values.append(float(part))
        except ValueError:
            raise InvalidParameterError(f"{name}: invalid value for {field}: {part!r}") from None
    return values


def cmd_benchmark(p: dict, manifest: dict) -> dict:
    n_tot, n_th, lam, eta_det, v_el = p["n_tot"], p["n_th"], p["lam"], p["eta_det"], p["v_el"]
    manifest["eta_sweep"] = ":".join(map(_fmt, _ETA_SWEEP)) if p["eta"] is None else "single"
    etas = ascending(
        "eta", np.linspace(*_ETA_SWEEP) if p["eta"] is None else [p["eta"]],
        lambda eta: effective_noise(ChannelParams(eta, n_th, eta_det, v_el)))
    ProbeBudget(n_tot, lam)
    scores = kernel.report(*kernel.lidar_pair(lam, n_tot, etas * eta_det, n_th, v_el))
    columns = ("w2_sq", "xi_qbb", "xi_qbb_proxy", "xi_qcb", "snr_sq_opt")
    return {"benchmark.csv": (
        ["eta", "w2_sq", "xi_qbb_overlap", "xi_qbb_proxy", "xi_qcb", "snr_sq_opt"],
        [etas, *(scores[c] for c in columns)])}


def _grid(p: dict, n_tot: float, n_th: float) -> tuple:
    """allocation_grid(n_tot, n_th) on the axes of ``grid_step`` at ``eta_det``, its
    optimal-fraction table, and its empirical transition eta as the manifest records
    it; ``workers`` is checked as fading checks it, though a grid is always scored serially."""
    from . import allocation

    eta_grid = allocation.default_eta_grid(p["grid_step"])
    lambda_grid = allocation.default_lambda_grid(p["grid_step"])
    integer("workers", p["workers"], 1)
    grid = allocation.allocation_grid(n_tot, n_th, eta_grid, lambda_grid, p["eta_det"])
    found = allocation.transition_eta(grid)
    return (grid, (["eta", "lambda_opt"], [grid.eta_grid, grid.lambda_opt]),
            "none" if found is None else _fmt(found))


def cmd_heatmap(p: dict, manifest: dict) -> dict:
    from . import allocation

    n_tot, n_th = p["n_tot"], p["n_th"]
    grid, opt, transition = _grid(p, n_tot, n_th)
    # n_tot = 0 has no threshold: that error leaves the transition out of the manifest
    eta_c = allocation.eta_critical(n_tot, n_th)
    manifest["transition_eta_empirical"] = transition
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

    tables = {}
    for n, t in scenarios:
        name = f"ntot{_fmt(n)}_nth{_fmt(t)}"
        # [1:] drops the score map, so only one is alive at a time
        tables[f"parametric_{name}.csv"], manifest[f"transition_eta_{name}"] = _grid(p, n, t)[1:]
    return tables


def cmd_fading(p: dict, manifest: dict) -> dict:
    from . import fading

    config = FadingConfig(alpha=p["alpha"], beta=p["beta"], n_realizations=p["realizations"],
                          seed=p["seed"], probe=ProbeBudget(p["n_tot"], p["lam"]), n_th=p["n_th"])
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
_STATE_FIELDS = ("mu_q", "mu_p", "sigma_qq", "sigma_qp", "sigma_pp")
_BUDGET_FIELDS = ("n_tot", "lambda", "phase")


def cmd_metrics(p: dict, manifest: dict) -> dict:
    from . import metrics

    if (p["state0"] is None and p["state1"] is None) == (p["budget"] is None):
        raise InvalidParameterError("give either --state0/--state1 or --budget")
    if p["budget"] is None:
        if p["state0"] is None or p["state1"] is None:
            raise InvalidParameterError("give both --state0 and --state1")
        unused = [_FLAGS[k][0] for k in _BUDGET_CHANNEL if p[k] is not None]
        if unused:
            raise InvalidParameterError(f"{', '.join(unused)} apply only with --budget")
        states = {}
        for key in ("state0", "state1"):
            moments = _floats(p[key], key, _STATE_FIELDS)
            try:
                states[key] = GaussianState.from_moments(moments)
            except InvalidParameterError as exc:
                raise InvalidParameterError(f"{key}: {exc}") from None
        rep = metrics.metric_report(states["state1"], states["state0"])
    else:
        budget = ProbeBudget(*_floats(p["budget"], "budget", _BUDGET_FIELDS, optional=1))
        channel = {k: default if p[k] is None else p[k] for k, default in _BUDGET_CHANNEL.items()}
        rep = metrics.w2_score(budget, ChannelParams(**channel))
        manifest.update(channel, budget_n_tot=budget.n_tot, budget_lambda=budget.lam,
                        budget_phase=budget.displacement_phase)

    _show(manifest, **{key: _fmt(value) for key, value in dataclasses.asdict(rep).items()})
    return {}


def cmd_threshold(p: dict, manifest: dict) -> dict:
    from . import allocation

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
    _show(manifest, eta_critical=_fmt(eta_c), reachable=str(reachable).lower())
    if not reachable:
        print("no quantum regime at any transmissivity")
    if imperfect:
        _show(manifest, eta_critical_effective=_fmt(eta_c_eff), eta_effective=_fmt(params.eta_eff))
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
                "fading: min(N, usable CPUs, realization blocks) processes over fixed blocks, "
                "one in-process; output is byte-identical for any N; heatmap/parametric run "
                "serially"),
    "alpha": ("--alpha", float, "Beta shape alpha"),
    "beta": ("--beta", float, "Beta shape beta"),
    "state0": ("--state0", str, "H0 state as mu_q,mu_p,sigma_qq,sigma_qp,sigma_pp"),
    "state1": ("--state1", str, "H1 state as mu_q,mu_p,sigma_qq,sigma_qp,sigma_pp"),
    "budget": ("--budget", str, "probe shorthand n_tot,lambda[,phase]; pairs with --eta/--n-th"),
}

_FADING = FadingConfig()  # the fading subcommand reads its defaults here
# subcommand -> (command, help, {key: default}); None means "not given"
_SUBCOMMANDS = {
    "benchmark": (cmd_benchmark, "metric sweep over transmissivity", {
        "n_tot": 5.0, "n_th": 2.0, "lam": 0.5, "eta_det": 1.0, "v_el": 0.0, "eta": None}),
    "heatmap": (cmd_heatmap, "Wasserstein score map over (eta, lambda)", {
        "n_tot": 10.0, "n_th": 0.1, "eta_det": 1.0, "grid_step": 0.01, "workers": 1}),
    "parametric": (cmd_parametric, "optimal squeezing fraction per power/noise scenario", {
        "eta_det": 1.0, "grid_step": 0.01, "workers": 1, "n_tot": None, "n_th": None}),
    "fading": (cmd_fading, "Monte-Carlo fading ensemble", {
        "alpha": _FADING.alpha, "beta": _FADING.beta, "realizations": _FADING.n_realizations,
        "seed": _FADING.seed, "n_tot": _FADING.probe.n_tot, "lam": _FADING.probe.lam,
        "n_th": _FADING.n_th, "workers": 1}),
    "metrics": (cmd_metrics, "all metrics for one state pair", {
        "state0": None, "state1": None, "budget": None, **dict.fromkeys(_BUDGET_CHANNEL)}),
    "threshold": (cmd_threshold, "quantum-advantage threshold", {
        "n_tot": 10.0, "n_th": 0.1, "eta_det": 1.0, "v_el": 0.0, "eta": None}),
}

# main dispatches through this flat map, which perfbench's tracer rebinds and tests patch
_COMMANDS = {name: spec[0] for name, spec in _SUBCOMMANDS.items()}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first call and shared by later ones: building it
    costs more than a short run, and ``parse_args`` returns a fresh namespace
    each time, so no run sees another's values."""
    parser = argparse.ArgumentParser(prog="qlidar", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qlidar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in defaults:
            flag, cast, flag_help = _FLAGS[key]
            p.add_argument(flag, dest=key, type=cast, help=flag_help)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None, help="flat key = value config file")
    return parser


def main(argv=None) -> int:
    # argparse reads a separate -1,0,1,0,1 as an option, so a comma list becomes --flag=value
    argv = list(sys.argv[1:] if argv is None else argv)
    lists = {flag for flag, cast, _ in _FLAGS.values() if cast is str}
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in lists and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
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
        params = _resolve(args, _SUBCOMMANDS[command][2])
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
