"""Command-line front end: simulate, sweep, fit, and analysis utilities.

The CLI parses: it casts each config key or argument to its type, and the
model types (`SimConfig`, `LatticeSpec`, `Neighborhood.for_k`) check the
values, before any run starts; what they reject is a configuration error.

Every command that writes a primary output file also writes a sibling
`<output>.manifest.json` recording the tool version, seed, and the full
parameter set needed to reproduce the file byte for byte (the manifest
itself carries a timestamp and is excluded from byte-identity guarantees).

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import diffusim
from diffusim.bass import BassParams, bass_curve, takeoff_is_degenerate, takeoff_time
from diffusim.calibrate import DegenerateTrajectory, fit_bass, read_trajectory_csv
from diffusim.engine import DecisionParams, simulate, write_trajectory_csv
from diffusim.network import (
    LatticeSpec,
    Neighborhood,
    build_lattice,
    network_stats,
    rewire,
)
from diffusim.seeding import Pattern
from diffusim.sweep import (
    DELTA_U_LEVELS,
    GAMMA_LEVELS,
    K_LEVELS,
    REWIRE_LEVELS,
    SIGMA_LEVELS,
    SimConfig,
    TooFewPoints,
    default_grid,
    envelope,
    locate,
    manifest_path,
    read_empirical_csv,
    read_sweep_csv,
    roi_check,
    run_sweep,
    write_envelope_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Invalid configuration; message names the offending key or line."""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(primary_output: Path, command: str, seed: int | None,
                    parameters: dict, outputs: list[str]) -> None:
    manifest = {
        "tool": "diffusim",
        "version": diffusim.__version__,
        "command": command,
        "created_utc": _utc_now(),
        "master_seed": seed,
        "parameters": parameters,
        "outputs": outputs,
    }
    manifest_path(primary_output).write_text(json.dumps(manifest, indent=2) + "\n")


def _load_json_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _cast(key: str, value, caster):
    try:
        return caster(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc


def _take(config: dict, key: str, default, caster):
    return _cast(key, config.pop(key, default), caster)


def _levels(config: dict, key: str, default, caster) -> list:
    raw = config.pop(key, list(default))
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"config key '{key}' must be a non-empty list")
    return [_cast(key, item, caster) for item in raw]


def _reject_unknown(config: dict, context: str) -> None:
    if config:
        names = ", ".join(sorted(config))
        raise ConfigError(f"unknown {context} config keys: {names}")


def _neighborhood_arg(k: int) -> Neighborhood:
    try:
        return Neighborhood.for_k(k)
    except ValueError as exc:
        raise ConfigError(f"argument --k: {exc}") from exc


def _lattice_args(args, neighborhood: Neighborhood) -> LatticeSpec:
    try:
        return LatticeSpec(args.rows, args.cols, neighborhood)
    except ValueError as exc:
        raise ConfigError(f"arguments --rows/--cols: {exc}") from exc


def _parse_sigma(value, source: str) -> Pattern:
    """The pattern named by `value`; `source` names where it came from in
    the error, e.g. "config key 'sigma'" or "argument --sigma"."""
    try:
        return Pattern(str(value).lower())
    except ValueError as exc:
        names = ", ".join(p.value for p in Pattern)
        raise ConfigError(f"{source} must be one of {names}, got {value!r}") from exc


def cmd_simulate(args) -> int:
    config = _load_json_config(args.config)
    rows = _take(config, "rows", 200, int)
    cols = _take(config, "cols", 200, int)
    neighborhood = _take(config, "k", 8, lambda v: Neighborhood.for_k(int(v)))
    delta_u = _take(config, "delta_u", 0.6, float)
    alpha = _take(config, "alpha", 0.5, float)
    p_r = _take(config, "p_r", 0.0, float)
    gamma = _take(config, "gamma", 1000, int)
    fraction = _take(config, "innovator_fraction", 0.025, float)
    max_ticks = _take(config, "max_ticks", 500, int)
    sigma = _parse_sigma(config.pop("sigma", "uniform"), "config key 'sigma'")
    _reject_unknown(config, "simulate")
    try:
        run = SimConfig(
            lattice=LatticeSpec(rows, cols, neighborhood), delta_u=delta_u,
            sigma=sigma, p_r=p_r, gamma=gamma, alpha=alpha,
            innovator_fraction=fraction, max_ticks=max_ticks, seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    net, plan, _ = run.realize()
    traj = simulate(
        net, plan, DecisionParams(delta_u=delta_u, alpha=alpha),
        max_ticks=max_ticks,
    )

    out = Path(args.out or "trajectory.csv")
    write_trajectory_csv(traj, out)
    _write_manifest(
        out, "simulate", args.seed,
        {
            "config_file": args.config, "rows": rows, "cols": cols, "k": run.k,
            "delta_u": delta_u, "alpha": alpha, "sigma": sigma.value,
            "p_r": p_r, "gamma": gamma, "innovator_fraction": fraction,
            "max_ticks": max_ticks,
        },
        [str(out)],
    )
    saturated = traj.saturated_at if traj.saturated_at is not None else "never"
    print(f"wrote {out}: {len(traj.proportions)} ticks, "
          f"final proportion {traj.final_proportion}, saturated at {saturated}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_json_config(args.config)
    rows = _take(config, "rows", 200, int)
    cols = _take(config, "cols", 200, int)
    alpha = _take(config, "alpha", 0.5, float)
    max_ticks = _take(config, "max_ticks", 500, int)
    k_levels = _levels(config, "k_levels", K_LEVELS, int)
    du_levels = _levels(config, "delta_u_levels", DELTA_U_LEVELS, float)
    pr_levels = _levels(config, "p_r_levels", REWIRE_LEVELS, float)
    gamma_levels = _levels(config, "gamma_levels", GAMMA_LEVELS, int)
    sigma_levels = _levels(
        config, "sigma_levels", [p.value for p in SIGMA_LEVELS],
        lambda s: _parse_sigma(s, "config key 'sigma_levels'"),
    )
    _reject_unknown(config, "sweep")
    try:
        grid = default_grid(
            rows=rows, cols=cols, k_levels=k_levels, delta_u_levels=du_levels,
            sigma_levels=sigma_levels, p_r_levels=pr_levels,
            gamma_levels=gamma_levels, alpha=alpha, max_ticks=max_ticks,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    records = run_sweep(
        grid, replications=args.replications, master_seed=args.seed,
        jobs=args.jobs,
    )

    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    write_sweep_csv(records, sweep_path)
    outputs = [str(sweep_path)]
    skipped = []
    for k in k_levels:
        for du in du_levels:
            for sigma in sigma_levels:
                name = f"envelope_k{k}_du{du!r}_{sigma.value}.csv"
                try:
                    env = envelope(records, (k, du, sigma))
                except TooFewPoints:
                    skipped.append(name)
                    continue
                write_envelope_csv(env, out_dir / name)
                outputs.append(str(out_dir / name))
    _write_manifest(
        sweep_path, "sweep", args.seed,
        {
            "config_file": args.config, "rows": rows, "cols": cols,
            "alpha": alpha, "max_ticks": max_ticks,
            "k_levels": k_levels, "delta_u_levels": du_levels,
            "sigma_levels": [s.value for s in sigma_levels],
            "p_r_levels": pr_levels, "gamma_levels": gamma_levels,
            "replications": args.replications, "jobs": args.jobs,
            "envelopes_skipped_too_few_points": skipped,
        },
        outputs,
    )
    print(f"wrote {sweep_path}: {len(records)} records, "
          f"{len(outputs) - 1} envelope files")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        traj = read_trajectory_csv(args.trajectory)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {args.trajectory}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"malformed trajectory {args.trajectory}: {exc}")
    try:
        result = fit_bass(traj)
    except DegenerateTrajectory as exc:
        print(f"degenerate trajectory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    payload = result.to_json()
    if args.out:
        Path(args.out).write_text(payload + "\n")
        _write_manifest(Path(args.out), "fit", args.seed,
                        {"trajectory": args.trajectory}, [args.out])
        print(f"wrote {args.out}")
    else:
        print(payload)
    return EXIT_OK


def cmd_bass(args) -> int:
    params = _bass_params(args.p, args.q)
    if args.t is not None:
        if args.t < 0:
            raise ConfigError("argument --t must be >= 0")
        print(repr(float(bass_curve(params, args.t))))
        return EXIT_OK
    if args.t_max < 0:
        raise ConfigError("argument --t-max must be >= 0")
    ticks = np.arange(int(args.t_max) + 1)
    values = bass_curve(params, ticks.astype(float))
    out = Path(args.out or "bass.csv")
    with open(out, "w", newline="") as fh:
        fh.write("tick,proportion\n")
        for tick, value in zip(ticks.tolist(), values.tolist()):
            fh.write(f"{tick},{value!r}\n")
    _write_manifest(out, "bass", args.seed,
                    {"p": args.p, "q": args.q, "t_max": args.t_max}, [str(out)])
    print(f"wrote {out}")
    return EXIT_OK


def _bass_params(p: float, q: float) -> BassParams:
    try:
        return BassParams(p, q)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_takeoff(args) -> int:
    params = _bass_params(args.p, args.q)
    if args.q <= 0:
        raise ConfigError("takeoff requires q > 0")
    value = takeoff_time(params)
    print(repr(float(value)))
    if takeoff_is_degenerate(params):
        print("degenerate: takeoff precedes launch (q <= p(2+sqrt(3)))",
              file=sys.stderr)
    return EXIT_OK


def cmd_roi(args) -> int:
    population = _lattice_args(args, Neighborhood.MOORE).node_count
    base = _bass_params(args.base_p, args.base_q)
    boost = _bass_params(args.boost_p, args.boost_q)
    try:
        report = roi_check(
            base, boost, population, t_star=args.t_star,
            profit_per_adopter=args.profit_per_adopter,
            investment=args.investment, roi_min=args.roi_min,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return EXIT_OK


def cmd_envelope(args) -> int:
    sigma = _parse_sigma(args.sigma, "argument --sigma")
    _neighborhood_arg(args.k)
    try:
        records = read_sweep_csv(args.sweep_csv)
    except OSError as exc:
        raise ConfigError(f"cannot read sweep CSV {args.sweep_csv}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"malformed sweep CSV {args.sweep_csv}: {exc}")
    try:
        env = envelope(records, (args.k, args.delta_u, sigma))
    except TooFewPoints as exc:
        print(f"cannot build envelope: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    out = Path(args.out or "envelope.csv")
    write_envelope_csv(env, out)
    outputs = [str(out)]
    if args.points:
        try:
            points = read_empirical_csv(args.points)
        except OSError as exc:
            raise ConfigError(f"cannot read points CSV {args.points}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"malformed points CSV {args.points}: {exc}")
        print("label,p,q,location")
        for label, p, q in points:
            where = locate((p, q), env)
            print(f"{label},{p!r},{q!r},{where.value}")
    _write_manifest(
        out, "envelope", args.seed,
        {"sweep_csv": args.sweep_csv, "k": args.k, "delta_u": args.delta_u,
         "sigma": sigma.value, "points": args.points},
        outputs,
    )
    return EXIT_OK


def cmd_netstats(args) -> int:
    neighborhood = _neighborhood_arg(args.k)
    if not 0 <= args.p_r <= 1:
        raise ConfigError("argument --p-r must be in [0, 1]")
    lattice = _lattice_args(args, neighborhood)
    rng = np.random.default_rng(args.seed)
    net = build_lattice(lattice)
    if args.p_r > 0:
        net = rewire(net, args.p_r, rng)
    stats = network_stats(net, sample_size=args.sample, rng=rng)
    payload = {
        "nodes": net.node_count,
        "edges": net.edge_count,
        "mean_degree": stats.mean_degree,
        "mean_path_length": stats.mean_path_length,
        "clustering_coefficient": stats.clustering_coefficient,
        "unreached_pairs": stats.unreached_pairs,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        _write_manifest(Path(args.out), "netstats", args.seed,
                        {"rows": args.rows, "cols": args.cols, "k": args.k,
                         "p_r": args.p_r, "sample": args.sample},
                        [args.out])
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffusim",
        description="Innovation-diffusion lattice simulations and "
                    "adoption-curve calibration.",
    )
    parser.add_argument("--version", action="version",
                        version=f"diffusim {diffusim.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed (unsigned 64-bit)")
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("simulate", help="run one configured simulation")
    p.add_argument("config", help="JSON config file")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter grid and fit every run")
    p.add_argument("config", help="JSON grid config file ({} for defaults)")
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit adoption-curve parameters to a "
                                   "trajectory CSV")
    p.add_argument("trajectory", help="CSV with tick,proportion columns")
    add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bass", help="evaluate the adoption curve")
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
    p.add_argument("--t", type=float, default=None,
                   help="single time point (prints the value)")
    p.add_argument("--t-max", type=float, default=50,
                   help="inclusive end of the integer time grid CSV")
    add_common(p)
    p.set_defaults(func=cmd_bass)

    p = sub.add_parser("takeoff", help="introduction-to-growth transition "
                                       "time for (p, q)")
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
    add_common(p)
    p.set_defaults(func=cmd_takeoff)

    p = sub.add_parser("roi", help="compare boosted vs baseline seeding gain")
    p.add_argument("--base-p", type=float, required=True)
    p.add_argument("--base-q", type=float, required=True)
    p.add_argument("--boost-p", type=float, required=True)
    p.add_argument("--boost-q", type=float, required=True)
    p.add_argument("--t-star", type=float, required=True)
    p.add_argument("--profit-per-adopter", type=float, required=True)
    p.add_argument("--investment", type=float, required=True)
    p.add_argument("--roi-min", type=float, default=0.0)
    p.add_argument("--rows", type=int, default=200)
    p.add_argument("--cols", type=int, default=200)
    add_common(p)
    p.set_defaults(func=cmd_roi)

    p = sub.add_parser("envelope", help="hull of fitted (p, q) points from "
                                        "a sweep CSV")
    p.add_argument("sweep_csv")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta-u", type=float, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--points", default=None,
                   help="optional label,p,q CSV to classify against the hull")
    add_common(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("netstats", help="summary statistics of a (rewired) "
                                        "lattice")
    p.add_argument("--rows", type=int, default=200)
    p.add_argument("--cols", type=int, default=200)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--p-r", type=float, default=0.0)
    p.add_argument("--sample", type=int, default=256,
                   help="path-length source sample size")
    add_common(p)
    p.set_defaults(func=cmd_netstats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must fit an unsigned 64-bit integer",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
