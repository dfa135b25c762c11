"""Command-line front end: simulate, sweep, fit, and analysis utilities.

The CLI parses: it casts each config key or argument to its type, and the
model types (`SimConfig`, `LatticeSpec`, `Neighborhood.for_k`, `BassParams`)
check the values before any run starts. A model type's `ValueError` is a
usage error that names the argument or config file; an error raised by a
run is a runtime failure.

Each subcommand takes only the options it uses: `--seed` belongs to the
commands that draw at random (`simulate`, `sweep`, `netstats`), `--out` to
the commands that write a file.

Every command that writes a primary output file also writes a sibling
`<output>.manifest.json` recording the tool and numpy versions, seed (null
for a command without `--seed`), and the full parameter set needed to
reproduce the file byte for byte (the manifest itself carries a timestamp
and is excluded from byte-identity guarantees).

Exit codes: 0 success (also when stdout's reader goes away, as under
`| head`), 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import diffusim
from diffusim.bass import BassParams, bass_curve, takeoff_time
from diffusim.calibrate import DegenerateTrajectory, fit_bass
from diffusim.engine import _write_csv, read_trajectory_csv, write_trajectory_csv
from diffusim.network import (
    LatticeSpec,
    Neighborhood,
    _check_integer,
    _check_real,
    build_lattice,
    network_stats,
    rewire,
)
from diffusim.seeding import Pattern
from diffusim.sweep import (
    SimConfig,
    TooFewPoints,
    default_grid,
    envelope,
    locate,
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
    """Invalid configuration; message names the offending key or argument."""


class _StdoutClosed(Exception):
    """stdout's reader went away."""


def _out(text: str) -> None:
    """Print a line of output, flushed at once, so that a closed stdout shows
    here as _StdoutClosed, not as a BrokenPipeError at interpreter exit."""
    try:
        print(text, flush=True)
    except BrokenPipeError as exc:
        raise _StdoutClosed from exc


def _checked(source: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError turned into a usage error that
    `source` names. Wraps argument checks and model construction, never a
    run: a run's ValueError (DegenerateTrajectory among them) is a fault."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _read(what: str, reader, path):
    """reader(path); a file that cannot be read or parsed is a usage error."""
    try:
        return reader(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from exc


def manifest_path(primary_output) -> Path:
    """The sibling manifest written next to a command's primary output."""
    return Path(str(primary_output) + ".manifest.json")


def _write_manifest(args, primary_output, parameters: dict,
                    outputs: list[str] | None = None) -> None:
    """Write the manifest of `primary_output`, which is its only output
    unless `outputs` lists them all."""
    manifest = {
        "tool": "diffusim",
        "version": diffusim.__version__,
        # a run's random stream depends on numpy's Generator methods
        "numpy_version": np.__version__,
        "command": args.command,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "master_seed": getattr(args, "seed", None),
        "parameters": parameters,
        "outputs": outputs or [str(primary_output)],
    }
    # seeding patterns are written by name
    text = json.dumps(manifest, indent=2, default=lambda pattern: pattern.value)
    manifest_path(primary_output).write_text(text + "\n")


def _emit_json(args, text: str, parameters: dict) -> int:
    """Print a command's JSON result, or write it to `--out` with its
    manifest when that option is given."""
    if args.out:
        Path(args.out).write_text(text + "\n")
        _write_manifest(args, args.out, parameters)
        _out(f"wrote {args.out}")
    else:
        _out(text)
    return EXIT_OK


# Config casters: cast(value, source) returns the typed value or raises a
# ConfigError naming `source`.

def _integer(value, source: str) -> int:
    if type(value) is not int:  # a JSON integer: not a float, not a bool
        raise ConfigError(f"{source} must be an integer, got {json.dumps(value)}")
    return value


def _number(value, source: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{source} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{source} must be a number that a float can hold, "
                          f"got {value}") from None


def _sigma(value, source: str) -> Pattern:
    try:
        return Pattern(str(value).lower())
    except ValueError as exc:
        names = ", ".join(p.value for p in Pattern)
        raise ConfigError(f"{source} must be one of {names}, got {value!r}") from exc


# the caster of each type a config key's parameter declares; a Sequence[T]
# is a non-empty JSON list of T
_CASTERS = {"int": _integer, "float": _number, "Pattern": _sigma}


def _cast(annotation: str, value, source: str):
    if annotation.startswith("Sequence["):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{source} must be a non-empty list")
        item_type = annotation.removeprefix("Sequence[")[:-1]
        return [_cast(item_type, item, source) for item in value]
    return _CASTERS[annotation](value, source)


def _read_config(path: str, make) -> dict:
    """make's keyword arguments from the JSON config file: each key is a
    parameter of `make`, cast by the type it declares, and a parameter the
    file omits takes its default. The values are the manifest's parameters."""
    config = _read("config file", lambda p: json.loads(Path(p).read_text()), path)
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    params = inspect.signature(make).parameters
    unknown = sorted(set(config) - set(params))
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    return {
        name: _cast(param.annotation, config[name], f"config key '{name}'")
        if name in config else param.default
        for name, param in params.items()
    }


def _sim_config(
    rows: int = 200,
    cols: int = 200,
    k: int = 8,
    delta_u: float = 0.6,
    alpha: float = SimConfig.alpha,
    sigma: Pattern = Pattern.UNIFORM,
    p_r: float = 0.0,
    gamma: int = 1000,
    innovator_fraction: float = SimConfig.innovator_fraction,
    max_ticks: int = SimConfig.max_ticks,
) -> SimConfig:
    """The run of `diffusim simulate`, at seed 0; the parameters, with their
    defaults, are its config keys."""
    return SimConfig(LatticeSpec(rows, cols, Neighborhood.for_k(k)), delta_u, sigma,
                     p_r, gamma, alpha, innovator_fraction, max_ticks)


def cmd_simulate(args) -> int:
    values = _read_config(args.config, _sim_config)
    config = _checked(f"config {args.config}", _sim_config, **values)
    run = dataclasses.replace(config, seed=args.seed)  # main checked the seed
    traj = run.simulate()
    write_trajectory_csv(traj, args.out)
    _write_manifest(args, args.out, {"config_file": args.config, **values})
    saturated = traj.saturated_at if traj.saturated_at is not None else "never"
    _out(f"wrote {args.out}: {len(traj.proportions)} ticks, "
         f"final proportion {traj.final_proportion}, saturated at {saturated}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _read_config(args.config, default_grid)
    grid = _checked(f"config {args.config}", default_grid, **values)
    # made before the runs, so that an --out that cannot be a directory
    # fails before any work, not after all of it
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = run_sweep(
        grid, replications=args.replications, master_seed=args.seed,
        jobs=args.jobs,
    )
    sweep_path = out_dir / "sweep.csv"
    write_sweep_csv(records, sweep_path)
    outputs = [str(sweep_path)]
    skipped = []
    # one envelope per (k, delta_u, sigma) family, in grid order
    for family in dict.fromkeys((c.k, c.delta_u, c.sigma) for c in grid):
        k, du, sigma = family
        name = f"envelope_k{k}_du{du!r}_{sigma.value}.csv"
        try:
            hull = envelope(records, family)
        except TooFewPoints:
            skipped.append(name)
            continue
        write_envelope_csv(hull, out_dir / name)
        outputs.append(str(out_dir / name))
    _write_manifest(
        args, sweep_path,
        {
            "config_file": args.config, **values,
            "replications": args.replications, "jobs": args.jobs,
            "envelopes_skipped_too_few_points": skipped,
        },
        outputs,
    )
    _out(f"wrote {sweep_path}: {len(records)} records, "
         f"{len(outputs) - 1} envelope files")
    return EXIT_OK


def cmd_fit(args) -> int:
    traj = _read("trajectory", read_trajectory_csv, args.trajectory)
    try:
        result = fit_bass(traj)
    except DegenerateTrajectory as exc:
        print(f"degenerate trajectory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return _emit_json(args, result.to_json(), {"trajectory": args.trajectory})


def cmd_bass(args) -> int:
    params = _checked("arguments p, q", BassParams, args.p, args.q)
    if args.t is not None:
        _out(repr(_checked("argument --t", bass_curve, params, args.t)))
        return EXIT_OK
    _checked("argument --t-max", _check_integer, "t_max", args.t_max, 0)
    values = bass_curve(params, np.arange(args.t_max + 1, dtype=float)).tolist()
    _write_csv(args.out, ["tick", "proportion"],
               ([tick, repr(value)] for tick, value in enumerate(values)))
    _write_manifest(args, args.out, {"p": args.p, "q": args.q, "t_max": args.t_max})
    _out(f"wrote {args.out}")
    return EXIT_OK


def cmd_takeoff(args) -> int:
    params = _checked("arguments p, q", BassParams, args.p, args.q)
    t_to = _checked("arguments p, q", takeoff_time, params)
    _out(repr(t_to))
    if t_to <= 0:
        print("degenerate: takeoff precedes launch (q <= p(2+sqrt(3)))",
              file=sys.stderr)
    return EXIT_OK


def cmd_roi(args) -> int:
    lattice = _checked("arguments --rows/--cols", LatticeSpec,
                       args.rows, args.cols, Neighborhood.MOORE)
    base = _checked("arguments --base-p/--base-q", BassParams,
                    args.base_p, args.base_q)
    boost = _checked("arguments --boost-p/--boost-q", BassParams,
                     args.boost_p, args.boost_q)
    # roi_check needs both takeoff times, and a q of 0 has none
    for flag, params in (("--base-q", base), ("--boost-q", boost)):
        _checked(f"argument {flag}", takeoff_time, params)
    report = _checked("roi arguments", roi_check, base, boost, lattice.node_count,
                      t_star=args.t_star, profit_per_adopter=args.profit_per_adopter,
                      investment=args.investment, roi_min=args.roi_min)
    _out(json.dumps(dataclasses.asdict(report), indent=2))
    return EXIT_OK


def cmd_envelope(args) -> int:
    sigma = _sigma(args.sigma, "argument --sigma")
    _checked("argument --k", Neighborhood.for_k, args.k)
    _checked("argument --delta-u", _check_real, "delta_u", args.delta_u)
    records = _read("sweep CSV", read_sweep_csv, args.sweep_csv)
    # read before anything is written, so a bad points file leaves no output
    points = _read("points CSV", read_empirical_csv, args.points) if args.points else []
    try:
        hull = envelope(records, (args.k, args.delta_u, sigma))
    except TooFewPoints as exc:
        print(f"cannot build envelope: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    write_envelope_csv(hull, args.out)
    if args.points:
        _out("label,p,q,location")
        for label, p, q in points:
            where = locate((p, q), hull)
            _out(f"{label},{p!r},{q!r},{where.value}")
    _write_manifest(
        args, args.out,
        {"sweep_csv": args.sweep_csv, "k": args.k, "delta_u": args.delta_u,
         "sigma": sigma, "points": args.points},
    )
    return EXIT_OK


def cmd_netstats(args) -> int:
    neighborhood = _checked("argument --k", Neighborhood.for_k, args.k)
    _checked("argument --p-r", _check_real, "p_r", args.p_r, 0, 1)
    lattice = _checked("arguments --rows/--cols", LatticeSpec,
                       args.rows, args.cols, neighborhood)
    rng = np.random.default_rng(args.seed)
    net = build_lattice(lattice)
    if args.p_r > 0:
        net = rewire(net, args.p_r, rng)
    stats = network_stats(net, sample_size=args.sample, rng=rng)
    payload = {"nodes": net.node_count, "edges": net.edge_count,
               **dataclasses.asdict(stats)}
    return _emit_json(args, json.dumps(payload, indent=2),
                      {"rows": args.rows, "cols": args.cols, "k": args.k,
                       "p_r": args.p_r, "sample": args.sample})


def _count(text: str) -> int:
    """argparse type of a count argument: an integer >= 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffusim",
        description="Innovation-diffusion lattice simulations and "
                    "adoption-curve calibration.",
    )
    parser.add_argument("--version", action="version",
                        version=f"diffusim {diffusim.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed (unsigned 64-bit)")

    p = sub.add_parser("simulate", help="run one configured simulation")
    p.add_argument("config", help="JSON config file")
    add_seed(p)
    p.add_argument("--out", default="trajectory.csv", help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter grid and fit every run")
    p.add_argument("config", help="JSON grid config file ({} for defaults)")
    p.add_argument("--replications", type=_count, default=1)
    p.add_argument("--jobs", type=_count, default=1,
                   help="most worker processes, an integer >= 1: at most "
                        "one per 8 grid cells, and a sweep left with one "
                        "runs in-process")
    add_seed(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit adoption-curve parameters to a "
                                   "trajectory CSV")
    p.add_argument("trajectory", help="CSV with tick,proportion columns")
    p.add_argument("--out", default=None,
                   help="JSON result path (default: print it)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bass", help="evaluate the adoption curve")
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
    p.add_argument("--t", type=float, default=None,
                   help="single time point (prints the value)")
    p.add_argument("--t-max", type=int, default=50,
                   help="inclusive end of the integer time grid CSV")
    p.add_argument("--out", default="bass.csv", help="time grid CSV path")
    p.set_defaults(func=cmd_bass)

    p = sub.add_parser("takeoff", help="introduction-to-growth transition "
                                       "time for (p, q)")
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
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
    p.set_defaults(func=cmd_roi)

    p = sub.add_parser("envelope", help="hull of fitted (p, q) points from "
                                        "a sweep CSV")
    p.add_argument("sweep_csv")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta-u", type=float, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--points", default=None,
                   help="optional label,p,q CSV to classify against the hull")
    p.add_argument("--out", default="envelope.csv", help="hull CSV path")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("netstats", help="summary statistics of a (rewired) "
                                        "lattice")
    p.add_argument("--rows", type=int, default=200)
    p.add_argument("--cols", type=int, default=200)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--p-r", type=float, default=0.0)
    p.add_argument("--sample", type=_count, default=256,
                   help="path-length source sample size")
    add_seed(p)
    p.add_argument("--out", default=None,
                   help="JSON statistics path (default: print them)")
    p.set_defaults(func=cmd_netstats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 2**64:
        print("error: --seed must fit an unsigned 64-bit integer",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _StdoutClosed:
        # a reader that stops early (`| head`) is no failure; stdout is
        # pointed at devnull, so that the flush at exit cannot fail again
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
