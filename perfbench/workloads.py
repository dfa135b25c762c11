"""The benchmark's workloads: what one timed pass runs, and its runs' outputs.

Every workload is a closed loop with one caller (the sweep, or the
sensitivity loop), no arrival rate. A run is one realization of a 200x200
lattice, simulated and fitted. Imported only inside the worker process,
after diffusim is on the path.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

# Modules are called through their attributes so that traced wrappers,
# installed after import, are the ones called.
from diffusim import calibrate, cli, engine, network, seeding, sweep

from specs import DESIGNATED_CELLS, MAX_TICKS, Spec


class Workload:
    """Inputs built from the master seed, and one timed pass over them."""

    def __init__(self, spec: Spec, seed: int, out_dir: Path, tracer):
        self.spec = spec
        self.out_dir = out_dir
        self.tracer = tracer
        out_dir.mkdir(parents=True, exist_ok=True)
        if spec.sweep_config is not None:
            config_path = out_dir / "config.json"
            config_path.write_text(json.dumps(spec.sweep_config))
            self.argv = [
                "sweep", str(config_path), "--seed", str(seed),
                "--jobs", str(spec.jobs), "--replications", str(spec.replications),
                "--out", str(out_dir / "sweep"),
            ]
            self.configs = None
        else:
            self.configs = sensitivity_configs(seed, spec.replications)

    def run_pass(self) -> int:
        """The timed work. Returns the CLI exit code (0 for the loop)."""
        if self.configs is None:
            return cli.main(self.argv)
        self.loop_rows = []
        for index, config in self.configs:
            with self.tracer.run_scope(config.seed):
                self.loop_rows.append(self._sequential_run(index, config))
        return 0

    def _sequential_run(self, index, config) -> dict:
        rng = np.random.default_rng(config.seed)
        net = network.build_lattice(config.lattice)
        if config.p_r > 0:
            net = network.rewire(net, config.p_r, rng)
        count = seeding.default_innovator_count(config.lattice)
        plan = seeding.build_plan(config.lattice, config.sigma, count, config.gamma, rng)
        traj = engine.simulate(
            net, plan,
            engine.DecisionParams(delta_u=config.delta_u, alpha=config.alpha),
            max_ticks=MAX_TICKS, rng=rng, update=engine.RANDOM_SEQUENTIAL,
            # a run takes about 0.4 s, long enough for the host's speed to
            # change within it, so the speed is probed every tick
            on_tick=self.tracer.mark_speed,
        )
        fit = calibrate.fit_bass(traj)
        return {
            "index": index, "replication": config.replication, "seed": config.seed,
            "saturation_tick": -1 if traj.saturated_at is None else traj.saturated_at,
            "ticks": len(traj.proportions) - 1,
            "final_adopters": int(round(float(traj.proportions[-1]) * traj.population)),
            "p": fit.params.p, "q": fit.params.q, "r_squared": fit.r_squared,
        }

    def outputs(self, engine_runs: dict[int, dict]) -> tuple[list[dict], str | None]:
        """Per-run outputs of the last pass, and the sweep.csv sha256.

        Sweep rows come from sweep.csv; ticks and final adopter count come
        from the engine results the tracer recorded, joined on the run seed.
        """
        if self.configs is not None:
            return self.loop_rows, None
        path = self.out_dir / "sweep" / "sweep.csv"
        data = path.read_bytes()
        rows = []
        with open(path, newline="") as fh:
            for n, rec in enumerate(csv.DictReader(fh)):
                seed = int(rec["seed"])
                eng = engine_runs.get(seed, {})
                rows.append({
                    "index": n // self.spec.replications,
                    "replication": int(rec["replication"]),
                    "seed": seed,
                    "saturation_tick": int(rec["saturation_tick"]),
                    "ticks": eng.get("ticks"),
                    "final_adopters": eng.get("final_adopters"),
                    "engine_saturation_tick": eng.get("saturation_tick"),
                    "p": float(rec["p"]), "q": float(rec["q"]),
                    "r_squared": float(rec["r_squared"]),
                })
        return rows, hashlib.sha256(data).hexdigest()


def sensitivity_configs(master_seed: int, replications: int) -> list[tuple[int, object]]:
    """(grid index, config) for each designated cell x replication, seeded
    as the acceptance test's shared sweep seeds them."""
    grid = sweep.default_grid()
    keyed = {(c.k, c.delta_u, c.sigma.value, c.p_r, c.gamma): i for i, c in enumerate(grid)}
    out = []
    for cell in DESIGNATED_CELLS:
        index = keyed[cell]
        for rep in range(replications):
            seed = sweep.derive_run_seed(master_seed, index, rep)
            out.append((index, dataclasses.replace(grid[index], seed=seed, replication=rep)))
    return out


def expected_runs(spec: Spec, master_seed: int) -> list[tuple[int, int, int]]:
    """(index, replication, seed) of every run a pass must produce, in order."""
    if spec.sweep_config is None:
        return [
            (i, c.replication, c.seed)
            for i, c in sensitivity_configs(master_seed, spec.replications)
        ]
    cells = len(sweep.default_grid(**spec.sweep_config))
    return [
        (i, rep, sweep.derive_run_seed(master_seed, i, rep))
        for i in range(cells)
        for rep in range(spec.replications)
    ]
