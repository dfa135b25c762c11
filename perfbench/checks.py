"""Per-run output checks, and the per-run output files they read.

A run's outputs are its saturation tick, tick count, final adopter count
and fitted p, q and r-squared. At the default seed every run is compared
with the committed reference: integers exactly, p and q within FIT_RTOL,
r-squared no lower than the reference. At every seed each run must also be
internally consistent.

Compare two per-run output files, say from two commits at one seed:

    python3 perfbench/checks.py A-runs.csv B-runs.csv
"""

from __future__ import annotations

import csv
import math
import sys

from specs import MAX_TICKS, POPULATION, RUN_FIELDS

# Admits the move of q-pinned fits to the true bounded optimum (at most 7e-4
# relative in p); a changed trajectory moves p and q far more than this.
FIT_RTOL = 1e-3
FIT_ATOL = 1e-12
# r-squared may not drop; the slack only absorbs last-digit rounding
R2_SLACK = 1e-9

INT_FIELDS = ("index", "replication", "seed", "saturation_tick", "ticks", "final_adopters")
FLOAT_FIELDS = ("p", "q", "r_squared")


def write_runs(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_FIELDS)
        for row in rows:
            writer.writerow([
                repr(float(row[f])) if f in FLOAT_FIELDS else row[f] for f in RUN_FIELDS
            ])


def read_runs(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != RUN_FIELDS:
            raise ValueError(f"{path}: expected columns {RUN_FIELDS}")
        return [
            {f: (float(r[f]) if f in FLOAT_FIELDS else int(r[f])) for f in RUN_FIELDS}
            for r in reader
        ]


def internal_problems(row: dict) -> list[str]:
    """What is wrong with one run's outputs on their own."""
    if row.get("ticks") is None or row.get("final_adopters") is None:
        return ["no engine result recorded for this run"]
    problems = []
    p, q, r2 = row["p"], row["q"], row["r_squared"]
    if not all(math.isfinite(v) for v in (p, q, r2)):
        return [f"fit is not finite: p={p} q={q} r2={r2}"]
    if not (0.0 < p <= 1.0 and 0.0 <= q <= 1.0):
        problems.append(f"fit outside its box: p={p} q={q}")
    if r2 > 1.0:
        problems.append(f"r_squared above 1: {r2}")
    ticks, sat, final = row["ticks"], row["saturation_tick"], row["final_adopters"]
    if not 1 <= ticks <= MAX_TICKS:
        problems.append(f"tick count {ticks} outside [1, {MAX_TICKS}]")
    if row.get("engine_saturation_tick", sat) != sat:
        problems.append(
            f"sweep.csv saturation tick {sat} != engine's {row['engine_saturation_tick']}"
        )
    if sat == -1:
        if not 0 < final < POPULATION:
            problems.append(f"unsaturated run with {final} adopters")
    elif sat != ticks or final != POPULATION:
        problems.append(f"saturated at {sat} but {ticks} ticks and {final} adopters")
    return problems


def reference_problems(row: dict, ref: dict) -> list[str]:
    """How one run's outputs differ from its reference beyond tolerance."""
    problems = [
        f"{f} {row[f]} != reference {ref[f]}"
        for f in INT_FIELDS
        if row.get(f) != ref[f]
    ]
    for f in ("p", "q"):
        if not abs(row[f] - ref[f]) <= FIT_RTOL * abs(ref[f]) + FIT_ATOL:
            problems.append(f"{f} {row[f]!r} differs from reference {ref[f]!r}")
    if not row["r_squared"] >= ref["r_squared"] - R2_SLACK:
        problems.append(
            f"r_squared {row['r_squared']!r} below reference {ref['r_squared']!r}"
        )
    return problems


def check_pass(rows: list[dict], expected: list[tuple[int, int, int]],
               reference: list[dict] | None) -> dict[tuple[int, int], list[str]]:
    """Problems per run (index, replication); only failing runs appear.

    Every expected run must be present once with its derived seed; extra
    rows are reported against the run they claim to be.
    """
    by_key = {}
    problems: dict[tuple[int, int], list[str]] = {}
    for row in rows:
        key = (row["index"], row["replication"])
        if key in by_key:
            problems.setdefault(key, []).append("run reported twice")
        by_key[key] = row
    refs = {(r["index"], r["replication"]): r for r in reference or ()}
    for index, rep, seed in expected:
        key = (index, rep)
        row = by_key.pop(key, None)
        if row is None:
            problems.setdefault(key, []).append("run missing from the output")
            continue
        found = [] if row["seed"] == seed else [f"seed {row['seed']} != derived {seed}"]
        found += internal_problems(row)
        if reference is not None and not found:
            ref = refs.get(key)
            found += (
                ["no reference for this run"] if ref is None
                else reference_problems(row, ref)
            )
        if found:
            problems.setdefault(key, []).extend(found)
    for key in by_key:
        problems.setdefault(key, []).append("run not in the workload")
    return problems


def compare_files(path_a, path_b) -> int:
    """Print every run whose outputs differ beyond tolerance; exit status 1
    when any does."""
    a = {(r["index"], r["replication"]): r for r in read_runs(path_a)}
    b = {(r["index"], r["replication"]): r for r in read_runs(path_b)}
    differing = 0
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            print(f"run {key}: only in {path_a if key in a else path_b}")
            differing += 1
            continue
        found = reference_problems(b[key], a[key])
        if found:
            print(f"run {key}: " + "; ".join(found))
            differing += 1
    print(f"{differing} of {len(set(a) | set(b))} runs differ beyond tolerance")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 perfbench/checks.py A-runs.csv B-runs.csv")
    sys.exit(compare_files(sys.argv[1], sys.argv[2]))
