"""Workload definitions and output checks for the saddlesim benchmark.

Each workload turns the benchmark seed S into one saddlesim config; the
program only ever sees that config.  The checks read a command's artifacts and
decide, per (seed, init) run, whether the output is right.  They recompute
what they need through saddlesim's public functions only.

Sizes are cut from the full-size runs each workload stands for (the default
phase-retrieval shortcut alone takes over a minute) so that one command takes
a few seconds and a run can repeat it; each workload keeps the mechanism it
was chosen for (see the notes on each config, and each workload's `why` in
BENCHMARK.json).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # saddlesim subcommand
    extra_args: tuple[str, ...]
    make_config: Callable[[int], dict]
    check: Callable[[dict, Path], dict[str, str | None]]


def run_ids(config: dict) -> list[str]:
    """Every (seed, init) run a config asks for, as the CLI names them."""
    return [f"s{s}-{e['label']}" for s in config["seeds"] for e in config["inits"]]


def _dim(config: dict) -> int:
    problem = config["problem"]
    return int(problem["n"]) if problem["kind"] == "phase_retrieval" else 2  # cubic


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _by_run(rows: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for row in rows:
        out.setdefault(row["run_id"], []).append(row)
    return out


# RadialTrajectory rejects a start radius further than this share from eps.
START_TOLERANCE = 1e-5


def _check_k_iota(summary: dict, dim: int) -> str | None:
    """psi(K) > 1 >= psi(j) for every j < K, from the recorded constants."""
    from saddlesim import bounds

    k_iota = summary["k_iota"]
    if k_iota is None:
        return None
    c = summary["constants"]
    t_us = summary["theta_us_sq"]
    p = bounds.psi_constants(
        c["big_l"], c["beta"], c["big_m"], c["delta"], dim,
        summary["alpha"], summary["eps"], 1.0 - t_us, t_us,
    )
    if not bounds.psi(k_iota, p) > 1.0:
        return f"psi(k_iota={k_iota}) <= 1"
    for j in range(k_iota):
        if bounds.psi(j, p) > 1.0:
            return f"psi({j}) > 1 before k_iota={k_iota}"
    return None


def check_simulate(config: dict, out: Path) -> dict[str, str | None]:
    """first_exit_k is the first CSV step K >= 1 with radial_norm > eps, and the
    exited column agrees; the start row lies on the eps-sphere; k_iota is a
    first crossing of psi.

    Exit is defined over K >= 1 (simulate.exit_time).  The start row is held to
    the program's own start tolerance instead, since its radius is eps only up
    to rounding and can read one ulp above it.
    """
    prefix = config["out_prefix"]
    runs = {r["run_id"]: r for r in _read_json(out / f"{prefix}_summary.json")["runs"]}
    rows = _by_run(_read_csv(out / f"{prefix}_runs.csv"))
    dim = _dim(config)
    result = {}
    for rid in run_ids(config):
        summary, steps = runs.get(rid), rows.get(rid)
        if summary is None or not steps:
            result[rid] = "row missing"
            continue
        if [int(r["k"]) for r in steps] != list(range(len(steps))):
            result[rid] = "csv steps not consecutive from 0"
            continue
        eps, exit_k = summary["eps"], summary["first_exit_k"]
        if abs(float(steps[0]["radial_norm"]) - eps) > START_TOLERANCE * eps:
            result[rid] = f"start radius {steps[0]['radial_norm']} is off the eps-sphere"
            continue
        above = [int(r["k"]) for r in steps[1:] if float(r["radial_norm"]) > eps]
        first = above[0] if above else None
        if first != exit_k:
            result[rid] = f"first_exit_k {exit_k} != first csv exit {first}"
            continue
        exited = [r["exited"] == "True" for r in steps]
        if exited != [exit_k is not None and k >= exit_k for k in range(len(steps))]:
            result[rid] = "exited column disagrees with first_exit_k"
            continue
        result[rid] = _check_k_iota(summary, dim)
    return result


def check_approx(config: dict, out: Path) -> dict[str, str | None]:
    """steps_compared == first_exit_k and max_rel_error <= 1e-6."""
    runs = {
        r["run_id"]: r
        for r in _read_json(out / f"{config['out_prefix']}_approx.json")["runs"]
    }
    result = {}
    for rid in run_ids(config):
        r = runs.get(rid)
        if r is None:
            result[rid] = "row missing"
        elif r["steps_compared"] != r["first_exit_k"]:
            result[rid] = f"steps_compared {r['steps_compared']} != first_exit_k {r['first_exit_k']}"
        elif r["max_rel_error"] is None or not r["max_rel_error"] <= 1e-6:
            result[rid] = f"max_rel_error {r['max_rel_error']} > 1e-6"
        else:
            result[rid] = None
    return result


def check_family(config: dict, out: Path) -> dict[str, str | None]:
    """Every exit_k in [1, k_max]; sup_exit is their maximum and at most k_iota."""
    prefix = config["out_prefix"]
    runs = {r["run_id"]: r for r in _read_json(out / f"{prefix}_family.json")["runs"]}
    rows = _by_run(_read_csv(out / f"{prefix}_family.csv"))
    k_max, n_samples = config["k_max"], config["n_samples"]
    result = {}
    for rid in run_ids(config):
        summary, samples = runs.get(rid), rows.get(rid)
        if summary is None or samples is None:
            result[rid] = "row missing"
            continue
        if [int(r["tau_index"]) for r in samples] != list(range(n_samples)):
            result[rid] = "family rows are not tau_index 0..n_samples-1"
            continue
        if any(r["exit_k"] == "" for r in samples):
            result[rid] = "censored sample"
            continue
        exits = [int(r["exit_k"]) for r in samples]
        if not all(1 <= k <= k_max for k in exits):
            result[rid] = "exit_k outside [1, k_max]"
        elif summary["sup_exit"] != max(exits):
            result[rid] = f"sup_exit {summary['sup_exit']} != max exit {max(exits)}"
        elif summary["k_iota"] is not None and not summary["sup_exit"] <= summary["k_iota"]:
            result[rid] = f"sup_exit {summary['sup_exit']} > k_iota {summary['k_iota']}"
        else:
            result[rid] = None
    return result


def _split(theta_us_sq: float) -> list[dict]:
    return [{"label": "split", "theta_us_sq": theta_us_sq}]


def _phase_retrieval(n: int) -> dict:
    return {"kind": "phase_retrieval", "n": n}


# The shortcut's defaults (n=20, eps 0.05, alpha_mode 1, theta_us_sq 0.5) as a
# simulate config.  Its default step budget follows 1/beta, which is
# heavy-tailed over instances (2.5k steps on seed 5, 8.3M on seed 7), so k_max
# is pinned: every run scans exactly K_SCAN psi values (no instance can cross,
# the runs exit at step 1), whatever the seed.
K_SCAN = 300_000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shortcut",
            command="simulate",
            extra_args=("--format", "csv"),
            make_config=lambda s: {
                "problem": _phase_retrieval(20),
                "eps": 0.05,
                "alpha_mode": 1.0,
                "inits": _split(0.5),
                "seeds": [s],
                "k_max": K_SCAN,
                "out_prefix": "shortcut",
            },
            check=check_simulate,
        ),
        # 10 samples instead of 100: each n=60 sample still fills its own
        # 64 MB chunk and runs all k_max steps, which is the cost measured.
        Workload(
            name="family-n60",
            command="family",
            extra_args=(),
            make_config=lambda s: {
                "problem": _phase_retrieval(60),
                "eps": 1e-6,
                "alpha_mode": 1.0,
                "inits": _split(0.5),
                "seeds": [s],
                "k_max": 4000,
                "n_samples": 10,
                "out_prefix": "family",
            },
            check=check_family,
        ),
        # One seed instead of eight: run length varies by instance (about
        # 5.9k steps, up to 7.3k), and every added seed widens the spread.
        Workload(
            name="approx-n60",
            command="approx",
            extra_args=(),
            make_config=lambda s: {
                "problem": _phase_retrieval(60),
                "eps": 1e-6,
                "alpha_mode": 0.002,
                "inits": [
                    {"label": "us1e-6", "theta_us_sq": 1e-6},
                    {"label": "us1e-2", "theta_us_sq": 1e-2},
                ],
                "seeds": [s],
                "out_prefix": "approx",
            },
            check=check_approx,
        ),
        # Four seeds instead of eight; the problem is fixed, so seeds only
        # change the constant-estimation draws.
        Workload(
            name="cubic-csv",
            command="simulate",
            extra_args=("--format", "csv"),
            make_config=lambda s: {
                "problem": {"kind": "cubic"},
                "eps": 1e-4,
                "alpha_mode": 0.005,
                "inits": [
                    {"label": f"us{t:g}", "theta_us_sq": t}
                    for t in (1e-8, 1e-4, 1e-2, 0.5)
                ],
                "seeds": list(range(s, s + 4)),
                "out_prefix": "cubic",
            },
            check=check_simulate,
        ),
    )
}


def csv_rows(out: Path) -> int:
    """Data rows over every CSV artifact in a directory."""
    total = 0
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            total += max(sum(1 for _ in csv.reader(fh)) - 1, 0)
    return total
