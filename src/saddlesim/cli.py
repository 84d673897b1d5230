"""Command-line experiment driver.

Subcommands:
    validate         assumption report for a configured problem
    simulate         gradient-descent escape runs with bound snapshots
    approx           model-trajectory error against the recorded reference
    family           interval-family exit sampling
    bounds           closed-form bound report per run
    phase-retrieval  escape runs on phase retrieval across seeds, no config file

One JSON config document describes an experiment; no environment variables.
Exit codes: 0 success, 2 configuration or I/O error (a run record past its
memory budget included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import approx, bounds, perturb, problems, simulate, spectral

NUMERICAL_ERRORS = (
    spectral.NotSymmetric,
    spectral.NotMorse,
    spectral.NoNegativeEigenvalue,
    spectral.SingleGroup,
    problems.NotStrictSaddle,
    problems.NotStrictSaddleAtZero,
    perturb.InvalidAlpha,
    approx.ZeroGap,
    approx.NoExitInFamily,
)


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description.

    problem: {"kind": k} plus the field problems.KINDS[k].dim_field, if any.
    alpha_mode scales the top step: alpha = alpha_mode / L.  Each init carries
    a label plus either a theta_us_sq mass or an explicit u0.
    """

    problem: dict
    eps: float
    alpha_mode: float
    inits: tuple[dict, ...]
    seeds: tuple[int, ...]
    k_max: int | None
    rho: float
    n_samples: int
    out_prefix: str


@dataclass(frozen=True)
class ExperimentRecord:
    """One gradient-descent run with its bound snapshot."""

    run_id: str
    seed: int
    init_label: str
    theta_us_sq: float
    norms: np.ndarray
    stable_proj_sq: np.ndarray
    unstable_proj_sq: np.ndarray
    first_exit_k: int | None
    summary: dict


def _number(value, field: str, kind=float):
    """kind(value), or a ConfigError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{field} must be {noun}, got {value!r}") from exc


def _number_list(value, field: str, kind=float) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list, got {value!r}")
    return [_number(v, field, kind) for v in value]


def _parse_problem(prob) -> dict:
    kind = prob.get("kind") if isinstance(prob, dict) else None
    # only a string is looked up: a list or dict kind is unhashable
    entry = problems.KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        *names, last = problems.KINDS
        raise ConfigError(f"problem.kind must be {', '.join(names)} or {last}")
    field = entry.dim_field
    unknown = sorted(set(prob) - {"kind", field})
    if unknown:
        raise ConfigError(f"unknown problem field(s): {', '.join(unknown)}")
    if field is not None and field not in prob:
        raise ConfigError(f"{kind} problem needs {field}")
    parsed = {"kind": kind}
    if field == "lambdas":
        lambdas = _number_list(prob["lambdas"], "problem.lambdas")
        if len(lambdas) < 2 or not all(math.isfinite(v) for v in lambdas):
            raise ConfigError("problem.lambdas must hold at least two finite numbers")
        parsed["lambdas"] = lambdas
    if field == "n":
        n = _number(prob["n"], "problem.n", int)
        if n < 2:
            raise ConfigError("problem.n must be at least 2")
        parsed["n"] = n
    dim = entry.dim(parsed)
    if dim > problems.MAX_DIM:
        raise ConfigError(f"problem.{field} gives dimension {dim}, above the cap {problems.MAX_DIM}")
    return parsed


# M is taken in closed form, so the point-pair count a config used to give
# has nothing to set; a config that still carries it is run, with a warning
RETIRED_FIELD = "estimate_samples"


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a raw config dict.  Raises ConfigError with a field name."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(ExperimentConfig)} - {RETIRED_FIELD})
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    missing = [f for f in ("problem", "eps", "alpha_mode", "inits", "seeds") if f not in doc]
    if missing:
        raise ConfigError(f"missing required field(s): {', '.join(missing)}")
    prob = _parse_problem(doc["problem"])
    eps = _number(doc["eps"], "eps")
    alpha_mode = _number(doc["alpha_mode"], "alpha_mode")
    inits = doc["inits"]
    seeds = _number_list(doc["seeds"], "seeds", int)
    if not (eps > 0 and math.isfinite(eps)):
        raise ConfigError("eps must be positive and finite")
    if not 0 < alpha_mode <= 1:
        raise ConfigError("alpha_mode must lie in (0, 1]")
    if not seeds:
        raise ConfigError("seeds must be a nonempty list")
    if min(seeds) < 0:
        raise ConfigError("seeds must be nonnegative")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must not repeat")
    if not isinstance(inits, list) or not inits:
        raise ConfigError("inits must be a nonempty list")
    norm_inits = []
    for entry in inits:
        if not isinstance(entry, dict) or "label" not in entry:
            raise ConfigError("every init needs a label")
        label = entry["label"]
        if not isinstance(label, str):
            raise ConfigError(f"init label must be a string, got {label!r}")
        if any(e["label"] == label for e in norm_inits):
            raise ConfigError(f"init label {label!r} is not unique")
        if ("theta_us_sq" in entry) == ("u0" in entry):
            raise ConfigError(f"init {label!r} needs exactly one of theta_us_sq or u0")
        if "theta_us_sq" in entry:
            t = _number(entry["theta_us_sq"], f"init {label!r}: theta_us_sq")
            if not 0 <= t <= 1:
                raise ConfigError(f"init {label!r}: theta_us_sq = {t} outside [0, 1]")
            norm_inits.append({"label": label, "theta_us_sq": t})
        else:
            u0 = _number_list(entry["u0"], f"init {label!r}: u0")
            norm_inits.append({"label": label, "u0": u0})
    rho = _number(doc.get("rho", 0.5), "rho")
    if not 0 < rho < 1:
        raise ConfigError("rho must lie in (0, 1)")
    k_max = doc.get("k_max")
    if k_max is not None:
        k_max = _number(k_max, "k_max", int)
        if k_max < 1:
            raise ConfigError("k_max must be at least 1")
    n_samples = _number(doc.get("n_samples", 200), "n_samples", int)
    if n_samples < 1:
        raise ConfigError("n_samples must be at least 1")
    if n_samples > approx.MAX_FAMILY_SAMPLES:
        raise ConfigError(f"n_samples must be at most {approx.MAX_FAMILY_SAMPLES}, got {n_samples}")
    out_prefix = doc.get("out_prefix", "experiment")
    if not isinstance(out_prefix, str):
        raise ConfigError(f"out_prefix must be a string, got {out_prefix!r}")
    if RETIRED_FIELD in doc:
        print(f"warning: {RETIRED_FIELD} is ignored: M is taken in closed form", file=sys.stderr)
    return ExperimentConfig(
        problem=prob,
        eps=eps,
        alpha_mode=alpha_mode,
        inits=tuple(norm_inits),
        seeds=tuple(seeds),
        k_max=k_max,
        rho=rho,
        n_samples=n_samples,
        out_prefix=out_prefix,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _init_offset(
    entry: dict, spectrum: spectral.Spectrum, eps: float
) -> np.ndarray:
    """Deterministic starting offset on the eps-sphere for one init entry."""
    if "u0" in entry:
        return np.asarray(entry["u0"], dtype=float)
    t = entry["theta_us_sq"]
    n_s = spectrum.stable_idx.size
    n_us = spectrum.unstable_idx.size
    if t < 1 and n_s == 0:
        raise ConfigError(
            f"init {entry['label']!r}: no stable directions to carry mass {1 - t:g}"
        )
    theta = np.zeros(spectrum.dim)
    if n_us:
        theta[spectrum.unstable_idx] = math.sqrt(t / n_us)
    if n_s and t < 1:
        theta[spectrum.stable_idx] = math.sqrt((1.0 - t) / n_s)
    return eps * (spectrum.eigenvectors @ theta)


def _check_u0(entry: dict, dim: int, eps: float) -> None:
    """Reject an explicit u0 that has the wrong length or lies off the eps-sphere."""
    if "u0" not in entry:
        return
    u0 = np.asarray(entry["u0"], dtype=float)
    if u0.shape != (dim,):
        raise ConfigError(f"init {entry['label']!r}: u0 has shape {u0.shape}, expected ({dim},)")
    try:
        spectral.check_radius(u0, eps)
    except spectral.WrongRadius as exc:
        raise ConfigError(f"init {entry['label']!r}: {exc}") from exc


@dataclass(frozen=True)
class Run:
    """One (seed, init) start; constants() estimates the seed's constants on first call."""

    seed: int
    entry: dict
    problem: problems.SaddleProblem
    spectrum: spectral.Spectrum
    u0: np.ndarray
    projections: spectral.Projections
    alpha: float
    run_id: str
    constants: Callable[[], problems.ProblemConstants]


def _estimate_constants(
    config: ExperimentConfig, problem: problems.SaddleProblem
) -> problems.ProblemConstants:
    """Estimate a seed's constants; an eps above eps_max warns, it is not fatal."""
    constants = problems.estimate_constants(problem, config.eps)
    if config.eps > constants.eps_max:
        print(
            f"warning: eps = {config.eps:g} exceeds the validity radius "
            f"eps_max = {constants.eps_max:g} for {problem.label}",
            file=sys.stderr,
        )
    return constants


def _seed_runs(config: ExperimentConfig, seed: int) -> list[Run]:
    """Every start of one seed in config order, from one build and decomposition.

    A u0 of the wrong length or off the eps-sphere is a ConfigError.  The
    constants stay lazy, estimated at the seed's first call, so the eps_max
    warnings come in seed order as each seed is reached.
    """
    problem = problems.KINDS[config.problem["kind"]].build(config.problem, seed)
    spectrum = problem.spectrum
    constants = functools.cache(functools.partial(_estimate_constants, config, problem))
    runs = []
    for entry in config.inits:
        _check_u0(entry, problem.dim, config.eps)
        u0 = _init_offset(entry, spectrum, config.eps)
        projections = spectral.project(u0, spectrum, config.eps)
        runs.append(Run(
            seed=seed,
            entry=entry,
            problem=problem,
            spectrum=spectrum,
            u0=u0,
            projections=projections,
            alpha=config.alpha_mode / spectrum.big_l,
            run_id=f"s{seed}-{entry['label']}",
            constants=constants,
        ))
    return runs


# _runs keeps the checked runs of the first seeds, up to this many bytes of
# their problems, for its second pass.  A seed's problem and decomposition
# hold about 3.3 (n, n) float64 arrays (phase retrieval, by tracemalloc at
# n = 512); _SEED_ARRAYS is counted.  Only seeds are counted: a start adds a
# few length-n vectors (its Projections and u0) and no (n, n) array.
_KEPT_BYTES = 1 << 28
_SEED_ARRAYS = 4


def _runs(config: ExperimentConfig) -> Iterator[Run]:
    """Yield every (seed, init) start in config order.

    Every seed is built, decomposed and its starts checked before the first
    start is yielded, so a seed that is not a strict saddle, or a bad u0,
    fails before any command work.  The first seeds' runs are kept from that
    check, as many as fit in _KEPT_BYTES (at least one); a later seed is
    dropped and built and decomposed again when it is reached, so memory
    does not grow with the number of seeds.
    """
    n = problems.KINDS[config.problem["kind"]].dim(config.problem)
    keep = max(1, _KEPT_BYTES // (_SEED_ARRAYS * 8 * n * n))
    kept = deque(_seed_runs(config, seed) for seed in config.seeds[:keep])
    for seed in config.seeds[keep:]:
        _seed_runs(config, seed)
    for seed in config.seeds:
        yield from kept.popleft() if kept else _seed_runs(config, seed)


def _jsonable(obj):
    """Recursively convert to JSON-safe values; non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run every (seed, init) gradient-descent escape and snapshot the bounds.

    Records come back sorted by (seed, init_label).  An eps above the
    estimated validity radius triggers a warning and is recorded, not fatal.
    """
    records = []
    for run in _runs(config):
        constants = run.constants()
        traj = simulate.gd_run(run.problem, run.u0, run.alpha, config.eps, k_max=config.k_max)
        boundary = bounds.boundary_condition_check(run.projections, constants, config.rho)

        theta_s_sq = float(run.projections.theta_s @ run.projections.theta_s)
        theta_us_sq = float(run.projections.theta_us @ run.projections.theta_us)
        mass = theta_s_sq + theta_us_sq
        p = bounds.psi_constants(
            constants.big_l,
            constants.beta,
            constants.big_m,
            constants.delta,
            run.spectrum.dim,
            run.alpha,
            config.eps,
            theta_s_sq / mass,
            theta_us_sq / mass,
        )
        try:
            k_iota = bounds.k_iota_from_psi(p, traj.budget)
        except bounds.NoLinearExit:
            k_iota = None
        try:
            crude_k, crude_threshold = bounds.crude_bound(
                bounds.CrudeBoundParams(
                    rho=config.rho,
                    gamma=1.0,
                    beta=constants.beta,
                    big_m=constants.big_m,
                    alpha=run.alpha,
                    eps=config.eps,
                )
            )
        except bounds.VacuousBound:
            crude_k, crude_threshold = None, None

        proj = traj.radials @ run.spectrum.eigenvectors
        stable_sq = np.sum(proj[:, run.spectrum.stable_idx] ** 2, axis=1)
        unstable_sq = np.sum(proj[:, run.spectrum.unstable_idx] ** 2, axis=1)

        summary = {
            "run_id": run.run_id,
            "seed": run.seed,
            "init_label": run.entry["label"],
            "label": run.problem.label,
            "eps": config.eps,
            "alpha": run.alpha,
            "alpha_mode": config.alpha_mode,
            "theta_us_sq": theta_us_sq,
            "first_exit_k": traj.exit_index,
            "k_iota": k_iota,
            "exit_k_bound": boundary["exit_k_bound"],
            "delta_threshold": boundary["delta_threshold"],
            "passes_delta": boundary["passes_delta"],
            "well_conditioned": boundary["well_conditioned"],
            "crude_k_bound": crude_k,
            "crude_threshold": crude_threshold,
            "crude_ok": boundary["crude_ok"],
            "crude_gamma_assumed": 1.0,
            "eps_within_validity": bool(config.eps <= constants.eps_max),
            "constants": asdict(constants),
        }
        records.append(
            ExperimentRecord(
                run_id=run.run_id,
                seed=run.seed,
                init_label=run.entry["label"],
                theta_us_sq=theta_us_sq,
                norms=traj.norms,
                stable_proj_sq=stable_sq,
                unstable_proj_sq=unstable_sq,
                first_exit_k=traj.exit_index,
                summary=summary,
            )
        )
    records.sort(key=lambda r: (r.seed, r.init_label))
    return records


def _csv_rows(r: ExperimentRecord) -> Iterator[str]:
    """r's rows of _runs.csv, as csv.writer writes them.

    Each row is run_id, seed, init_label, the step k, the reprs of step k's
    radial norm and stable and unstable projection sums, and whether the
    run has exited by step k.
    """
    # io is loaded at interpreter start; importing it here leaves the
    # module's own imports, and so the CLI's start-up, as they were
    import io

    line = io.StringIO()
    csv.writer(line).writerow([r.run_id, r.seed, r.init_label])
    # the three shared fields, quoted once; every other field is a digit
    # string, a float repr or a bool, which csv never quotes
    head = line.getvalue()[: -len("\r\n")]
    first = r.first_exit_k if r.first_exit_k is not None else r.norms.size
    return (
        f"{head},{k},{norm!r},{stable!r},{unstable!r},{k >= first}\r\n"
        for k, (norm, stable, unstable) in enumerate(
            zip(r.norms.tolist(), r.stable_proj_sq.tolist(), r.unstable_proj_sq.tolist())
        )
    )


def emit(records: list[ExperimentRecord], format: str, out_dir: str, prefix: str | None = None) -> list[Path]:
    """Write experiment artifacts; returns the paths written.

    csv: one <prefix>_runs.csv row per recorded iteration plus a
    <prefix>_summary.json with one entry per run.  json: the summary only.
    Output is byte-stable for identical records.
    """
    if not records:
        raise ValueError("no records to emit")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {format!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if prefix is None:
        prefix = "experiment"
    written = []

    summary_path = out / f"{prefix}_summary.json"
    summary_path.write_text(_json_text({"runs": [r.summary for r in records]}))
    written.append(summary_path)

    if format == "csv":
        csv_path = out / f"{prefix}_runs.csv"
        with open(csv_path, "w", newline="") as fh:
            fh.write("run_id,seed,init_label,k,radial_norm,stable_proj_sq,unstable_proj_sq,exited\r\n")
            for r in records:
                fh.writelines(_csv_rows(r))
        written.append(csv_path)
    return written


def _cmd_validate(config: ExperimentConfig, args) -> int:
    seed = config.seeds[0]
    kind = problems.KINDS[config.problem["kind"]]
    problem = (kind.report or kind.build)(config.problem, seed)
    for entry in config.inits:
        _check_u0(entry, problem.dim, config.eps)
    report = problems.validate_assumptions(problem, config.eps, seed=seed)
    _write_or_print(report, args, f"{config.out_prefix}_validate.json")
    return 0


def _cmd_simulate(config: ExperimentConfig, args) -> int:
    records = run_experiment(config)
    for path in emit(records, args.format, args.out or ".", config.out_prefix):
        print(path)
    return 0


def _cmd_approx(config: ExperimentConfig, args) -> int:
    n = problems.KINDS[config.problem["kind"]].dim(config.problem)
    if 8 * n**3 > approx.MAX_DERIVATIVE_BYTES:
        largest = round((approx.MAX_DERIVATIVE_BYTES / 8) ** (1 / 3))
        largest -= 8 * largest**3 > approx.MAX_DERIVATIVE_BYTES
        raise ConfigError(
            f"approx needs dimension at most {largest} (its H' table takes 8 n^3 bytes), "
            f"got n = {n}"
        )
    runs = []
    for run in _runs(config):
        traj = simulate.gd_run(run.problem, run.u0, run.alpha, config.eps, k_max=config.k_max)
        coeffs = approx.reference_coefficients(run.problem, run.spectrum, traj)
        stop = traj.norms.size - 1
        path = approx.eps_trajectory(run.projections, run.spectrum, coeffs, stop)
        # a run that lands on the saddle has zero radii: 0 / 0 reads NaN, reported null
        with np.errstate(divide="ignore", invalid="ignore"):
            errs = np.linalg.norm(path - traj.radials, axis=1) / traj.norms
        runs.append(
            {
                "run_id": run.run_id,
                "first_exit_k": traj.exit_index,
                "steps_compared": int(stop),
                "max_rel_error": float(np.max(errs)),
                "eps": config.eps,
            }
        )
    _write_or_print({"runs": runs}, args, f"{config.out_prefix}_approx.json")
    return 0


def _cmd_family(config: ExperimentConfig, args) -> int:
    n = problems.KINDS[config.problem["kind"]].dim(config.problem)
    floats = n + n * n  # per sample in a family step
    if config.n_samples * floats > approx.MAX_FAMILY_BLOCK:
        raise ConfigError(
            f"n_samples must be at most {approx.MAX_FAMILY_BLOCK // floats} at n = {n}, "
            f"got {config.n_samples}"
        )
    out_rows = []
    summaries = []
    for run in _runs(config):
        constants = run.constants()
        intervals = approx.coefficient_intervals(
            constants.big_l,
            constants.beta,
            constants.big_m,
            constants.delta,
            run.alpha,
            config.eps,
        )
        k_max = config.k_max or simulate.default_k_max(config.eps, run.alpha, constants.beta)
        fam = approx.sample_family(
            intervals,
            run.projections,
            run.spectrum,
            k_max,
            config.eps,
            config.n_samples,
            run.seed,
        )
        for t, k_exit in enumerate(fam.sampled_exit_times):
            out_rows.append((run.run_id, t, "" if math.isinf(k_exit) else int(k_exit)))
        summaries.append(
            {
                "run_id": run.run_id,
                "k_iota": fam.k_iota,
                "sup_exit": fam.sup_exit,
                "n_samples": fam.n_samples,
                "k_max": fam.k_max,
                "constants": asdict(constants),
            }
        )
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.out_prefix}_family.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "tau_index", "exit_k"])
        writer.writerows(out_rows)
    json_path = out / f"{config.out_prefix}_family.json"
    json_path.write_text(_json_text({"runs": summaries}))
    print(csv_path)
    print(json_path)
    return 0


def _cmd_bounds(config: ExperimentConfig, args) -> int:
    runs = []
    for run in _runs(config):
        constants = run.constants()
        report = bounds.boundary_condition_check(run.projections, constants, config.rho)
        report["run_id"] = run.run_id
        report["constants"] = asdict(constants)
        runs.append(report)
    _write_or_print({"runs": runs}, args, f"{config.out_prefix}_bounds.json")
    return 0


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def _write_or_print(obj, args, filename: str) -> None:
    text = _json_text(obj)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / filename
        path.write_text(text)
        print(path)
    else:
        sys.stdout.write(text)


# far more seeds than any run can get through; checked before the list is built
MAX_SEEDS = 1_000_000


def _phase_retrieval_config(args) -> ExperimentConfig:
    if args.num_seeds > MAX_SEEDS:
        raise ConfigError(f"--num-seeds must be at most {MAX_SEEDS}, got {args.num_seeds}")
    return parse_config(
        {
            "problem": {"kind": "phase_retrieval", "n": args.n},
            "eps": args.eps,
            "alpha_mode": args.alpha_mode,
            "inits": [{"label": "split", "theta_us_sq": args.theta_us_sq}],
            "seeds": list(range(args.num_seeds)),
            "out_prefix": "phase_retrieval",
        }
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlesim",
        description="Escape-time experiments around strict saddle points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: stdout or cwd)")
        if fn is _cmd_simulate:
            p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--seed", type=int, default=None, help="override the config seed list")
        p.set_defaults(fn=fn)

    for name, fn in (
        ("validate", _cmd_validate),
        ("simulate", _cmd_simulate),
        ("approx", _cmd_approx),
        ("family", _cmd_family),
        ("bounds", _cmd_bounds),
    ):
        common(sub.add_parser(name), fn)

    p = sub.add_parser("phase-retrieval")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--num-seeds", type=int, default=10)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--alpha-mode", type=float, default=1.0)
    p.add_argument("--theta-us-sq", type=float, default=0.5)
    common(p, _cmd_simulate, needs_config=False)
    p.set_defaults(phase_retrieval=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "phase_retrieval", False):
            config = _phase_retrieval_config(args)
        else:
            config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            config = replace(config, seeds=(args.seed,))
        return args.fn(config, args)
    except (ConfigError, OSError, simulate.RecordTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
