"""saddlesim benchmark: four CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed S] [--seconds N] [--trace 0|1]

Run from the root of a saddlesim source tree; the program is imported from
./src.  The config of each workload is generated from the seed S (see
workloads.py).  Every timed command runs as a fresh `python3 -m saddlesim.cli`
process, one at a time, with BLAS and OpenMP pinned to one thread and its
output in a fresh directory under .perfbench_work/.  Commands repeat until
--seconds have been spent (at least three times); timings are medians.

--trace 0 reports the end-to-end metrics.  A fixed reference job
(refjob.py) runs before the first command and after each one; wall_ref is
the command's wall time over the mean of the two reference jobs around it,
which cancels most drift in the speed of a shared machine.  runs_per_ref is
(seed, init) runs completed per reference-job time; setup_s is the time a
fresh interpreter takes to import saddlesim.cli and parse the config;
peak_rss_mb is the command's peak resident memory.  Raw seconds go to the
report.  --trace 1 alternates untraced and traced commands (tracer.py) and
reports the per-layer metrics plus trace.overhead_frac.

Every (seed, init) run's output is checked (workloads.py); a run fails when
its command exits non-zero, its row is missing or a check fails, and also
when its artifacts differ from the first command's, which in a traced run
makes traced and untraced artifacts byte-identical or failed.

Human-readable lines and a `report` JSON line (provenance, fail_frac,
artifact digests, artifacts_changed) come first; the last line of stdout is
the result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_REPS = 3
MIN_TRACE_CYCLES = 2
SETUP_REPS = 7
CHILD_DEADLINE_S = 160.0  # a run must end well inside 180 s
SELF_TIME_TOLERANCE = 1e-3  # share of cli.main wall the layer self times may miss

SETUP_SNIPPET = "import sys, saddlesim.cli as c; c.load_config(sys.argv[1])"
PROBE_SNIPPET = """
import json, platform
import numpy, saddlesim, saddlesim.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "saddlesim_file": saddlesim.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
"""


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


class Runner:
    """Starts one child at a time and kills any child past the run deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.env = child_env(work)
        self.deadline = deadline

    def spawn(self, args: list[str], cwd: Path) -> tuple[int, float, float, str]:
        """Run a child to completion: (exit code, wall s, peak RSS MB, stderr tail)."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(cwd / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-400:].decode(errors="replace")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, tail


def artifact_digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


class Session:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, runner: Runner):
        self.workload = workload
        self.runner = runner
        self.config = workload.make_config(seed)
        self.ids = workloads.run_ids(self.config)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] | None = None
        self._checked: dict[str, dict] = {}  # digest key -> check result

    def _fresh_dir(self) -> Path:
        work = Path(tempfile.mkdtemp(dir=self.runner.work))
        (work / "config.json").write_text(json.dumps(self.config))
        return work

    def setup_times(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPS):
            work = self._fresh_dir()
            code, wall, _, tail = self.runner.spawn(
                ["-c", SETUP_SNIPPET, "config.json"], work
            )
            shutil.rmtree(work)
            if code != 0:
                raise RuntimeError(f"setup probe failed: {tail}")
            times.append(wall)
        return times

    def _cli_args(self) -> list[str]:
        return [self.workload.command, "--config", "config.json", "--out", "out",
                *self.workload.extra_args]

    def rep(self, traced: bool) -> dict:
        """One command, timed, checked and scored per (seed, init) run."""
        work = self._fresh_dir()
        try:
            if traced:
                args = [str(HERE / "tracer.py"), "trace.json", "--", *self._cli_args()]
            else:
                args = ["-m", "saddlesim.cli", *self._cli_args()]
            code, wall, rss, tail = self.runner.spawn(args, work)
            out = work / "out"
            rep = {"wall_s": wall, "rss_mb": rss, "ok_runs": 0}
            if code != 0 or not out.is_dir():
                verdict = {rid: f"exit code {code}: {tail.strip()[-200:]}" for rid in self.ids}
            else:
                digests = artifact_digests(out)
                verdict = self._check(out, digests)
                if self.digests is None:
                    self.digests = digests
                elif digests != self.digests:
                    why = "artifacts differ from the first command's"
                    verdict = {rid: v or why for rid, v in verdict.items()}
                rep["csv_rows"] = workloads.csv_rows(out)
                rep["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
                if traced:
                    with open(work / "trace.json") as fh:
                        rep["trace"] = json.load(fh)
            bad = {rid: why for rid, why in verdict.items() if why}
            self.attempted += len(self.ids)
            self.failed += len(bad)
            self.failures += [f"{rid}: {why}" for rid, why in sorted(bad.items())]
            rep["ok_runs"] = len(self.ids) - len(bad)
            return rep
        finally:
            shutil.rmtree(work)

    def _check(self, out: Path, digests: dict) -> dict:
        key = json.dumps(digests, sort_keys=True)
        if key not in self._checked:
            try:
                verdict = self.workload.check(self.config, out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                verdict = {rid: f"unreadable artifacts: {exc!r}" for rid in self.ids}
            self._checked[key] = verdict
        return self._checked[key]

    def reference(self) -> float:
        """Wall time of one reference job (refjob.py)."""
        work = self._fresh_dir()
        try:
            code, wall, _, tail = self.runner.spawn([str(HERE / "refjob.py")], work)
        finally:
            shutil.rmtree(work)
        if code != 0:
            raise RuntimeError(f"reference job failed: {tail}")
        return wall

    def reps(
        self, modes: tuple[bool, ...], seconds: float, min_cycles: int, reference: bool = False
    ) -> list[dict]:
        """Repeat the command, cycling through `modes` (traced or not), until
        `seconds` are spent and at least min_cycles cycles have run.

        Alternating traced and untraced commands keeps drift in machine speed
        out of the tracing overhead.  With `reference`, a reference job runs
        before the first command and after each one, and each command gets
        ref_s, the mean of the two reference jobs around it.
        """
        reps, durations = [], []
        start = time.monotonic()
        before = self.reference() if reference else None
        while len(reps) < min_cycles * len(modes) or (
            time.monotonic() - start + statistics.median(durations) <= seconds
        ):
            t0 = time.monotonic()
            traced = modes[len(reps) % len(modes)]
            rep = dict(self.rep(traced), traced=traced)
            if reference:
                after = self.reference()
                rep["ref_s"] = (before + after) / 2.0
                before = after
            reps.append(rep)
            durations.append(time.monotonic() - t0)
        return reps


def end_to_end(setup: list[float], reps: list[dict]) -> dict:
    rel = [r["wall_s"] / r["ref_s"] for r in reps]
    return {
        "wall_ref": statistics.median(rel),
        "runs_per_ref": statistics.median([r["ok_runs"] / x for r, x in zip(reps, rel)]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in reps]),
    }


def raw_seconds(reps: list[dict]) -> dict:
    return {
        "wall_s": statistics.median([r["wall_s"] for r in reps]),
        "runs_per_s": statistics.median([r["ok_runs"] / r["wall_s"] for r in reps]),
        "ref_s": statistics.median([r["ref_s"] for r in reps]),
    }


def layer_times(trace: dict) -> tuple[Counter, defaultdict, dict]:
    """Calls and total seconds per function, and self seconds per layer.

    A layer's self time is the time of its spans and hot calls minus the
    time of their children (child_s, recorded by the tracer).
    """
    calls, total = Counter(), defaultdict(float)
    self_s = dict.fromkeys(tracer.LAYERS, 0.0)
    for _, _, name, start, end, child_s in trace["spans"]:
        calls[name] += 1
        total[name] += end - start
        self_s[name.split(".")[0]] += end - start - child_s
    for name, agg in trace["hot"].items():
        calls[name] += agg["calls"]
        total[name] += agg["total_s"]
        self_s[name.split(".")[0]] += agg["self_s"]
    return calls, total, self_s


def _layer_metrics(rep: dict) -> dict:
    t = rep["trace"]
    n_calls, total_s, self_s = layer_times(t)
    total = total_s.get
    calls = n_calls.get
    counts = t["counts"].get
    obs = t["observed"].get
    scans = calls("bounds.k_iota_from_psi", 0)
    sample_steps = obs("family_sample_steps", 0)
    return {
        "bounds.k_iota_scan_s": total("bounds.k_iota_from_psi", 0.0),
        "bounds.psi_evals": counts("bounds.psi", 0),
        "bounds.k_iota_found_frac": obs("k_iota_found", 0) / scans if scans else 0.0,
        "bounds.self_s": self_s["bounds"],
        "problems.estimate_constants_s": total("problems.estimate_constants", 0.0),
        "problems.build_s": sum(total(f, 0.0) for f in tracer.FACTORIES),
        "problems.hessian_evals": counts("problems.hessian", 0),
        "problems.gradient_evals": counts("problems.gradient", 0),
        "problems.self_s": self_s["problems"],
        "approx.sample_family_s": total("approx.sample_family", 0.0),
        "approx.family_useful_frac": (
            obs("family_useful_steps", 0) / sample_steps if sample_steps else 0.0
        ),
        "approx.reference_coefficients_s": total("approx.reference_coefficients", 0.0),
        "approx.coefficients_at_calls": calls("approx.coefficients_at", 0),
        "approx.eps_trajectory_s": total("approx.eps_trajectory", 0.0),
        "approx.self_s": self_s["approx"],
        "perturb.dhd_calls": calls("perturb.directional_hessian_derivative", 0),
        "perturb.self_s": self_s["perturb"],
        "simulate.gd_run_s": total("simulate.gd_run", 0.0),
        "simulate.gd_steps": obs("gd_steps", 0),
        "simulate.gd_budget_steps": obs("gd_budget_steps", 0),
        "simulate.self_s": self_s["simulate"],
        "spectral.decompose_calls": calls("spectral.decompose", 0),
        "spectral.self_s": self_s["spectral"],
        "cli.emit_s": total("cli.emit", 0.0),
        "cli.csv_rows": rep["csv_rows"],
        "cli.bytes_written": rep["bytes_written"],
        "cli.self_s": self_s["cli"],
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    rows = [_layer_metrics(r) for r in traced if "trace" in r]
    if not rows:
        raise RuntimeError("no traced command completed")
    metrics = {name: statistics.median([row[name] for row in rows]) for name in rows[0]}
    wall = statistics.median([r["wall_s"] for r in untraced])
    metrics["trace.overhead_frac"] = statistics.median([r["wall_s"] for r in traced]) / wall - 1.0
    return metrics


def self_time_gap(rep: dict) -> float:
    """|sum of layer self_s - wall of cli.main| as a share of that wall."""
    t = rep["trace"]
    return abs(sum(layer_times(t)[2].values()) - t["main_wall_s"]) / t["main_wall_s"]


def provenance(runner: Runner) -> dict:
    work = Path(tempfile.mkdtemp(dir=runner.work))
    try:
        (work / "probe.py").write_text(PROBE_SNIPPET)
        with open(work / "probe.json", "w") as fh:
            proc = subprocess.run(
                [sys.executable, "probe.py"], cwd=work, env=runner.env,
                stdout=fh, stderr=subprocess.PIPE, timeout=60,
            )
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import saddlesim from {SRC}: {proc.stderr[-400:]!r}")
        info = json.loads((work / "probe.json").read_text())
    finally:
        shutil.rmtree(work)
    if Path(info["saddlesim_file"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"saddlesim imported from {info['saddlesim_file']}, not {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "saddlesim").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "nproc": os.cpu_count(),
        "python": info["python"],
        "numpy": info["numpy"],
        "blas": info["blas"],
        "platform": platform.platform(),
        "pinned_threads": {var: "1" for var in THREAD_VARS},
    }


def stored_digests(workload: str, seed: int) -> dict | None:
    if not BASELINE.exists():
        return None
    doc = json.loads(BASELINE.read_text())
    return doc.get("artifacts_sha256", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "saddlesim" / "cli.py").is_file():
        print(f"error: no saddlesim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    # The output checks import saddlesim here, in the benchmark process.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = Runner(work, time.monotonic() + CHILD_DEADLINE_S)
        info = provenance(runner)
        session = Session(workloads.WORKLOADS[args.workload], args.seed, runner)
        setup = session.setup_times()
        if args.trace:
            reps = session.reps((False, True), args.seconds, MIN_TRACE_CYCLES)
            untraced = [r for r in reps if not r["traced"]]
            traced = [r for r in reps if r["traced"]]
            metrics = per_layer(untraced, traced)
            gaps = [self_time_gap(r) for r in traced if "trace" in r]
        else:
            untraced = session.reps((False,), args.seconds, MIN_REPS, reference=True)
            traced, gaps = [], []
            metrics = end_to_end(setup, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    baseline = stored_digests(args.workload, args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "config": session.config,
        "commands": len(untraced) + len(traced),
        "fail_frac": session.failed / session.attempted,
        "failures": session.failures[:20],
        "artifacts_sha256": session.digests,
        "artifacts_changed": None if baseline is None else baseline != session.digests,
        "raw": None if args.trace else raw_seconds(untraced),
        "wall_s_per_command": [r["wall_s"] for r in untraced],
        "ref_s_per_command": [r.get("ref_s") for r in untraced],
        "traced_wall_s_per_command": [r["wall_s"] for r in traced],
        "self_time_gap_max": max(gaps) if gaps else None,
        "setup_s_per_probe": setup,
        "provenance": info,
    }
    print(f"workload {args.workload} seed {args.seed}: {report['commands']} commands, "
          f"{session.attempted} runs attempted, {session.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for name, value in (report["raw"] or {}).items():
        print(f"  {name:34s} {value:14.6g} {'1/s' if name == 'runs_per_s' else 's'} (raw)")
    print(f"  {'fail_frac':34s} {report['fail_frac']:14.6g} ratio")
    print("report " + json.dumps(report, sort_keys=True))
    correct = session.failed == 0 and all(gap < SELF_TIME_TOLERANCE for gap in gaps)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
