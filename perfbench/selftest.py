"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

Runs small versions of the workloads through the same Session code the
benchmark uses and shows that
  * a clean command scores no failures, and each kind of corrupted artifact
    (or a command that exits non-zero) raises fail_frac;
  * in a traced command, the layers' self_s add up to the wall time of
    cli.main (the CLI's own uncovered time is cli.self_s), and the traced
    artifacts are byte-identical to the untraced ones.
Exits 0 when every case passes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads

SMALL = {
    "cubic-csv": {"seeds": [0], "estimate_samples": 300},
    "family-n60": {"problem": {"kind": "phase_retrieval", "n": 8}, "k_max": 200,
                   "n_samples": 4, "estimate_samples": 300},
    "approx-n60": {"problem": {"kind": "phase_retrieval", "n": 8}},
}


def small(name: str) -> workloads.Workload:
    base = workloads.WORKLOADS[name]
    return dataclasses.replace(base, make_config=lambda s: {**base.make_config(s), **SMALL[name]})


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc["runs"][0])
    path.write_text(json.dumps(doc))


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _drop_csv_row(path: Path, index: int) -> None:
    _edit_csv(path, lambda rows: rows.pop(index))


def _double_start_radius(rows: list[list[str]]) -> None:
    col = rows[0].index("radial_norm")
    rows[1][col] = repr(2.0 * float(rows[1][col]))


# workload -> corruption name -> edit applied to the command's output dir
CORRUPTIONS = {
    "cubic-csv": {
        "first_exit_k off by one": lambda out: _edit_json(
            out / "cubic_summary.json", lambda r: r.update(first_exit_k=r["first_exit_k"] + 1)),
        "k_iota moved": lambda out: _edit_json(
            out / "cubic_summary.json", lambda r: r.update(k_iota=(r["k_iota"] or 1) + 1)),
        "csv row dropped": lambda out: _drop_csv_row(out / "cubic_runs.csv", 2),
        "start radius off the sphere": lambda out: _edit_csv(
            out / "cubic_runs.csv", _double_start_radius),
        "summary deleted": lambda out: (out / "cubic_summary.json").unlink(),
    },
    "family-n60": {
        "sup_exit changed": lambda out: _edit_json(
            out / "family_family.json", lambda r: r.update(sup_exit=r["sup_exit"] + 1)),
        "sample row dropped": lambda out: _drop_csv_row(out / "family_family.csv", 1),
    },
    "approx-n60": {
        "max_rel_error too large": lambda out: _edit_json(
            out / "approx_approx.json", lambda r: r.update(max_rel_error=1e-3)),
        "steps_compared changed": lambda out: _edit_json(
            out / "approx_approx.json", lambda r: r.update(steps_compared=r["steps_compared"] - 1)),
        "run row removed": lambda out: (out / "approx_approx.json").write_text('{"runs": []}'),
    },
}


class CorruptingRunner(run.Runner):
    """Runs the real command, then applies `corrupt` to its artifacts."""

    def __init__(self, work, deadline, corrupt):
        super().__init__(work, deadline)
        self.corrupt = corrupt

    def spawn(self, args, cwd):
        result = super().spawn(args, cwd)
        if (cwd / "out").is_dir():
            self.corrupt(cwd / "out")
        return result


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    deadline = time.monotonic() + 600
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    try:
        for name, cases in CORRUPTIONS.items():
            workload = small(name)
            clean = run.Session(workload, 0, run.Runner(work, deadline))
            clean.rep(traced=False)
            expect(clean.failed == 0, f"{name}: clean command has fail_frac 0 {clean.failures}")
            for case, corrupt in cases.items():
                session = run.Session(workload, 0, CorruptingRunner(work, deadline, corrupt))
                session.rep(traced=False)
                expect(session.failed > 0,
                       f"{name}: {case} gives fail_frac {session.failed}/{session.attempted}")

        session = run.Session(small("cubic-csv"), 0, run.Runner(work, deadline))
        session.config["problem"] = {"kind": "no-such-kind"}
        session.rep(traced=False)
        expect(session.failed == session.attempted, "a command exiting non-zero fails every run")

        for name in CORRUPTIONS:
            session = run.Session(small(name), 0, run.Runner(work, deadline))
            session.rep(traced=False)
            rep = session.rep(traced=True)
            gap = run.self_time_gap(rep)
            t = rep["trace"]
            total = sum(run.layer_times(t)[2].values())
            expect(gap < run.SELF_TIME_TOLERANCE,
                   f"{name}: layer self_s sum to {total:.6f} s, cli.main wall "
                   f"{t['main_wall_s']:.6f} s (gap {gap:.2e})")
            expect(session.failed == 0, f"{name}: traced artifacts match the untraced ones")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
