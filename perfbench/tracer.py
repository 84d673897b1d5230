"""Run one saddlesim CLI command in-process with every layer traced.

    python3 perfbench/tracer.py TRACE_JSON -- <saddlesim cli arguments>

The layers are saddlesim's modules.  Every public function a module defines
is wrapped and rebound at each module-level name that refers to it, so calls
through imports (approx.directional_hessian_derivative, simulate.decompose)
and through module globals (the bounds.psi that the k_iota scan calls) are
all seen.  Problem callables are reached by wrapping the problems factories.

Coarse calls become spans: (id, parent id, name, start, end, child_s),
kept in memory and written with the trace.  Hot calls are not spans: psi
and the problem callables are only counted, and each call to a function in
HOT adds its time to its parent's child_s and to one aggregate per name.
run.py derives a layer's self time from these records as span time minus
child time, so the self times of all layers add up to the wall time of
cli.main.  Nothing under src/ is changed.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "problems", "bounds", "approx", "perturb", "simulate", "spectral")
COUNT_ONLY = {"bounds.psi"}
HOT = {
    "perturb.directional_hessian_derivative",
    "perturb.fd_step",
    "approx.coefficients_at",
}
FACTORIES = {"problems.phase_retrieval", "problems.cubic_test", "problems.quadratic_saddle"}
PROBLEM_CALLABLES = ("value", "gradient", "hessian")


class _Frame:
    __slots__ = ("span_id", "parent", "name", "child_s")

    def __init__(self, span_id, parent, name):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, child_s)
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total_s, self_s
        self.counts: Counter = Counter()
        self.observed: Counter = Counter()
        self._next_id = 0

    def call(self, fn, name, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(self._next_id, parent.span_id if parent else None, name)
        self._next_id += 1
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dur = end - start
            if parent is not None:
                parent.child_s += dur
            if name in HOT:
                agg = self.hot[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame.child_s
            else:
                self.spans.append(
                    (frame.span_id, frame.parent, name, start, end, frame.child_s)
                )
        self._observe(name, out)
        return out

    def _observe(self, name, out):
        """Counters read off return values (a raised call is not observed)."""
        if name == "bounds.k_iota_from_psi":
            self.observed["k_iota_found"] += 1
        elif name == "simulate.gd_run":
            self.observed["gd_steps"] += int(out.norms.size) - 1
            self.observed["gd_budget_steps"] += int(out.budget)
        elif name == "approx.sample_family":
            exits = out.sampled_exit_times
            self.observed["family_useful_steps"] += float(
                sum(min(float(e), out.k_max) for e in exits)
            )
            self.observed["family_sample_steps"] += out.n_samples * out.k_max

    def timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(fn, name, args, kwargs)

        return wrapper

    def counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def factory(self, fn, name):
        timed = self.timed(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            problem = timed(*args, **kwargs)
            return dataclasses.replace(
                problem,
                **{
                    attr: self.counted(getattr(problem, attr), f"problems.{attr}")
                    for attr in PROBLEM_CALLABLES
                },
            )

        return wrapper


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap saddlesim's public functions at every module-level binding."""
    import importlib

    import saddlesim

    modules = {layer: importlib.import_module(f"saddlesim.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                wrappers[obj] = tracer.counted(obj, name)
            elif name in FACTORIES:
                wrappers[obj] = tracer.factory(obj, name)
            else:
                wrappers[obj] = tracer.timed(obj, name)
    for mod in (saddlesim, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    return modules


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <saddlesim cli arguments>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = install(tracer)["cli"]
    start = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - start
    doc = {
        "main_wall_s": wall,
        "counts": dict(tracer.counts),
        "observed": dict(tracer.observed),
        "hot": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in tracer.hot.items()},
        "spans": tracer.spans,
    }
    with open(trace_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
