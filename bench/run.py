"""satmargin benchmark: one seeded workload, timed, checked, reported as JSON.

    python3 bench/run.py --workload horn_lp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; satmargin is imported from its
``src/`` directory and nothing is installed.  Workloads and the reasons for
them are listed in BENCHMARK.json and described in ``workloads.py``.

With ``--trace 0`` the run reports the end-to-end metrics.  It runs whole
passes over the instance set, single-threaded and in a closed loop, while
the next pass still fits in ``--seconds`` of busy time, and times each
instance on its own.  An instance's time is its fastest pass (see
``Runs.per_instance``); ``instances_per_s`` is the instance count over the
sum of those times, and ``instance_tail_s`` the highest percentile of them
with at least ten instances beyond it.  ``setup_s`` is the median wall time
of ``import satmargin`` in fresh interpreters, sampled before the first pass
and after each.  ``correct_frac`` is 1 - error_frac: the share of instance
runs whose answer passed its check without an unexpected exception.
``within_limit_frac`` is 1 - limit_frac: the share that finished without
hitting a configured limit (``RowBlowupError``).

With ``--trace 1`` each instance runs untraced and traced back to back (see
``tracing.py``), one in-process ``satmargin.cli.main`` call is made for the
workload, and the run reports the per-layer metrics: per-pass time totals
(median over the traced passes), counters, which must repeat exactly
between passes and between runs with the same seed, and the tracing
overhead.  The spans go to ``bench/out/trace-<workload>-<seed>.json``.
Metrics of layers a workload never calls read 0.

Answers are checked outside the timed region: each instance's first answer
against an independent reference, later ones against the first.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PER_GAP = 1  # import probes before the first pass and after each
TAIL_BEYOND = 10
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import satmargin; "
                "print(time.perf_counter() - t)")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_satmargin():
    if not (SRC / "satmargin" / "__init__.py").is_file():
        fail(f"no satmargin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import satmargin
    if Path(satmargin.__file__).resolve().parent != SRC / "satmargin":
        fail(f"imported satmargin from {satmargin.__file__}, not from {SRC}")
    return satmargin


def import_seconds() -> float:
    """Wall time of ``import satmargin`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


class Runs:
    """Per-instance times and outcomes over the passes of one run."""

    def __init__(self, workload, instances):
        self.w = workload
        self.instances = instances
        self.times = [[] for _ in instances]
        self.first = {}          # id -> (outcome, fingerprint of its answer)
        self.sample = None       # (instance, answer): the first answer, for the cli call
        self.wrong = set()       # ids whose first answer failed its check
        self.attempted = self.failed = self.limits = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One pass over the instances; returns (untraced, traced) busy
        seconds.  With a tracer each instance runs twice back to back,
        untraced and traced in alternating order, so that the tracing
        overhead is measured on the same work."""
        busy = [0.0, 0.0]
        for inst in self.instances:
            modes = (None,) if tracer is None else \
                ((None, tracer) if inst.id % 2 else (tracer, None))
            for t in modes:
                outcome, dt = self.run_one(inst, t)
                busy[t is not None] += dt
                self.times[inst.id].append(dt)
                self.record(inst, outcome)
        return busy[0], busy[1]

    def run_one(self, inst, tracer):
        from satmargin.elimination import RowBlowupError
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.w.run(inst)
            else:
                tracer.instance = inst.id
                with tracer.installed(), tracer.span(f"{self.w.name}.instance"):
                    out = self.w.run(inst)
            dt = perf_counter() - t0
            return ("ok", self.w.answer(out)), dt
        except RowBlowupError:
            return ("limit",), perf_counter() - t0
        except Exception:  # counted as a failed instance, reported below
            dt = perf_counter() - t0
            self.note(f"instance {inst.id} raised:\n{traceback.format_exc()}")
            return ("error",), dt

    def note(self, message: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(message)

    def record(self, inst, outcome) -> None:
        """Check an instance's first answer against the reference and later
        ones against the first; runs between instances, outside the timers."""
        kind, answer = outcome[0], outcome[1] if len(outcome) > 1 else None
        printed = (kind, answer if answer is None else self.w.fingerprint(answer))
        ref = self.first.setdefault(inst.id, printed)
        if ref is printed:
            if self.sample is None and answer is not None:
                self.sample = (inst, answer)
            problem = answer is not None and self.w.check(inst, answer)
            if problem:
                self.wrong.add(inst.id)
                self.note(f"instance {inst.id} ({inst.kind} {inst.size}): {problem}")
        elif printed != ref:
            self.note(f"instance {inst.id}: answer changed between runs")
        self.attempted += 1
        self.limits += kind == "limit"
        if kind == "error" or inst.id in self.wrong or printed != ref:
            self.failed += 1

    def per_instance(self) -> list[float]:
        """Each instance's fastest pass.  On a shared host the speed of a
        core drifts by up to half for seconds at a time, and the fastest of
        passes spread over the run is the estimate that drift disturbs least."""
        return [min(t) for t in self.times]


def tail(values: list[float]) -> tuple[float, float]:
    """Value with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        fail(f"{len(ordered)} instances leave no tail with {TAIL_BEYOND} beyond")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(repr((inst.id, inst.kind, inst.size, inst.data)).encode())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def cli_seconds(workload, runs) -> tuple[float, bool]:
    """One in-process ``satmargin.cli.main`` call on the first instance that
    was answered, compared with the library's answer for it."""
    from satmargin import cli
    if runs.sample is None:
        return 0.0, False
    OUT.mkdir(exist_ok=True)
    argv, matches = workload.cli(*runs.sample, str(OUT / f"cli-{workload.name}.in"))
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return perf_counter() - t0, matches(code, buf.getvalue())


def passes(run_pass, seconds: float, between=None) -> list:
    """Whole passes while the next one fits in the measured time, at least
    one; ``between`` runs before the first pass and after each.  Passes take
    turns on the CPUs the process may use (it stays single-threaded): a
    shared host slows one core at a time, so an instance's fastest pass is
    then likely to have run on a core that was not slowed."""
    cpus = sorted(os.sched_getaffinity(0))
    results, busy, last = [], 0.0, 0.0
    try:
        while not results or busy + last <= seconds:
            os.sched_setaffinity(0, {cpus[len(results) % len(cpus)]})
            if between:
                between()
            results.append(run_pass())
            last = sum(results[-1])
            busy += last
        if between:
            between()
    finally:
        os.sched_setaffinity(0, cpus)
    return results


def end_to_end(workload, instances, seconds: float):
    runs = Runs(workload, instances)
    import_seconds()  # writes the bytecode caches; not counted
    setup = []

    def sample_setup():  # spread over the run, outside the timed passes
        setup.extend(import_seconds() for _ in range(SETUP_PER_GAP))
    busy = passes(runs.run_pass, seconds, sample_setup)
    per_inst = runs.per_instance()
    tail_value, pct = tail(per_inst)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "instances_per_s": (len(per_inst) / sum(per_inst), "1/s"),
        "instance_p50_s": (statistics.median(per_inst), "s"),
        "instance_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_frac": (1 - runs.failed / runs.attempted, "frac"),
        "within_limit_frac": (1 - runs.limits / runs.attempted, "frac"),
    }
    print(f"{workload.name}: {len(instances)} instances x {len(busy)} passes, "
          f"{sum(b[0] for b in busy):.2f} s busy; instance_tail_s is p{pct:.2f} of "
          f"{len(per_inst)} per-instance times; {len(setup)} setup samples, "
          f"{min(setup):.4f} to {max(setup):.4f} s")
    return runs, metrics, runs.failed == 0


def per_layer(workload, instances, seconds: float, seed: int):
    from tracing import Tracer, pass_metrics
    runs = Runs(workload, instances)
    tracers = []

    def paired_pass():
        tracers.append(Tracer())
        return runs.run_pass(tracers[-1])
    busy = passes(paired_pass, seconds)
    untraced = statistics.median(b[0] for b in busy)
    traced = statistics.median(b[1] for b in busy)
    per_pass = [pass_metrics(t.spans) for t in tracers]
    counters = per_pass[0][1]
    steady = all(c == counters for _, c in per_pass)
    if not steady:
        runs.note("counters differ between traced passes")
    cli_s, cli_ok = cli_seconds(workload, runs)
    if not cli_ok:
        runs.note("cli output differs from the library answer")

    metrics = {k: (statistics.median(t[k] for t, _ in per_pass), "s")
               for k in per_pass[0][0]}
    for k, v in counters.items():
        metrics[k] = (v, "frac" if k.endswith("_frac") else "count")
    for k, name in (("cli.solve_horn_s", "horn_lp"), ("cli.eliminate_s", "fm_random"),
                    ("cli.margin_s", "chain_margin")):
        metrics[k] = (cli_s if workload.name == name else 0.0, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "frac")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload.name}-{seed}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "instances": digest(instances), "environment": environment(),
                   "busy_s": {"untraced": [b[0] for b in busy],
                              "traced": [b[1] for b in busy]},
                   "columns": ["name", "start", "end", "parent", "instance", "counts"],
                   "passes": [[[s.name, s.start, s.end, s.parent, s.instance, s.counts]
                               for s in t.spans] for t in tracers]}, fh)
    print(f"{workload.name}: {len(busy)} paired passes, untraced {untraced:.3f} s, "
          f"traced {traced:.3f} s; counters {'repeat' if steady else 'DIFFER'}; "
          f"cli {'matches' if cli_ok else 'DIFFERS'}")
    return runs, metrics, runs.failed == 0 and steady and cli_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    t0 = perf_counter()
    import_satmargin()
    import_s = perf_counter() - t0
    from satmargin.elimination import RowBlowupError
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    instances = workload.make(args.seed)
    print(f"{workload.name}: seed {args.seed}, instance set {digest(instances)}, "
          f"in-process import {import_s:.4f} s, {json.dumps(environment())}")
    try:  # warm-up: first-call costs are not the workload's
        workload.run(instances[0])
    except RowBlowupError:
        pass
    # The instance set lives for the whole run; keep the collector from
    # walking it on every full collection inside the timed passes.
    gc.collect()
    gc.freeze()
    if args.trace:
        runs, metrics, ok = per_layer(workload, instances, args.seconds, args.seed)
        declared = spec["per_layer"]
    else:
        runs, metrics, ok = end_to_end(workload, instances, args.seconds)
        declared = spec["end_to_end"]

    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: unit for k, (_, unit) in metrics.items()}
    if got != expected:
        fail(f"metrics {sorted(set(got) ^ set(expected))} do not match BENCHMARK.json")
    for message in runs.problems:
        print(f"PROBLEM {message}", file=sys.stderr)
    print(json.dumps({"correct": ok, "attempted": runs.attempted,
                      "failed": runs.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
