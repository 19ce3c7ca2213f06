"""Benchmark of the crossbandit simulator.

    python3 perfbench/run.py --workload sweep|wide|outputs|all --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the repository root. Each workload runs in its own single-threaded
process (``all`` starts one per workload, one after another) and imports
crossbandit from ``src/``.

``--trace 0`` measures the end-to-end metrics: it repeats the workload's job
until ``--seconds`` have passed (at least three times) and reports medians
over the jobs, and it times set-up in fresh probe processes. ``--trace 1``
wraps every layer boundary (see ``spans.py``) and reports per-layer metrics
from one traced job, together with the tracing overhead.

Every job's outputs are checked (see ``workloads.check_job``); the traced run
also checks the span tree and that its exact counts repeat. The last line of
standard output is one JSON object: ``correct``, ``attempted`` (checks made),
``failed`` (checks failed) and ``metrics`` (name -> value and unit).
``--tiny`` shrinks every horizon for the smoke test; its numbers are not
comparable with full-size runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sweep", "wide", "outputs")
# Pinned before numpy loads: numpy links a threaded OpenBLAS, and the harness
# reads CROSSBANDIT_WORKERS to start a process pool.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "CROSSBANDIT_WORKERS": "1"}
SETUP_PROBES = 7
MIN_JOBS = 3
CHILD_TIMEOUT_S = 170


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every horizon (smoke test only)")
    # Internal: time one fresh process up to its first run call.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _child_argv(args, workload: str, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    return argv + (["--tiny"] if args.tiny else [])


def _environment(args) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "tiny": args.tiny, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "pinned": PINNED_ENV}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup_probe(args) -> float:
    """Seconds from spawning a fresh process to the point where it would make
    its first run call. perf_counter is CLOCK_MONOTONIC on Linux, one clock for
    every process, so the child's reading is comparable with the parent's."""
    t0 = perf_counter()
    done = subprocess.run(_child_argv(args, args.workload, "--setup-probe"),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def _measure(args, wl, workloads, work: Path) -> tuple[dict, list[str], object]:
    from metrics import END_TO_END

    inis = workloads.prepare(wl, args.seed, work / "inputs", tiny=args.tiny)
    setups = []
    checks = workloads.Checks()
    reference = None
    steps = []
    t_begin = perf_counter()
    while len(steps) < MIN_JOBS or perf_counter() - t_begin < args.seconds:
        # Set-up probes are spread over the run, so that their median does not
        # rest on one moment of the host's load.
        if perf_counter() - t_begin >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(_setup_probe(args))
        out = work / f"job{len(steps)}"
        job = workloads.run_job(wl, inis, out)
        workloads.check_job(wl, job, reference, checks)
        if reference is None:
            reference = job
        else:
            shutil.rmtree(out)
        steps.append(job.steps())
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_probe(args))
    # Each timed step (a config's parse, run and writes) takes its median over
    # the run's jobs, and the job metrics are sums of those medians. On a
    # shared host the speed drifts over seconds; the median of many short
    # repeats follows the host's typical state during the run.
    per_step = {kind: [statistics.median(col) for col in zip(*(s[kind] for s in steps))]
                for kind in steps[0]}
    values = {"wall_s": sum(map(sum, per_step.values())), "output_s": sum(per_step["output"])}
    for algo in workloads.ALGOS:
        runs = [i for i, r in enumerate(reference.runs) if r.config.algo == algo]
        rounds = sum(reference.runs[i].config.horizon * reference.runs[i].config.replicates
                     for i in runs)
        values[f"rounds_per_s.{algo}"] = rounds / sum(per_step["run"][i] for i in runs)
    walls = [sum(sum(v) for v in s.values()) for s in steps]
    lines = [f"jobs {len(steps)} (median job {statistics.median(walls):.6g} s); "
             f"setup probes {len(setups)}"]
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {m.name: _metric(values[m.name], m.unit) for m in END_TO_END}
    lines += [f"{m.name} = {values[m.name]:.6g} {m.unit}  ({m.meaning})" for m in END_TO_END]
    return metrics, lines, checks


def _trace(args, wl, workloads, work: Path) -> tuple[dict, list[str], object]:
    from metrics import PER_LAYER
    import spans

    inis = workloads.prepare(wl, args.seed, work / "inputs", tiny=args.tiny)
    inis_next = workloads.prepare(wl, args.seed + 1, work / "inputs-next", tiny=args.tiny)
    checks = workloads.Checks()
    tracer = spans.Tracer()

    def traced(inputs, name):
        tracer.install()
        try:
            job, profile = tracer.trace(workloads.run_job, wl, inputs, work / name)
        finally:
            tracer.uninstall()
        return job, profile

    # Traced and untraced jobs alternate, and the overhead compares the
    # fastest of each, so that a slow moment of the host does not land on one
    # side only.
    first, p_first = traced(inis, "traced0")
    workloads.check_job(wl, first, None, checks)
    plain = [workloads.run_job(wl, inis, work / "plain0")]
    workloads.check_job(wl, plain[0], first, checks)
    job, profile = traced(inis, "traced1")
    workloads.check_job(wl, job, first, checks)
    plain.append(workloads.run_job(wl, inis, work / "plain1"))
    workloads.check_job(wl, plain[1], first, checks)
    other, p_other = traced(inis_next, "traced2")
    workloads.check_job(wl, other, None, checks)
    traced_s = min(first.wall_s, job.wall_s)
    plain_s = min(p.wall_s for p in plain)

    for name in tracer.boundary_names:
        checks.expect(profile.calls[name] >= 1,
                      f"coverage: no call recorded at {name}; a caller bypasses the wrapper")
    for p in (p_first, profile, p_other):
        err = p.closure_error()
        checks.expect(err is None, f"closure: {err}")
    counts = profile.exact_counts()
    checks.expect(p_first.exact_counts() == counts,
                  "exact counts differ between two traced jobs at the same seed")
    shape_counts = {k: v for k, v in counts.items() if k not in wl.seed_dependent_counts}
    other_counts = {k: v for k, v in p_other.exact_counts().items()
                    if k not in wl.seed_dependent_counts}
    differ = sorted(k for k in shape_counts if shape_counts[k] != other_counts.get(k))
    checks.expect(not differ, f"exact counts change with the seed: {differ}")
    profile.save(WORK / f"spans-{wl.name}.npz")

    metrics = {}
    for m in PER_LAYER:
        if m.name == "trace.overhead_s":
            value = traced_s - plain_s
        else:
            span, kind = m.name.rsplit(".", 1)
            value = {"calls": profile.calls.get(span, 0),
                     "self_s": profile.self_s.get(span, 0.0),
                     "s": profile.inclusive_s.get(span, 0.0)}.get(kind)
            if value is None:
                value = profile.counters.get(m.name, 0)
        metrics[m.name] = _metric(value, m.unit)
    lines = [f"fastest traced job {traced_s:.6g} s, untraced {plain_s:.6g} s; "
             f"spans written to {WORK / f'spans-{wl.name}.npz'}"]
    lines += [f"{m.name} = {metrics[m.name]['value']:.6g} {m.unit}  (moves {m.moves}; "
              f"carries on {m.carries}, idle on {m.idle})" for m in PER_LAYER]
    return metrics, lines, checks


def _run_all(args) -> int:
    """Each workload in its own fresh process; merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(_child_argv(args, name), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        if done.returncode != 0 or not out:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        for line in out[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(out[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update((f"{name}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.update(PINNED_ENV)
    if not (SRC / "crossbandit" / "__init__.py").is_file():
        print(f"error: crossbandit sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = WORK / f"work-{wl.name}-{os.getpid()}"
    try:
        if args.setup_probe:
            for ini in workloads.prepare(wl, args.seed, work, tiny=args.tiny):
                workloads.cb_config.parse_config(ini)
            print(repr(perf_counter()))
            return 0
        metrics, lines, checks = (_trace if args.trace else _measure)(args, wl, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    lines.insert(0, "env " + json.dumps(_environment(args), sort_keys=True))
    lines.append(f"checks: {checks.failed} of {checks.attempted} failed "
                 f"(failed_frac {checks.failed / checks.attempted:.6g})")
    print("\n".join(lines))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
