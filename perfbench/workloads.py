"""The benchmark's workloads: inputs, one job, and the checks on its outputs.

A job is what a user does with ``crossbandit run -c cfg.ini -o dir`` for each
of the workload's INI files, called through the public functions in the
order the CLI uses: ``parse_config``, ``run``, then the three writers. Every
workload runs the three regret algorithms; the epoch learner always runs
with per-epoch diagnostics on. The workloads differ in shape:

* ``sweep``: the shape of the slowest acceptance checks. Many small,
  identically shaped replicates on ``cliques:4x4`` with M=8 and a doubling
  horizon sweep, so per-round Python overhead dominates.
* ``wide``: one long replicate per algorithm with M=256 on a 48-arm
  Erdos-Renyi graph, so the (M, K) kernels dominate and there is nothing to
  batch across replicates.
* ``outputs``: the reference config with full traces, so per-round policy
  recording, NDJSON serialisation and the curves' second oracle pass weigh
  as much as the simulation.
"""

from __future__ import annotations

import filecmp
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from crossbandit import config as cb_config
from crossbandit import harness
from crossbandit.graph import GraphSpec, build_graph
from crossbandit.unknown import tuned_schedule

ALGOS = ("known", "unknown", "per_context_exp3g")

# The horizon-scaling window of the paper's T^(1/2) claim. At the sweep's
# horizons (at most 2^12) only the known-distribution learner has reached it:
# over seeds 0-15 with two replicates its slope measured 0.46-0.56, the epoch
# learner's 0.67-0.88 and the per-context baseline's 0.82-0.95 (acceptance
# check 06 asserts the window for the epoch learner at 2^12-2^16 with 20
# replicates). So the sweep asserts the window for the known-distribution
# learner, sublinear growth for the epoch learner, and for every algorithm
# that it learns: its regret at the longest horizon stays below LEARNS_SHARE
# of uniform play's. Over seeds 0-13 that share measured 0.26-0.33, 0.63-0.77
# and 0.77-0.83 for the three.
PAPER_WINDOW = (0.35, 0.65)
SUBLINEAR_WINDOW = (0.35, 0.95)
LEARNS_SHARE = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str                  # graph spec text
    graph_seed: int | None      # draw the graph once with this seed, then fix it
    contexts: int
    horizons: tuple[int, ...]
    tiny_horizons: tuple[int, ...]
    replicates: int
    trace_level: str
    unknown_params: str         # "tuned": acceptance's manual schedule; "auto"
    slope_windows: dict[str, tuple[float, float]] | None   # also turns on the learns check
    # Exact counts that legitimately change with the seed: diagnostics read a
    # loss row only for loss rounds that used some arm, and on an irregular
    # graph the revealed cells depend on which arms were played.
    seed_dependent_counts: tuple[str, ...]


WORKLOADS = {
    "sweep": Workload(
        name="sweep",
        why="tier-1 shape: many small identical replicates, per-round Python "
            "overhead dominates; replicate batching and loop cuts show here",
        graph="cliques:4x4", graph_seed=None, contexts=8,
        horizons=(2 ** 10, 2 ** 11, 2 ** 12), tiny_horizons=(128, 256, 512),
        replicates=2, trace_level="light", unknown_params="tuned",
        slope_windows={"known": PAPER_WINDOW, "unknown": SUBLINEAR_WINDOW},
        seed_dependent_counts=("environment.loss_slice.calls",),
    ),
    "wide": Workload(
        name="wide",
        why="M=256 on a fixed 48-arm ER graph, one replicate: (M, K) kernels "
            "dominate and batching has nothing to batch",
        graph="er:48:0.1", graph_seed=0, contexts=256,
        horizons=(2048,), tiny_horizons=(256,),
        replicates=1, trace_level="light", unknown_params="auto",
        slope_windows=None,
        seed_dependent_counts=("environment.loss_slice.calls", "environment.reveal.cells"),
    ),
    "outputs": Workload(
        name="outputs",
        why="reference config with full traces: policy recording, NDJSON "
            "writing and the curves' second oracle pass weigh like simulation",
        graph="cliques:4x4", graph_seed=None, contexts=8,
        horizons=(4096,), tiny_horizons=(512,),
        replicates=2, trace_level="full", unknown_params="auto",
        slope_windows=None,
        seed_dependent_counts=("environment.loss_slice.calls",),
    ),
}


def _ini_text(wl: Workload, graph_spec: str, num_arms: int, alpha: int, algo: str,
              horizon: int, seed: int) -> str:
    lines = [
        "[run]", f"algo = {algo}", f"horizon = {horizon}", f"seed = {seed}",
        f"replicates = {wl.replicates}", "",
        "[graph]", f"spec = {graph_spec}", "",
        "[env]", f"contexts = {wl.contexts}", "nu = uniform", "oracle = stochastic_gap",
        "gap = 0.2", "base = 0.4", "best_stride = 5", "",
    ]
    if algo == "unknown":
        if wl.unknown_params == "tuned":
            s = tuned_schedule(num_arms, horizon, alpha)
            lines += ["[params]", "mode = manual", f"epoch_len = {s.epoch_len}",
                      f"eta = {s.eta!r}", f"gamma = {s.gamma!r}", f"iota = {s.iota!r}", ""]
        else:
            lines += ["[params]", "mode = auto", "tuned_scale = 0.02", ""]
    lines += ["[output]", f"trace = {wl.trace_level}",
              f"diagnostics = {'true' if algo == 'unknown' else 'false'}", ""]
    return "\n".join(lines)


def prepare(wl: Workload, seed: int, directory: Path, tiny: bool = False) -> list[Path]:
    """Write the workload's INI files (and its fixed graph) for one seed."""
    directory.mkdir(parents=True, exist_ok=True)
    spec = GraphSpec.parse(wl.graph)
    graph = build_graph(spec, rng_seed=wl.graph_seed or 0)
    graph_spec = wl.graph
    if wl.graph_seed is not None:
        adjacency = directory / "graph.txt"
        adjacency.write_text("".join(" ".join(map(str, ns)) + "\n"
                                     for ns in graph.out_neighbors))
        graph_spec = f"custom:{adjacency}"
    paths = []
    for algo in ALGOS:
        for horizon in (wl.tiny_horizons if tiny else wl.horizons):
            path = directory / f"{algo}_T{horizon}.ini"
            path.write_text(_ini_text(wl, graph_spec, graph.num_arms, graph.alpha,
                                      algo, horizon, seed))
            paths.append(path)
    return paths


@dataclass
class RunRecord:
    ini: Path
    config: harness.RunConfig
    result: harness.RunResult
    parse_s: float
    run_s: float
    output_s: float


@dataclass
class JobRecord:
    wall_s: float
    runs: list[RunRecord]
    fits: dict[str, harness.ScalingFit]

    def steps(self) -> dict[str, list[float]]:
        """Seconds of each timed step, one entry per config in job order."""
        return {"parse": [r.parse_s for r in self.runs], "run": [r.run_s for r in self.runs],
                "output": [r.output_s for r in self.runs],
                "rest": [self.wall_s - sum(r.parse_s + r.run_s + r.output_s for r in self.runs)]}

    def regrets(self) -> list[list[tuple[float, float]]]:
        return [[(s.expected, s.realized) for s in r.result.summaries] for r in self.runs]


def trace_path(outdir: Path, replicate: int) -> Path:
    """Where ``crossbandit run -o`` puts a replicate's NDJSON trace."""
    return outdir / f"trace_rep{replicate:03d}.ndjson"


def run_job(wl: Workload, inis: list[Path], outdir: Path) -> JobRecord:
    """One pass over the workload's configs, timed at the benchmark's call
    sites. Functions are looked up on their modules at call time so that the
    tracer's wrappers are the ones called."""
    t0 = perf_counter()
    runs = []
    for ini in inis:
        t1 = perf_counter()
        config = cb_config.parse_config(ini)
        config.output_dir = str(outdir / ini.stem)
        t2 = perf_counter()
        result = harness.run(config)
        t3 = perf_counter()
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for trace in result.traces:
            trace.write_ndjson(trace_path(out, trace.replicate))
        harness.write_report_json(result, out / "report.json")
        harness.write_curves_csv(result, out / "curves.csv")
        t4 = perf_counter()
        runs.append(RunRecord(ini=ini, config=config, result=result, parse_s=t2 - t1,
                              run_s=t3 - t2, output_s=t4 - t3))
    fits = {}
    if wl.slope_windows:
        for algo in ALGOS:
            points = [(r.config.horizon, r.result.mean_expected)
                      for r in runs if r.config.algo == algo]
            fits[algo] = harness.fit_scaling(points)
    return JobRecord(wall_s=perf_counter() - t0, runs=runs, fits=fits)


class Checks:
    """Tally of output checks; every check counts once towards ``attempted``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def _check_ndjson(path: Path, run: RunRecord, trace, checks: Checks) -> None:
    cfg, graph = run.config, run.result.graph
    records = [json.loads(line) for line in path.read_text().splitlines()]
    T, K = trace.horizon, graph.num_arms
    rounds = records[1:1 + T]
    epochs = records[1 + T:]
    meta = {"kind": "meta", "algo": cfg.algo, "seed": cfg.seed,
            "replicate": trace.replicate, "T": T, "M": cfg.num_contexts, "K": K}
    ok = (len(records) == 1 + T + len(trace.epochs) and records[0] == meta
          and [r["t"] for r in rounds] == list(range(T))
          and [r["c"] for r in rounds] == trace.contexts.tolist()
          and [r["a"] for r in rounds] == trace.arms.tolist()
          and all(e["kind"] == "epoch" for e in epochs))
    if ok and cfg.trace_level == "full":
        q = np.array([r["q"] for r in rounds])
        ok = q.shape == (T, K) and bool((q >= 0).all()) \
            and float(np.abs(q.sum(axis=1) - 1.0).max()) <= 1e-9
    if ok and cfg.diagnostics:
        ok = all(("F" in e) == (e["e"] >= 2) for e in epochs)
    checks.expect(ok, f"{path}: NDJSON trace does not match the run")


def _check_report(path: Path, run: RunRecord, checks: Checks) -> None:
    res, cfg = run.result, run.config
    doc = json.loads(path.read_text())
    ok = (doc["algo"] == cfg.algo and doc["seed"] == cfg.seed and doc["T"] == cfg.horizon
          and doc["M"] == cfg.num_contexts and doc["K"] == res.graph.num_arms
          and doc["alpha"] == res.graph.alpha and doc["replicates"] == len(res.summaries)
          and doc["mean_expected_regret"] == res.mean_expected
          and doc["mean_realized_regret"] == res.mean_realized
          and [(r["expected"], r["realized"]) for r in doc["per_replicate"]]
          == [(s.expected, s.realized) for s in res.summaries])
    checks.expect(ok, f"{path}: report.json disagrees with the RunResult")


def _check_curves(path: Path, run: RunRecord, checks: Checks) -> None:
    """One row per round and replicate; each replicate's curve ends at its
    regret summary (the curves come from a second pass over the oracle)."""
    T = run.config.horizon
    summaries = run.result.summaries
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    finals = [row for row in rows if row[2] == str(T - 1)]
    ok = len(rows) == T * len(summaries) and len(finals) == len(summaries) and all(
        _close(float(row[3]), s.expected) and _close(float(row[4]), s.realized)
        for row, s in zip(finals, summaries))
    checks.expect(ok, f"{path}: curves do not end at the regret summaries")


def _check_learns(job: JobRecord, checks: Checks) -> None:
    """Regret at the longest horizon stays well below uniform play's, whose
    expected-form regret on the gap oracle is gap * (K - 1) / K per round."""
    for algo in ALGOS:
        run = max((r for r in job.runs if r.config.algo == algo), key=lambda r: r.config.horizon)
        K, T = run.result.graph.num_arms, run.config.horizon
        uniform = run.config.oracle.gap * (K - 1) / K * T
        regret = run.result.mean_expected
        checks.expect(regret <= LEARNS_SHARE * uniform,
                      f"{algo}: regret {regret:.1f} at T={T} is not below "
                      f"{LEARNS_SHARE} of uniform play's {uniform:.1f}")


def check_job(wl: Workload, job: JobRecord, reference: JobRecord | None,
              checks: Checks) -> None:
    """Output checks of one job. A repeat of a job at the same seed
    (``reference``) must reproduce its regrets and its output files exactly;
    otherwise the outputs are checked one by one."""
    if reference is not None:
        checks.expect(job.regrets() == reference.regrets(),
                      "a repeated job at the same seed gave different regrets")
        for run, ref in zip(job.runs, reference.runs):
            out, ref_out = Path(run.config.output_dir), Path(ref.config.output_dir)
            names = sorted(p.name for p in ref_out.iterdir())
            same = sorted(p.name for p in out.iterdir()) == names and all(
                filecmp.cmp(out / name, ref_out / name, shallow=False) for name in names)
            checks.expect(same, f"{out}: outputs differ from the same job's first run")
        return
    for run in job.runs:
        tag = run.ini.stem
        for r, s in enumerate(run.result.summaries):
            finite = math.isfinite(s.expected) and math.isfinite(s.realized) \
                and bool(np.isfinite(s.per_context_expected).all())
            checks.expect(finite and _close(float(s.per_context_expected.sum()), s.expected),
                          f"{tag} replicate {r}: regret not finite or per-context "
                          "regret does not sum to the total")
        out = Path(run.config.output_dir)
        for trace in run.result.traces:
            _check_ndjson(trace_path(out, trace.replicate), run, trace, checks)
        _check_report(out / "report.json", run, checks)
        _check_curves(out / "curves.csv", run, checks)
    for algo, (lo, hi) in (wl.slope_windows or {}).items():
        slope = job.fits[algo].slope
        checks.expect(lo <= slope <= hi,
                      f"{algo}: log-log regret slope {slope:.3f} outside [{lo}, {hi}]")
    if wl.slope_windows:
        _check_learns(job, checks)
