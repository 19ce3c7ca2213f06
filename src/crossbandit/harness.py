"""Experiment orchestration: configs, runs, traces, regret, sweeps.

The harness owns everything the learners must not see: the context
distribution used for exact diagnostics, the loss rows of the drawn contexts
that fix the hindsight comparator, and all seeding. Every run is a
deterministic function of (config, seed): replicate streams are split off the
master seed, so results do not depend on scheduling. ``validate_config`` does
every check and file read once and returns a ``RunPlan``; replicates run from
the plan and derive nothing again.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import diagnostics
from .baselines import GraphExp3Baseline, UniformBaseline, baseline_rates
from .environment import (
    AdversarialShiftOracle,
    AuctionOracle,
    LossOracle,
    StochasticGapOracle,
    TableOracle,
    auction_grid,
    gap_means,
    load_opposing_bids,
    reveal,
    sample_context,
    uniform_opposing_bids,
)
from .graph import FeedbackGraph, GraphSpec, build_graph
from .known import KnownDistLearner, default_learning_rate
from .simplex import check_simplex
from .unknown import (
    EpochLearner,
    ParamSchedule,
    nearest_compatible_horizon,
    schedule_params,
)

ALGOS = ("known", "unknown", "per_context_exp3g", "pooled_exp3g", "uniform")
ORACLE_KINDS = ("stochastic_gap", "adversarial_shift", "auction", "table")

WORKERS_ENV_VAR = "CROSSBANDIT_WORKERS"
# Rounds formatted per NDJSON write: large enough to amortise the write,
# small enough that a full trace's text never sits in memory at once.
_NDJSON_BLOCK = 1024


@dataclass(frozen=True)
class OracleSpec:
    """Constructive description of the loss adversary."""

    kind: str
    base: float = 0.4
    gap: float = 0.2
    best_stride: int = 5
    low: float = 0.2
    high: float = 0.8
    table_path: str | None = None
    value_grid: tuple[float, ...] | None = None
    bid_grid: tuple[float, ...] | None = None
    bids_path: str | None = None

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}; expected one of {ORACLE_KINDS}")
        if self.kind == "table" and not self.table_path:
            raise ValueError("table oracle needs table_path")


@dataclass
class RunConfig:
    """Complete description of one experiment; seeds are mandatory."""

    graph: GraphSpec
    oracle: OracleSpec
    num_contexts: int
    horizon: int
    algo: str
    seed: int
    nu: tuple[float, ...] | None = None  # None means uniform over contexts
    replicates: int = 1
    # parameters: "auto" derives them; "manual" uses the explicit fields
    param_mode: str = "auto"
    tuned_scale: float = 1.0
    eta: float | None = None
    gamma: float | None = None
    epoch_len: int | None = None
    iota: float | None = None
    eta_scale: float = 1.0
    gamma_ix: float | None = None
    # outputs
    trace_level: str = "light"  # light | full
    diagnostics: bool = False
    output_dir: str | None = None


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def resolve_schedule(config: RunConfig, graph: FeedbackGraph) -> ParamSchedule:
    """Epoch-learner parameters from the config and its built graph, validated
    against the horizon."""
    T, K = config.horizon, graph.num_arms
    if config.param_mode == "manual" and None in (config.epoch_len, config.eta, config.gamma):
        raise ConfigError("manual mode needs epoch_len, eta and gamma")
    try:
        if config.param_mode == "auto":
            return schedule_params(K, T, graph.alpha,
                                   tuned_scale=config.tuned_scale, fit_horizon=True)
        iota = config.iota if config.iota is not None else 2.0 * math.log(8.0 * K * T * T)
        schedule = ParamSchedule(iota=float(iota), epoch_len=int(config.epoch_len),
                                 gamma=float(config.gamma), eta=float(config.eta),
                                 tuned_scale=config.tuned_scale)
    except ValueError as exc:
        raise ConfigError(f"{config.param_mode} schedule: {exc}") from exc
    L = schedule.epoch_len
    if T % L != 0 or T // L < 2:
        raise ConfigError(
            f"horizon {T} is not a multiple (>= 2) of epoch_len {L}; "
            f"nearest compatible horizon is {nearest_compatible_horizon(T, L)}"
        )
    return schedule


def _shared(oracle: LossOracle, seed: int) -> LossOracle:
    return oracle


def _uniform_bid_auction(values, bids, num_rounds: int, seed: int) -> AuctionOracle:
    return AuctionOracle(values, bids, uniform_opposing_bids(num_rounds, seed))


def oracle_source(spec: OracleSpec, T: int, M: int, K: int) -> partial:
    """Check the adversary against the run's shape and read its files. Returns
    the picklable map from a replicate's oracle seed to its oracle; oracles
    that ignore the seed are built here once and shared read-only."""
    if spec.kind == "stochastic_gap":
        means = gap_means(M, K, base=spec.base, gap=spec.gap, best_stride=spec.best_stride)
        return partial(StochasticGapOracle, means, T)
    if spec.kind == "adversarial_shift":
        return partial(_shared, AdversarialShiftOracle(T, M, K, low=spec.low, high=spec.high))
    if spec.kind == "auction":
        values = auction_grid("value_grid", spec.value_grid or np.linspace(0.0, 1.0, M))
        bids = auction_grid("bid_grid", spec.bid_grid or np.linspace(0.0, 1.0, K))
        if len(values) != M or len(bids) != K:
            raise ValueError(f"auction grids have {len(values)} values and {len(bids)} bids, "
                             f"need M={M} and K={K}")
        if not spec.bids_path:
            return partial(_uniform_bid_auction, values, bids, T)
        opposing = load_opposing_bids(spec.bids_path)
        if len(opposing) < T:
            raise ValueError(f"opposing-bid sequence has {len(opposing)} rounds, need {T}")
        return partial(_shared, AuctionOracle(values, bids, opposing))
    load = TableOracle.from_npy if spec.table_path.endswith(".npy") else TableOracle.from_csv
    oracle = load(spec.table_path)
    if oracle.num_rounds < T or oracle.num_contexts != M or oracle.num_arms != K:
        raise ValueError(f"loss table shape ({oracle.num_rounds}, {oracle.num_contexts}, "
                         f"{oracle.num_arms}) incompatible with T={T}, M={M}, K={K}")
    return partial(_shared, oracle)


@dataclass(frozen=True, eq=False)
class RunPlan:
    """A validated, picklable run; ``schedule`` is None unless an epoch learner runs."""

    config: RunConfig
    graph: FeedbackGraph
    nu: np.ndarray
    schedule: ParamSchedule | None
    oracle: partial  # oracle seed -> LossOracle


def validate_config(config: RunConfig) -> RunPlan:
    """Fail fast on anything inconsistent, or return the run's plan."""
    if config.algo not in ALGOS:
        raise ConfigError(f"unknown algo {config.algo!r}; expected one of {ALGOS}")
    if config.param_mode not in ("auto", "manual"):
        raise ConfigError(f"param_mode must be auto or manual, got {config.param_mode!r}")
    if config.trace_level not in ("light", "full"):
        raise ConfigError(f"trace_level must be light or full, got {config.trace_level!r}")
    if config.horizon < 0:
        raise ConfigError("horizon must be nonnegative")
    if config.replicates < 1:
        raise ConfigError("need at least one replicate")
    if config.num_contexts < 1:
        raise ConfigError("need at least one context")
    if config.param_mode == "manual" and config.eta is not None and not config.eta > 0:
        raise ConfigError(f"manual eta must be positive, got {config.eta!r}")
    if config.algo == "known" and not config.eta_scale > 0:
        raise ConfigError(f"eta_scale must be positive, got {config.eta_scale!r}")
    if config.gamma_ix is not None and not config.gamma_ix >= 0:
        raise ConfigError(f"gamma_ix must be nonnegative, got {config.gamma_ix!r}")
    T, M = config.horizon, config.num_contexts
    try:
        graph = build_graph(config.graph, rng_seed=config.seed)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"graph: {exc}") from exc
    if not graph.has_all_self_loops() or not graph.strongly_observable:
        raise ConfigError("graph must be strongly observable with a self-loop at every arm")
    if graph.num_arms < 2:
        raise ConfigError(f"need at least two arms, got {graph.num_arms}")
    try:
        nu = np.full(M, 1.0 / M) if config.nu is None else check_simplex(config.nu)
    except ValueError as exc:
        raise ConfigError(f"nu: {exc}") from exc
    if len(nu) != M:
        raise ConfigError(f"nu has {len(nu)} entries, expected {M}")
    try:
        oracle = oracle_source(config.oracle, T, M, graph.num_arms)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{config.oracle.kind} oracle: {exc}") from exc
    schedule = resolve_schedule(config, graph) if config.algo == "unknown" and T > 0 else None
    return RunPlan(config=config, graph=graph, nu=nu, schedule=schedule, oracle=oracle)


def make_learner(plan: RunPlan):
    config, graph = plan.config, plan.graph
    K, M, T = graph.num_arms, config.num_contexts, max(config.horizon, 1)
    if config.algo == "unknown":
        return EpochLearner(graph, M, plan.schedule)
    if config.algo == "uniform":
        return UniformBaseline(graph, M)
    eta = config.eta if config.param_mode == "manual" else None  # validated > 0 if set
    if config.algo == "known":
        return KnownDistLearner(graph, plan.nu, eta or default_learning_rate(
            K, T, graph.alpha, scale=config.eta_scale))
    per_context = config.algo == "per_context_exp3g"
    eta_default, gix_default = baseline_rates(K, T, graph.alpha,
                                              num_states=M if per_context else 1)
    return GraphExp3Baseline(graph, M, eta=eta or eta_default,
                             gamma_ix=gix_default if config.gamma_ix is None else config.gamma_ix,
                             per_context=per_context)


@dataclass
class EpochRecord:
    """Per-epoch state captured at the epoch's first round.

    With diagnostics on, ``s_cur`` and ``s_next`` are the learner's read-only
    snapshot tables themselves, not copies, and ``diag`` is the epoch's report,
    set once when the epoch ends (epochs 2 and later). Otherwise they are None.
    """

    epoch: int
    start_t: int
    w_hat: np.ndarray
    s_cur: np.ndarray | None = None
    s_next: np.ndarray | None = None
    s_cur_digest: str = ""
    s_next_digest: str = ""
    diag: diagnostics.EpochDiag | None = None


def _digest(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=8).hexdigest()


@dataclass
class Trace:
    """Per-round record of one replicate; deterministic given (config, seed).

    ``best_inst[t]`` is the loss that the hindsight best policy (the
    per-context argmin of ``loss_sums``) would have taken in round t, so the
    regret curves need no second pass over the oracle. With diagnostics on,
    ``used_mask[t]`` marks the arms whose feedback the epoch learner used
    when round t was its pair's loss round; other rounds' rows are all False.
    The epoch learner's per-epoch reports, computed while the replicate ran,
    are then on ``epochs`` (``EpochRecord.diag``).
    """

    algo: str
    seed: int
    replicate: int
    num_contexts: int
    num_arms: int
    contexts: np.ndarray
    arms: np.ndarray
    p_branch: np.ndarray
    realized_inst: np.ndarray
    expected_inst: np.ndarray
    loss_sums: np.ndarray
    best_inst: np.ndarray
    q_rows: np.ndarray | None = None
    policy_hashes: list[str] | None = None
    used_mask: np.ndarray | None = None
    epochs: list[EpochRecord] = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return len(self.contexts)

    def _round_lines(self, lo: int, hi: int) -> str:
        """Records of rounds lo..hi-1 exactly as ``json.dumps(rec,
        sort_keys=True)`` writes them (keys a, c, kind, policy, q, qp, t;
        floats by repr)."""
        fmt = '{"a": %d, "c": %d, "kind": "round", '
        cols = [self.arms[lo:hi].tolist(), self.contexts[lo:hi].tolist()]
        if self.policy_hashes is not None:
            fmt += '"policy": "%s", '
            cols.append(self.policy_hashes[lo:hi])
        if self.q_rows is not None:
            fmt += '"q": [%s], '
            cols.append([", ".join(map(repr, q)) for q in self.q_rows[lo:hi].tolist()])
        fmt += '"qp": %s, "t": %d}\n'
        cols.append(["true" if b else "false" for b in self.p_branch[lo:hi].tolist()])
        cols.append(range(lo, hi))
        return "".join([fmt % rec for rec in zip(*cols)])

    def write_ndjson(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            meta = {
                "kind": "meta", "algo": self.algo, "seed": self.seed,
                "replicate": self.replicate, "T": self.horizon,
                "M": self.num_contexts, "K": self.num_arms,
            }
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for lo in range(0, self.horizon, _NDJSON_BLOCK):
                fh.write(self._round_lines(lo, lo + _NDJSON_BLOCK))
            for er in self.epochs:
                rec = {
                    "kind": "epoch", "e": er.epoch, "start_t": er.start_t,
                    "w_hat": [float(x) for x in er.w_hat],
                    "s_cur": er.s_cur_digest, "s_next": er.s_next_digest,
                }
                d = er.diag
                if d is not None:
                    rec.update(F=d.importance_ok, L=d.bounded_ok, Q=d.all_ok_so_far,
                               beta_min=d.beta_min, beta_max=d.beta_max,
                               tilde_max=d.tilde_max, ptilde_min=d.ptilde_ratio_min,
                               ptilde_max=d.ptilde_ratio_max,
                               snapshot_rounds=d.snapshot_rounds,
                               graph_inv_lhs=d.graph_inv_lhs, graph_inv_rhs=d.graph_inv_rhs)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


@dataclass
class RegretSummary:
    """Hindsight regret of one replicate against the best fixed policy."""

    expected: float
    realized: float
    per_context_expected: np.ndarray
    best_policy: np.ndarray
    snapshot_branch_fraction: float


def best_policy_from_sums(loss_sums: np.ndarray) -> np.ndarray:
    """Per-context argmin of summed losses; ties to the lowest arm index;
    contexts never drawn (all-zero rows) get arm 0."""
    return np.argmin(loss_sums, axis=1)


def summarize_regret(trace: Trace) -> RegretSummary:
    M = trace.num_contexts
    pi_star = best_policy_from_sums(trace.loss_sums)
    best_per_context = trace.loss_sums[np.arange(M), pi_star]
    realized_pc = np.bincount(trace.contexts, weights=trace.realized_inst, minlength=M)
    expected_pc = np.bincount(trace.contexts, weights=trace.expected_inst, minlength=M)
    per_context = expected_pc - best_per_context
    frac = float(1.0 - trace.p_branch.mean()) if trace.horizon else 0.0
    return RegretSummary(
        expected=float(per_context.sum()),
        realized=float((realized_pc - best_per_context).sum()),
        per_context_expected=per_context,
        best_policy=pi_star,
        snapshot_branch_fraction=frac,
    )


@dataclass
class RunResult:
    config: RunConfig
    graph: FeedbackGraph
    summaries: list[RegretSummary]
    traces: list[Trace]

    def _stat(self, attr: str) -> tuple[float, float]:
        vals = np.array([getattr(s, attr) for s in self.summaries])
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        return float(vals.mean()), std

    @property
    def mean_expected(self) -> float:
        return self._stat("expected")[0]

    @property
    def std_expected(self) -> float:
        return self._stat("expected")[1]

    @property
    def stderr_expected(self) -> float:
        return self.std_expected / math.sqrt(len(self.summaries))

    @property
    def mean_realized(self) -> float:
        return self._stat("realized")[0]

    @property
    def std_realized(self) -> float:
        return self._stat("realized")[1]


def _replicate_seeds(master_seed: int, replicate: int) -> tuple[int, np.random.Generator]:
    oracle_seed = int(np.random.SeedSequence([master_seed, replicate, 0]).generate_state(1)[0])
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, replicate, 1]))
    return oracle_seed, rng


def run_replicate(plan: RunPlan, replicate: int) -> Trace:
    """Execute one replicate of a validated plan's full interaction loop.

    Each round's loss row for the drawn context is read from the oracle once
    and kept in a transient (T, K) buffer; after the last round the buffer
    yields the realized losses, the per-context loss sums and the hindsight
    comparator's per-round losses, and is then dropped. The learner is read
    only through what ``act`` and ``update`` return (``environment.Play``)
    and, for the epoch learner, its public state at each epoch start. With
    diagnostics on, the epoch learner's epoch starts and finished pairs also
    feed a ``diagnostics.EpochObserver``, which sets each epoch's report on
    its ``EpochRecord``.
    """
    config, graph, nu = plan.config, plan.graph, plan.nu
    T, M, K = config.horizon, config.num_contexts, graph.num_arms
    full = config.trace_level == "full"
    diag = config.diagnostics
    trace = Trace(
        algo=config.algo, seed=config.seed, replicate=replicate,
        num_contexts=M, num_arms=K,
        contexts=np.zeros(T, dtype=np.int32),
        arms=np.zeros(T, dtype=np.int32),
        p_branch=np.zeros(T, dtype=bool),
        realized_inst=np.zeros(T),
        expected_inst=np.zeros(T),
        loss_sums=np.zeros((M, K)),
        best_inst=np.zeros(T),
        q_rows=np.zeros((T, K)) if full else None,
        policy_hashes=[] if full else None,
        used_mask=np.zeros((T, K), dtype=bool) if diag else None,
    )
    if T == 0:
        return trace

    oracle_seed, rng = _replicate_seeds(config.seed, replicate)
    oracle = plan.oracle(oracle_seed)
    learner = make_learner(plan)
    epoch_len = plan.schedule.epoch_len if plan.schedule else 0
    observer = (diagnostics.EpochObserver(graph, nu, plan.schedule, trace.p_branch)
                if diag and epoch_len else None)
    rows = np.empty((T, K))

    for t in range(T):
        if epoch_len and t % epoch_len == 0:
            er = EpochRecord(
                epoch=learner.epoch, start_t=t, w_hat=learner.w_hat.copy(),
                s_cur=learner.s_cur if diag else None,
                s_next=learner.s_next if diag else None,
                s_cur_digest=_digest(learner.s_cur),
                s_next_digest=_digest(learner.s_next),
            )
            trace.epochs.append(er)
            if observer is not None:
                observer.start_epoch(er, learner.s_cur_in)
        if full:
            # Hashed before act, which leaves every table unchanged: the
            # epoch learner then plays its row from the table built here.
            trace.policy_hashes.append(_digest(learner.distributions()))
        c = sample_context(nu, rng)
        a, q, ftrl = learner.act(t, c, rng)
        row = oracle.loss_slice(t)[c]
        rows[t] = row
        trace.contexts[t] = c
        trace.arms[t] = a
        trace.p_branch[t] = ftrl
        trace.expected_inst[t] = q @ row
        if full:
            trace.q_rows[t] = q
        rev = reveal(oracle, graph, t, a)
        pr = learner.update(rev, rng)
        if observer is not None and pr is not None:
            trace.used_mask[pr.t_first + pr.loss_offset] = pr.used
            observer.add_pair(pr)
    if observer is not None:
        observer.end_epoch()
    rounds = np.arange(T)
    trace.realized_inst = rows[rounds, trace.arms]
    np.add.at(trace.loss_sums, trace.contexts, rows)  # in round order, like += per round
    pi_star = best_policy_from_sums(trace.loss_sums)
    trace.best_inst = rows[rounds, pi_star[trace.contexts]]
    return trace


def _replicate_job(args):
    plan, replicate = args
    trace = run_replicate(plan, replicate)
    return trace, summarize_regret(trace)


def run(config: RunConfig, keep_traces: bool = True) -> RunResult:
    """Validate ``config`` and run its plan."""
    return run_plan(validate_config(config), keep_traces)


def run_plan(plan: RunPlan, keep_traces: bool = True) -> RunResult:
    """Run every replicate of a plan; deterministic merge by replicate index."""
    config = plan.config
    workers = int(os.environ.get(WORKERS_ENV_VAR, "1"))
    jobs = [(plan, r) for r in range(config.replicates)]
    if workers > 1 and config.replicates > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_job, jobs))
    else:
        results = [_replicate_job(j) for j in jobs]
    traces = [tr for tr, _ in results]
    summaries = [s for _, s in results]
    return RunResult(config=config, graph=plan.graph, summaries=summaries,
                     traces=traces if keep_traces else [])


@dataclass
class ScalingFit:
    slope: float
    intercept: float
    stderr: float
    n: int


def fit_scaling(points) -> ScalingFit:
    """Ordinary least squares of log(y) on log(x)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points to fit a slope, got {len(pts)}")
    for x, y in pts:
        if x <= 0 or y <= 0:
            raise ValueError(f"nonpositive point ({x}, {y}) is degenerate for a log-log fit")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    xc = lx - lx.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ ly) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    dof = len(pts) - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return ScalingFit(slope=slope, intercept=intercept, stderr=stderr, n=len(pts))


@dataclass
class SweepRow:
    value: float
    mean_expected: float
    stderr_expected: float
    mean_realized: float
    replicates: int


@dataclass
class SweepResult:
    axis: str
    rows: list[SweepRow]
    fit: ScalingFit | None
    ratios: list[tuple[float, float]] | None  # (value, regret / regret at first value)


def config_for_axis(config: RunConfig, axis: str, value: int) -> RunConfig:
    if axis == "T":
        return replace(config, horizon=int(value))
    if axis == "M":
        return replace(config, num_contexts=int(value), nu=None)
    if axis == "alpha":
        if config.graph.kind != "disjoint_cliques":
            raise ConfigError("alpha sweeps need a disjoint_cliques graph")
        K = int(sum(config.graph.clique_sizes))
        a = int(value)
        if K % a != 0:
            raise ConfigError(f"alpha={a} does not divide K={K} into equal cliques")
        spec = GraphSpec(kind="disjoint_cliques", clique_sizes=(K // a,) * a)
        return replace(config, graph=spec)
    raise ConfigError(f"unknown sweep axis {axis!r}; expected T, M or alpha")


def run_sweep(config: RunConfig, axis: str, values) -> SweepResult:
    """Run ``config`` at each value of ``axis``, validating every point first."""
    points = [(v, validate_config(config_for_axis(config, axis, v))) for v in values]
    rows = []
    for v, plan in points:
        res = run_plan(plan, keep_traces=False)
        rows.append(SweepRow(value=float(v), mean_expected=res.mean_expected,
                             stderr_expected=res.stderr_expected,
                             mean_realized=res.mean_realized,
                             replicates=config.replicates))
    fit = None
    ratios = None
    if axis in ("T", "alpha"):
        fit = fit_scaling([(r.value, r.mean_expected) for r in rows])
    if axis == "M":
        base = rows[0].mean_expected
        ratios = [(r.value, r.mean_expected / base if base else math.inf) for r in rows]
    return SweepResult(axis=axis, rows=rows, fit=fit, ratios=ratios)


def regret_curves(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative expected-form and realized regret curves against the
    hindsight best policy, from the comparator losses recorded in the run."""
    return (np.cumsum(trace.expected_inst - trace.best_inst),
            np.cumsum(trace.realized_inst - trace.best_inst))


def write_report_json(result: RunResult, path: str | Path) -> None:
    doc = {
        "algo": result.config.algo,
        "seed": result.config.seed,
        "T": result.config.horizon,
        "M": result.config.num_contexts,
        "K": result.graph.num_arms,
        "alpha": result.graph.alpha,
        "replicates": len(result.summaries),
        "mean_expected_regret": result.mean_expected,
        "std_expected_regret": result.std_expected,
        "mean_realized_regret": result.mean_realized,
        "std_realized_regret": result.std_realized,
        "per_replicate": [
            {"expected": s.expected, "realized": s.realized,
             "snapshot_branch_fraction": s.snapshot_branch_fraction}
            for s in result.summaries
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_curves_csv(result: RunResult, path: str | Path) -> None:
    """Long format: algo, replicate, t, cum_regret_expected, cum_regret_realized."""
    parts = ["algo,replicate,t,cum_regret_expected,cum_regret_realized\n"]
    for trace in result.traces:
        exp_curve, real_curve = regret_curves(trace)
        prefix = f"{result.config.algo},{trace.replicate},"
        parts += [f"{prefix}{t},{e!r},{r!r}\n" for t, (e, r)
                  in enumerate(zip(exp_curve.tolist(), real_curve.tolist()))]
    with open(path, "w") as fh:
        fh.write("".join(parts))


def write_sweep_csv(sweep: SweepResult, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write("axis,value,mean_expected,stderr_expected,mean_realized,replicates\n")
        for r in sweep.rows:
            fh.write(f"{sweep.axis},{r.value!r},{r.mean_expected!r},"
                     f"{r.stderr_expected!r},{r.mean_realized!r},{r.replicates}\n")
