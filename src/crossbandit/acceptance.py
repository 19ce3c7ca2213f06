"""Acceptance checks: estimator identities, concentration events, scaling laws.

This module is the registry behind ``crossbandit verify``. Each check
registers itself once, in order, with its name and its quick-scale keywords;
its keyword defaults are the scale the suite is graded at (tens of minutes
in all), and the quick scale is a smoke pass of about half a minute.
Monte-Carlo assertions compare against independently computed exact targets
at three standard errors.
"""

from __future__ import annotations

import copy
import filecmp
import functools
import math
import tempfile
import time
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .environment import (
    LossOracle,
    StochasticGapOracle,
    TableOracle,
    gap_means,
    reveal,
    sample_context,
)
from .graph import (
    FeedbackGraph,
    GraphSpec,
    build_graph,
    independence_number_bruteforce,
)
from .harness import OracleSpec, RunConfig, fit_scaling, pair_tape, run, run_plan, validate_config
from .known import KnownDistLearner
from .unknown import EpochLearner, ParamSchedule, tuned_schedule


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name} ({self.seconds:.1f}s): {self.detail}"


@dataclass(frozen=True)
class Check:
    """A registry entry. ``fn()`` runs the check at its graded scale and
    ``fn(**quick)`` at its quick scale; both return a ``CheckResult``
    printed as ``label``."""
    name: str
    label: str
    fn: Callable[..., CheckResult]
    quick: Mapping[str, object]


CHECKS: list[Check] = []


def _check(name: str, **quick):
    """Register the decorated check as the next numbered entry. Its body
    returns ``(passed, detail)``; the registered function times the body and
    returns a ``CheckResult`` instead."""
    def register(body: Callable[..., tuple[bool, str]]) -> Callable[..., CheckResult]:
        label = f"{len(CHECKS) + 1:02d} {name}"

        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            t0 = time.time()
            passed, detail = body(*args, **kwargs)
            return CheckResult(label, bool(passed), detail, time.time() - t0)

        CHECKS.append(Check(name, label, check, quick))
        return check
    return register


def check_names() -> list[str]:
    return [entry.name for entry in CHECKS]


def run_checks(level: str = "quick", names: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the registered checks (all, or those in ``names``) in order at
    ``level`` "quick" or "full", printing one pass/fail line per check.
    Unknown names are rejected before any check runs."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    wanted = set(names) if names is not None else None
    if wanted:
        missing = wanted - set(check_names())
        if missing:
            raise ValueError(f"unknown checks: {sorted(missing)}")
    results = []
    for entry in CHECKS:
        if wanted is not None and entry.name not in wanted:
            continue
        res = entry.fn(**entry.quick) if level == "quick" else entry.fn()
        print(res.line())
        results.append(res)
    return results


_NU4 = (0.4, 0.3, 0.2, 0.1)
# Replays of a frozen round run as rows of one batched learner, this many at a time.
_REPLAY_BATCH = 1000


# ---------------------------------------------------------------- criterion 1

@_check("estimator-unbiasedness", n_replays=20_000)
def check_estimator_unbiasedness(n_replays: int = 100_000, seed: int = 11) -> tuple[bool, str]:
    """Known-distribution estimator: replay one frozen round many times; the
    Monte-Carlo mean of every importance-weighted estimate matches the true
    loss within 3 standard errors, for every (context, arm)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    worst = 0.0
    cells = 0
    for spec in (GraphSpec(kind="self_loops_only", num_arms=8),
                 GraphSpec(kind="erdos_renyi", num_arms=8, edge_prob=0.3)):
        graph = build_graph(spec, rng_seed=2)
        nu = np.asarray(_NU4)
        M, K = len(nu), graph.num_arms
        warm_oracle = StochasticGapOracle(gap_means(M, K, best_stride=3),
                                          num_rounds=300, seed=seed)
        learner = KnownDistLearner(graph, nu, eta=0.05)
        for t in range(300):  # a batch of one: one context and one arm uniform per round
            c = sample_context(nu, rng.random(1))
            a = learner.act(t, c, rng.random(1)).arm[0]
            learner.update([reveal(warm_oracle, graph, t, a)])

        # Dense loss table for the replayed round.
        losses = 0.05 + 0.9 * rng.random((M, K))
        dense = TableOracle(losses[None, :, :])
        t_frozen = learner.t
        cum0 = learner.cum[0].copy()
        w = learner.importance()[0]
        cum_sum = np.zeros_like(cum0)
        obs_counts = np.zeros(K)
        for done in range(0, n_replays, _REPLAY_BATCH):
            # Each row of a batch replays the frozen round once, with the
            # context and arm uniforms one replay alone would draw.
            n = min(_REPLAY_BATCH, n_replays - done)
            replays = KnownDistLearner(graph, nu, eta=0.05, replicates=n)
            replays.cum[:] = learner.cum
            replays.t = t_frozen
            u = rng.random(2 * n)
            arms = replays.act(t_frozen, sample_context(nu, u[0::2]), u[1::2]).arm
            revs = [reveal(dense, graph, 0, a) for a in arms.tolist()]
            replays.update(revs)
            for rev, cum in zip(revs, replays.cum):  # in replay order
                obs_counts[rev.arms] += 1
                cum_sum += cum

        mean_est = cum_sum / n_replays - cum0
        p_hat = obs_counts / n_replays
        se = (losses / w) * np.sqrt(p_hat * (1.0 - p_hat) / n_replays)
        dev = np.abs(mean_est - losses)
        ok = dev <= 3.0 * se + 1e-12
        cells += dev.size
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(se > 0, dev / se, 0.0)
        worst = max(worst, float(ratio.max()))
        if not ok.all():
            return False, f"{int((~ok).sum())} cells beyond 3 SE on {spec.kind}"
    return True, f"max dev {worst:.2f} SE over {cells} cells, n={n_replays}"


# ----------------------------------------------------- epoch-state scaffolding

def _warm_epoch_learner(seed: int, epoch_len: int = 32, stop_epoch: int = 3,
                        stop_pos: int = 0):
    """Drive an epoch learner on a real environment until round ``stop_pos``
    (even) of epoch ``stop_epoch``, drawing each epoch's uniforms as
    ``harness.run_replicate`` does."""
    graph = build_graph(GraphSpec(kind="erdos_renyi", num_arms=8, edge_prob=0.25),
                        rng_seed=3)
    nu = np.asarray(_NU4)
    M, K = len(nu), graph.num_arms
    horizon = epoch_len * (stop_epoch + 2)
    oracle = StochasticGapOracle(gap_means(M, K, best_stride=3),
                                 num_rounds=horizon, seed=seed)
    params = ParamSchedule(iota=6.0, epoch_len=epoch_len, gamma=0.05, eta=0.01)
    learner = EpochLearner(graph, M, params)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA]))
    for epoch in range(1, stop_epoch + 1):
        pairs = (epoch_len if epoch < stop_epoch else stop_pos) // 2
        _play_pairs(learner, graph, oracle,
                    *pair_tape(rng, nu, pairs, learner.closing_draws))
    return graph, nu, oracle, learner, rng


def _play_pairs(learner: EpochLearner, graph: FeedbackGraph, oracle: LossOracle,
                contexts: np.ndarray, arm_u: np.ndarray, closing_u: np.ndarray):
    """Play consecutive pairs from the learner's next round with the uniforms
    of ``harness.pair_tape``; round t reveals the oracle's round t modulo its
    horizon. Returns the last pair's record."""
    pair = None
    for i in range(len(contexts)):
        t = learner.t
        arms = learner.act(t, contexts[i], arm_u[i]).arm.tolist()
        revs = [reveal(oracle, graph, (t + j) % oracle.num_rounds, arms[j]) for j in range(2)]
        pair = learner.update(revs, closing_u[i])
    return pair


# ---------------------------------------------------------------- criterion 2

@_check("used-feedback-marginal", n_pairs=20_000)
def check_used_feedback_marginal(n_pairs: int = 100_000, seed: int = 12) -> tuple[bool, str]:
    """Per-pair probability that an arm's loss feeds the estimates equals the
    exact per-arm observation probability of the epoch snapshot."""
    graph, nu, _, learner, rng = _warm_epoch_learner(seed, epoch_len=32,
                                                     stop_epoch=3, stop_pos=4)
    M, K = learner.num_contexts, learner.num_arms
    dense = TableOracle(0.05 + 0.9 * np.random.default_rng(seed).random((2, M, K)))

    w_exact = (nu @ graph.in_mass_rows(learner.s_cur)) / 2.0
    used_counts = np.zeros(K)
    # Row i of the tape holds the uniforms of replay i, as drawn one replay at a time.
    contexts, arm_u, closing_u = pair_tape(rng, nu, n_pairs, learner.closing_draws)
    for i in range(n_pairs):
        pair = _play_pairs(copy.copy(learner), graph, dense,
                           contexts[i:i + 1], arm_u[i:i + 1], closing_u[i:i + 1])
        used_counts += pair.used

    rate = used_counts / n_pairs
    se = np.sqrt(rate * (1.0 - rate) / n_pairs)
    dev = np.abs(rate - w_exact)
    ok = dev <= 3.0 * se + 1e-12
    worst = float((dev / np.maximum(se, 1e-12)).max())
    return (ok.all(),
            f"max dev {worst:.2f} SE, w range [{w_exact.min():.3f}, "
            f"{w_exact.max():.3f}], n={n_pairs}")


# ---------------------------------------------------------------- criterion 3

@_check("importance-estimate-unbiased", n_epochs=1_500)
def check_importance_estimate_unbiased(n_epochs: int = 10_000, seed: int = 13) -> tuple[bool, str]:
    """Replaying a frozen epoch start many times, the mean of the empirical
    importance computed for the next epoch matches its exact value."""
    graph, nu, oracle, learner, rng = _warm_epoch_learner(seed, epoch_len=32,
                                                          stop_epoch=3, stop_pos=0)
    L = learner.epoch_len

    w_next_exact = (nu @ graph.in_mass_rows(learner.s_next)) / 2.0
    total = np.zeros(learner.num_arms)
    total_sq = np.zeros(learner.num_arms)
    for _ in range(n_epochs):
        replay = copy.copy(learner)
        _play_pairs(replay, graph, oracle,
                    *pair_tape(rng, nu, L // 2, learner.closing_draws))
        # end_epoch fired: the fresh estimate is now the applied one
        total += replay.w_hat
        total_sq += replay.w_hat ** 2

    mean = total / n_epochs
    var = np.maximum(total_sq / n_epochs - mean ** 2, 0.0)
    se = np.sqrt(var / n_epochs)
    dev = np.abs(mean - w_next_exact)
    ok = dev <= 3.0 * se + 1e-12
    worst = float((dev / np.maximum(se, 1e-12)).max())
    return (ok.all(),
            f"max dev {worst:.2f} SE over {learner.num_arms} arms, n={n_epochs}")


# ---------------------------------------------------------------- criterion 4

@_check("concentration-events", n_epochs=200)
def check_concentration_events(n_epochs: int = 205, seed: int = 14) -> tuple[bool, str]:
    """Concentration-event frequencies at a non-vacuous confidence level
    (iota = 6): the importance event and the boundedness event hold at least
    as often as their union bounds, and the denominator ratio stays within
    [1/2, 2] on every importance-event epoch. The run computes the
    per-epoch reports; the check only reads them."""
    iota, L = 6.0, 256
    gamma = 4.0 * iota / L
    eta = gamma / (2.0 * (2.0 * L * gamma + iota))
    config = RunConfig(
        graph=GraphSpec(kind="erdos_renyi", num_arms=8, edge_prob=0.25),
        oracle=OracleSpec(kind="stochastic_gap", gap=0.2, base=0.4, best_stride=3),
        num_contexts=4, nu=_NU4, horizon=(n_epochs + 1) * L,
        algo="unknown", seed=seed, replicates=1,
        param_mode="manual", epoch_len=L, eta=eta, gamma=gamma, iota=iota,
        diagnostics=True,
    )
    result = run(config)
    reports = [er.diag for er in result.traces[0].epochs if er.diag is not None]
    n = len(reports)
    K = result.graph.num_arms
    p_f = float(np.mean([r.importance_ok for r in reports]))
    p_l = float(np.mean([r.bounded_ok for r in reports]))
    se_f = math.sqrt(p_f * (1 - p_f) / n)
    se_l = math.sqrt(p_l * (1 - p_l) / n)
    bound_f = 1.0 - 2.0 * K * math.exp(-iota)
    bound_l = 1.0 - K * math.exp(-iota)
    f_ok = p_f >= bound_f - 3.0 * se_f
    l_ok = p_l >= bound_l - 3.0 * se_l
    beta_violations = sum(
        1 for r in reports
        if r.importance_ok and not (0.5 - 1e-9 <= r.beta_min and r.beta_max <= 2.0 + 1e-9)
    )
    passed = f_ok and l_ok and beta_violations == 0 and n >= 200
    return (passed,
            f"{n} epochs: P(F)={p_f:.4f} (>= {bound_f:.4f}), "
            f"P(L)={p_l:.4f} (>= {bound_l:.4f}), beta violations {beta_violations}")


# ---------------------------------------------------------------- criterion 5

@_check("rejection-inactivity", replicates=3)
def check_rejection_inactivity(replicates: int = 20, seed: int = 15) -> tuple[bool, str]:
    """Under the horizon-formula schedule at tuned_scale 0.02, almost every
    round plays the FTRL distribution rather than the snapshot fallback."""
    config = RunConfig(
        graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(4, 4, 4, 4)),
        oracle=OracleSpec(kind="stochastic_gap", gap=0.2, base=0.4, best_stride=5),
        num_contexts=8, horizon=2 ** 14, algo="unknown", seed=seed,
        replicates=replicates, param_mode="auto", tuned_scale=0.02,
    )
    plan = validate_config(config)
    result, L = run_plan(plan), plan.schedule.epoch_len
    fracs = [float((~tr.p_branch[L:]).mean()) for tr in result.traces]
    mean_frac = float(np.mean(fracs))
    return (mean_frac <= 0.05,
            f"snapshot-branch fraction {mean_frac:.5f} (max replicate "
            f"{max(fracs):.5f}) over {replicates} seeds, L={L}")


# ------------------------------------------------------- scaling-run utilities

def _cliques_config(T: int, alpha: int, M: int, seed: int, replicates: int,
                    K: int = 16) -> RunConfig:
    return RunConfig(
        graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(K // alpha,) * alpha),
        oracle=OracleSpec(kind="stochastic_gap", gap=0.2, base=0.4, best_stride=5),
        num_contexts=M, horizon=T, algo="unknown", seed=seed, replicates=replicates,
    )


def _run_epochal(T: int, alpha: int, M: int, seed: int, replicates: int,
                 K: int = 16):
    sched = tuned_schedule(K, T, alpha)
    config = replace(
        _cliques_config(T, alpha, M, seed, replicates, K),
        param_mode="manual", epoch_len=sched.epoch_len, eta=sched.eta,
        gamma=sched.gamma, iota=sched.iota,
    )
    return run(config, keep_traces=False)


def _run_algo(algo: str, T: int, alpha: int, M: int, seed: int, replicates: int,
              K: int = 16):
    config = replace(_cliques_config(T, alpha, M, seed, replicates, K), algo=algo)
    return run(config, keep_traces=False)


# ---------------------------------------------------------------- criterion 6

@_check("horizon-scaling", replicates=4,
        horizons=(2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14))
def check_t_scaling(replicates: int = 20, seed: int = 16,
                    horizons: tuple[int, ...] = (2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15, 2 ** 16),
                    ) -> tuple[bool, str]:
    """log-log slope of expected-form regret against the horizon sits near
    1/2 for both algorithms."""
    pts_unknown, pts_known = [], []
    for T in horizons:
        pts_unknown.append((T, _run_epochal(T, 4, 8, seed, replicates).mean_expected))
        pts_known.append((T, _run_algo("known", T, 4, 8, seed, replicates).mean_expected))
    s_u = fit_scaling(pts_unknown)
    s_k = fit_scaling(pts_known)
    ok = 0.35 <= s_u.slope <= 0.65 and 0.35 <= s_k.slope <= 0.65
    return (ok,
            f"slope epoch-learner {s_u.slope:.3f}±{s_u.stderr:.3f}, "
            f"known-dist {s_k.slope:.3f}±{s_k.stderr:.3f} "
            f"(window [0.35, 0.65], {replicates} seeds)")


# ---------------------------------------------------------------- criterion 7

@_check("context-independence", replicates=4)
def check_context_independence(replicates: int = 20, seed: int = 17) -> tuple[bool, str]:
    """Regret of the epoch learner barely moves between 4 and 64 contexts,
    while the per-context baseline at least doubles."""
    T = 2 ** 14
    u4 = _run_epochal(T, 4, 4, seed, replicates).mean_expected
    u64 = _run_epochal(T, 4, 64, seed, replicates).mean_expected
    b4 = _run_algo("per_context_exp3g", T, 4, 4, seed, replicates).mean_expected
    b64 = _run_algo("per_context_exp3g", T, 4, 64, seed, replicates).mean_expected
    ratio_u = u64 / u4
    ratio_b = b64 / b4
    ok = ratio_u <= 2.0 and ratio_b >= 2.0
    return (ok,
            f"epoch-learner ratio {ratio_u:.2f} (<= 2), per-context baseline "
            f"ratio {ratio_b:.2f} (>= 2), {replicates} seeds")


# ---------------------------------------------------------------- criterion 8

@_check("independence-number-scaling", replicates=4)
def check_alpha_scaling(replicates: int = 20, seed: int = 18,
                        alphas: tuple[int, ...] = (1, 2, 4, 8)) -> tuple[bool, str]:
    """Epoch-learner regret grows with the independence number: monotone up
    to replicate noise, log-log slope in [0.2, 0.8]."""
    means, stderrs = [], []
    for a in alphas:
        res = _run_epochal(2 ** 14, a, 8, seed, replicates)
        means.append(res.mean_expected)
        stderrs.append(res.stderr_expected)
    monotone = all(
        means[i + 1] >= means[i] - math.hypot(stderrs[i], stderrs[i + 1])
        for i in range(len(means) - 1)
    )
    fit = fit_scaling(list(zip(alphas, means)))
    ok = monotone and 0.2 <= fit.slope <= 0.8
    pts = ", ".join(f"a={a}:{m:.0f}" for a, m in zip(alphas, means))
    return (ok,
            f"slope {fit.slope:.3f}±{fit.stderr:.3f} (window [0.2, 0.8]), "
            f"monotone={monotone}; {pts}")


# ---------------------------------------------------------------- criterion 9

@_check("graph-inverse-bound", n_graphs=30)
def check_graph_inverse_bound(n_graphs: int = 100, seed: int = 19) -> tuple[bool, str]:
    """Inverse-neighborhood-mass bound on random self-looped graphs with
    weights floored at 1e-3, independence numbers from the enumeration oracle."""
    from .diagnostics import graph_inverse_bound
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    eps = 1e-3
    violations = 0
    worst_margin = math.inf
    for i in range(n_graphs):
        K = int(rng.integers(4, 17))
        p = float(rng.uniform(0.1, 0.6))
        graph = build_graph(GraphSpec(kind="erdos_renyi", num_arms=K, edge_prob=p),
                            rng_seed=int(rng.integers(0, 2 ** 31)))
        w = 0.9 * rng.dirichlet(np.ones(K)) + 0.1 / K
        assert w.min() >= eps
        alpha = independence_number_bruteforce(graph)
        lhs, rhs = graph_inverse_bound(w, graph, alpha=alpha, eps=eps)
        worst_margin = min(worst_margin, rhs - lhs)
        if lhs > rhs:
            violations += 1
    return (violations == 0,
            f"{violations} violations over {n_graphs} graphs, "
            f"smallest margin {worst_margin:.2f}")


# --------------------------------------------------------------- criterion 10

@_check("independence-oracle-equivalence", n_graphs=120)
def check_independence_oracle(n_graphs: int = 500, seed: int = 20) -> tuple[bool, str]:
    """Branch-and-bound equals the 2^K enumeration oracle on random graphs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    mismatches = 0
    for i in range(n_graphs):
        K = int(rng.integers(2, 17))
        p = float(rng.uniform(0.05, 0.9))
        mask = rng.random((K, K)) < p
        if rng.random() < 0.5:
            np.fill_diagonal(mask, True)
        out = [tuple(np.flatnonzero(mask[a])) for a in range(K)]
        # The constructor caches alpha via the branch-and-bound solver.
        graph = FeedbackGraph(out)
        if graph.alpha != independence_number_bruteforce(graph):
            mismatches += 1
    return (mismatches == 0,
            f"{mismatches} mismatches over {n_graphs} random graphs (K <= 16)")


# --------------------------------------------------------------- criterion 11

def _determinism_configs(seed: int) -> list[RunConfig]:
    gap = OracleSpec(kind="stochastic_gap", gap=0.2, base=0.4, best_stride=5)
    iota, L = 6.0, 256
    gamma = 4.0 * iota / L
    eta = gamma / (2.0 * (2.0 * L * gamma + iota))
    return [
        # concentration-run shape, diagnostics on
        RunConfig(graph=GraphSpec(kind="erdos_renyi", num_arms=8, edge_prob=0.25),
                  oracle=replace(gap, best_stride=3), num_contexts=4, nu=_NU4,
                  horizon=8 * L, algo="unknown", seed=seed, replicates=1,
                  param_mode="manual", epoch_len=L, eta=eta, gamma=gamma, iota=iota,
                  diagnostics=True, trace_level="full"),
        # rejection-run shape, horizon-formula schedule
        RunConfig(graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(4, 4, 4, 4)),
                  oracle=gap, num_contexts=8, horizon=4096, algo="unknown",
                  seed=seed + 1, replicates=2, param_mode="auto", tuned_scale=0.02,
                  trace_level="full"),
        # sweep shapes, both regret algorithms
        RunConfig(graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(4, 4, 4, 4)),
                  oracle=gap, num_contexts=8, horizon=2048, algo="known",
                  seed=seed + 2, replicates=2, trace_level="full"),
        RunConfig(graph=GraphSpec(kind="disjoint_cliques", clique_sizes=(4, 4, 4, 4)),
                  oracle=gap, num_contexts=8, horizon=2048, algo="per_context_exp3g",
                  seed=seed + 3, replicates=2, trace_level="full"),
        # remaining oracle and graph families
        RunConfig(graph=GraphSpec(kind="ordered_triangular", num_arms=8),
                  oracle=OracleSpec(kind="auction"), num_contexts=4,
                  horizon=1024, algo="uniform", seed=seed + 4, replicates=1,
                  trace_level="full"),
        RunConfig(graph=GraphSpec(kind="complete_with_self_loops", num_arms=6),
                  oracle=OracleSpec(kind="adversarial_shift"), num_contexts=4,
                  horizon=1024, algo="pooled_exp3g", seed=seed + 5, replicates=1,
                  trace_level="full"),
    ]


@_check("determinism")
def check_determinism(seed: int = 21) -> tuple[bool, str]:
    """Every acceptance config family, run twice at the same seed, serializes
    to byte-identical trace files, in a temporary directory removed on return."""
    mismatched: list[str] = []
    n_files = 0
    with tempfile.TemporaryDirectory(prefix="crossbandit-det-") as tmp:
        base = Path(tmp)
        for idx, config in enumerate(_determinism_configs(seed)):
            paths = []
            for attempt in range(2):
                result = run(config)
                for trace in result.traces:
                    path = base / f"cfg{idx}_run{attempt}_rep{trace.replicate}.ndjson"
                    trace.write_ndjson(path)
                    paths.append(path)
            half = len(paths) // 2
            for p1, p2 in zip(paths[:half], paths[half:]):
                n_files += 1
                if not filecmp.cmp(p1, p2, shallow=False):
                    mismatched.append(p1.name)
    return (not mismatched,
            f"{n_files} trace-file pairs byte-compared"
            + (f"; mismatches: {mismatched}" if mismatched else ""))

