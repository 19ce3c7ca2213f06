"""Verification suite behind `crossbandit verify`.

quick: the acceptance checks at reduced Monte-Carlo scale (about a minute).
full: every acceptance check at its graded scale (tens of minutes).
Prints one pass/fail line per check; nonzero exit on any failure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from . import acceptance
from .acceptance import CheckResult

# (name, full-scale callable, quick-scale callable)
_CHECKS: list[tuple[str, Callable[[], CheckResult], Callable[[], CheckResult]]] = [
    ("estimator-unbiasedness",
     acceptance.check_estimator_unbiasedness,
     lambda: acceptance.check_estimator_unbiasedness(n_replays=20_000)),
    ("used-feedback-marginal",
     acceptance.check_used_feedback_marginal,
     lambda: acceptance.check_used_feedback_marginal(n_pairs=20_000)),
    ("importance-estimate-unbiased",
     acceptance.check_importance_estimate_unbiased,
     lambda: acceptance.check_importance_estimate_unbiased(n_epochs=1_500)),
    ("concentration-events",
     acceptance.check_concentration_events,
     lambda: acceptance.check_concentration_events(n_epochs=200)),
    ("rejection-inactivity",
     acceptance.check_rejection_inactivity,
     lambda: acceptance.check_rejection_inactivity(replicates=3)),
    ("horizon-scaling",
     acceptance.check_t_scaling,
     lambda: acceptance.check_t_scaling(replicates=4,
                                        horizons=(2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14))),
    ("context-independence",
     acceptance.check_context_independence,
     lambda: acceptance.check_context_independence(replicates=4)),
    ("independence-number-scaling",
     acceptance.check_alpha_scaling,
     lambda: acceptance.check_alpha_scaling(replicates=4)),
    ("graph-inverse-bound",
     acceptance.check_graph_inverse_bound,
     lambda: acceptance.check_graph_inverse_bound(n_graphs=30)),
    ("independence-oracle-equivalence",
     acceptance.check_independence_oracle,
     lambda: acceptance.check_independence_oracle(n_graphs=120)),
    ("determinism",
     acceptance.check_determinism,
     acceptance.check_determinism),
]


def check_names() -> list[str]:
    return [name for name, _, _ in _CHECKS]


def run_checks(level: str = "quick", names: Iterable[str] | None = None,
               echo: Callable[[str], None] = print) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    wanted = set(names) if names is not None else None
    if wanted:
        missing = wanted - set(check_names())
        if missing:
            raise ValueError(f"unknown checks: {sorted(missing)}")
    results = []
    for name, full_fn, quick_fn in _CHECKS:
        if wanted is not None and name not in wanted:
            continue
        fn = full_fn if level == "full" else quick_fn
        res = fn()
        echo(res.line())
        results.append(res)
    return results
