"""Names, units and meaning of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats the names, units and
bounds; the smoke test keeps the two in step. For each per-layer metric the
table records which end-to-end metric it should move, the workload where the
layer carries the work, and the workload where it should not move.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float    # share of the parent's median by which it may get worse
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    moves: str      # end-to-end metric this layer metric should move
    carries: str    # workload where the layer carries the work
    idle: str       # workload where it should not move ("-" if none)


END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.25,
             "one workload job: parse_config of its INI files, every run call, "
             "summaries and every writer, each step's median over the run's jobs"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median over fresh probe processes of the time from process start to "
             "the first run call: import crossbandit, write and parse the INI files"),
    EndToEnd("rounds_per_s.known", "1/s", "higher", 0.25,
             "horizon x replicates / seconds inside harness.run, each run call's "
             "median over the run's jobs"),
    EndToEnd("rounds_per_s.unknown", "1/s", "higher", 0.25,
             "as above, for the epoch learner"),
    EndToEnd("rounds_per_s.per_context_exp3g", "1/s", "higher", 0.25,
             "as above, for the per-context Exp3-G baseline"),
    EndToEnd("output_s", "s", "lower", 0.25,
             "seconds in Trace.write_ndjson, write_report_json and "
             "write_curves_csv, each config's writes at their median over the run's jobs"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident memory of the workload process"),
)

_R = "rounds_per_s.*"

PER_LAYER = (
    PerLayer("harness.run_replicate.calls", "count", _R, "sweep", "wide"),
    PerLayer("harness.run_replicate.self_s", "s", _R, "sweep", "wide"),
    PerLayer("harness.summarize_regret.self_s", "s", "wall_s", "sweep", "outputs"),
    PerLayer("harness.validate_config.s", "s", "wall_s", "sweep", "outputs"),
    PerLayer("environment.sample_context.calls", "count", _R, "sweep", "wide"),
    PerLayer("environment.sample_context.self_s", "s", _R, "sweep", "wide"),
    PerLayer("environment.loss_slice.calls", "count", _R, "wide", "sweep"),
    PerLayer("environment.loss_slice.self_s", "s", _R, "wide", "sweep"),
    PerLayer("environment.reveal.calls", "count", _R, "wide", "sweep"),
    PerLayer("environment.reveal.self_s", "s", _R, "wide", "sweep"),
    PerLayer("environment.reveal.cells", "count", _R, "wide", "sweep"),
    PerLayer("simplex.exp_weights.calls", "count",
             "rounds_per_s.known, rounds_per_s.unknown", "wide", "sweep"),
    PerLayer("simplex.exp_weights.self_s", "s",
             "rounds_per_s.known, rounds_per_s.unknown", "wide", "sweep"),
    PerLayer("simplex.exp_weights.elems", "count",
             "rounds_per_s.known, rounds_per_s.unknown", "wide", "sweep"),
    PerLayer("simplex.sample_arm.calls", "count", _R, "sweep", "wide"),
    PerLayer("simplex.sample_arm.self_s", "s", _R, "sweep", "wide"),
    PerLayer("graph.build_graph.calls", "count", "setup_s, wall_s", "wide", "sweep"),
    PerLayer("graph.build_graph.s", "s", "setup_s, wall_s", "wide", "sweep"),
    PerLayer("graph.in_mass_rows.calls", "count", "rounds_per_s.unknown", "wide", "sweep"),
    PerLayer("graph.in_mass_rows.self_s", "s", "rounds_per_s.unknown", "wide", "sweep"),
    PerLayer("graph.in_mass_rows.elems", "count", "rounds_per_s.unknown", "wide", "sweep"),
    PerLayer("known.act.self_s", "s", "rounds_per_s.known", "wide", "sweep"),
    PerLayer("known.update.self_s", "s", "rounds_per_s.known", "wide", "sweep"),
    PerLayer("unknown.act.self_s", "s", "rounds_per_s.unknown", "sweep", "wide"),
    PerLayer("unknown.update.self_s", "s", "rounds_per_s.unknown", "sweep", "wide"),
    PerLayer("unknown.end_epoch.self_s", "s", "rounds_per_s.unknown", "sweep", "wide"),
    PerLayer("baselines.act.self_s", "s", "rounds_per_s.per_context_exp3g", "sweep", "wide"),
    PerLayer("baselines.update.self_s", "s", "rounds_per_s.per_context_exp3g", "sweep", "wide"),
    PerLayer("harness.Trace.write_ndjson.s", "s", "output_s", "outputs", "-"),
    PerLayer("harness.Trace.write_ndjson.bytes", "bytes", "output_s", "outputs", "-"),
    PerLayer("harness.write_curves_csv.s", "s", "output_s", "outputs", "-"),
    PerLayer("harness.write_curves_csv.bytes", "bytes", "output_s", "outputs", "-"),
    PerLayer("harness.write_report_json.s", "s", "output_s", "outputs", "-"),
    PerLayer("diagnostics.attach_epoch_diagnostics.s", "s",
             "wall_s, rounds_per_s.unknown", "outputs", "-"),
    PerLayer("config.parse_config.s", "s", "setup_s", "outputs", "-"),
    PerLayer("trace.overhead_s", "s", "-", "all", "-"),
)
