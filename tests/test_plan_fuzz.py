"""Fuzzing the one path from a config to its outputs: every small config
either fails ``validate_config`` with a ``ConfigError`` or runs and writes an
NDJSON trace per replicate, ``report.json`` and ``curves.csv`` that read back.

Cases cover every graph kind (custom ones through an adjacency file), every
oracle kind (tables as .npy or .csv, and opposing bids, through files), every
algorithm, both parameter modes, T in {0, 1, 2, 3, 4, 8, 16}, both trace
levels, and diagnostics on and off. A case is valid except for at most one
planted fault, and some valid-looking ones still fail validation (the auto
schedule needs T >= 4, a manual epoch length must divide T).
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbandit.graph import GRAPH_KINDS, GraphSpec
from crossbandit.harness import (
    ALGOS,
    ORACLE_KINDS,
    ConfigError,
    OracleSpec,
    RunConfig,
    run,
    validate_config,
    write_curves_csv,
    write_report_json,
)

HORIZONS = (0, 1, 2, 3, 4, 8, 16)
FAULTS = ("one_arm", "graph_file_missing", "graph_loopless", "nu_length", "oracle_params",
          "auction_grid", "file_short", "file_missing", "file_malformed", "table_shape",
          "tuned_scale", "manual_eta", "manual_eta_inf", "manual_unset", "manual_odd_epoch",
          "negative_seed")


@st.composite
def cases(draw):
    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS)))
    graph_kind = draw(st.sampled_from(GRAPH_KINDS))
    if fault == "one_arm":
        sizes, K = (1,), 1
    else:
        sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        K = sum(sizes) if graph_kind == "disjoint_cliques" else draw(st.integers(2, 5))
        if K < 2:
            sizes, K = sizes + (1,), K + 1
    manual = draw(st.booleans())
    return dict(
        fault=fault, graph_kind=graph_kind, sizes=sizes, K=K,
        edge_prob=draw(st.sampled_from((0.0, 0.5, 1.0))), M=draw(st.integers(1, 3)),
        given_nu=draw(st.booleans()), oracle_kind=draw(st.sampled_from(ORACLE_KINDS)),
        csv_table=draw(st.booleans()), bids_file=draw(st.booleans()),
        algo=draw(st.sampled_from(ALGOS)), T=draw(st.sampled_from(HORIZONS)),
        manual=manual, epoch_len=draw(st.sampled_from((2, 4))),
        manual_eta=draw(st.sampled_from((None, 0.5))), iota=draw(st.sampled_from((None, 6.0))),
        tuned_scale=draw(st.sampled_from((1.0, 0.02))),
        replicates=draw(st.integers(1, 2)), seed=draw(st.integers(0, 2 ** 16)),
        trace_level=draw(st.sampled_from(("light", "full"))), diagnostics=draw(st.booleans()),
    )


def _graph_spec(case, tmp: Path) -> GraphSpec:
    kind, K, fault = case["graph_kind"], case["K"], case["fault"]
    if kind == "disjoint_cliques":
        return GraphSpec(kind=kind, clique_sizes=case["sizes"])
    if kind == "erdos_renyi":
        return GraphSpec(kind=kind, num_arms=K, edge_prob=case["edge_prob"])
    if kind != "custom":
        return GraphSpec(kind=kind, num_arms=K)
    path = tmp / "graph.txt"
    if fault != "graph_file_missing":
        loop = fault != "graph_loopless"  # arm a always reveals arm a + 1
        path.write_text("".join(" ".join(str(b) for b in range(K)
                                         if (b == a and loop) or b == (a + 1) % K) + "\n"
                                for a in range(K)))
    return GraphSpec(kind="custom", path=str(path))


def _write_file(case, path: Path, text: str) -> str:
    if case["fault"] != "file_missing":
        path.write_text(text)
    return str(path)


def _oracle_spec(case, tmp: Path) -> OracleSpec:
    kind, fault, T, M, K = case["oracle_kind"], case["fault"], case["T"], case["M"], case["K"]
    rounds = max(T - 1, 0) if fault == "file_short" else T
    if kind == "stochastic_gap":
        return OracleSpec(kind=kind, base=0.9 if fault == "oracle_params" else 0.4)
    if kind == "adversarial_shift":
        return OracleSpec(kind=kind, low=0.9 if fault == "oracle_params" else 0.2)
    if kind == "auction":
        grid = tuple(np.linspace(0.0, 1.0, M + 1 if fault == "auction_grid" else M))
        if not case["bids_file"]:
            return OracleSpec(kind=kind, value_grid=grid)
        bids = "".join(f"{b!r}\n" for b in np.linspace(0.0, 1.0, rounds).tolist())
        if fault == "file_malformed":
            bids = "0.5\nhalf\n" + bids
        return OracleSpec(kind=kind, value_grid=grid,
                          bids_path=_write_file(case, tmp / "bids.csv", "bid\n" + bids))
    shape = (rounds, M + (fault == "table_shape"), K)
    losses = np.random.default_rng(0).random(shape)
    if case["csv_table"] or fault == "file_malformed":
        rows = "".join(f"{t},{c},{a},{losses[t, c, a].item()!r}\n"
                       for t, c, a in np.ndindex(shape))
        if fault == "file_malformed":
            rows += "-1,0,0,0.5\n"
        path = _write_file(case, tmp / "losses.csv", "t,c,a,loss\n" + rows)
    else:
        path = str(tmp / "losses.npy")
        if fault != "file_missing":
            np.save(path, losses)
    return OracleSpec(kind="table", table_path=path)


def _config(case, tmp: Path) -> RunConfig:
    M, fault = case["M"], case["fault"]
    if fault == "nu_length":
        nu = (1.0 / (M + 1),) * (M + 1)
    else:
        nu = tuple(np.arange(1, M + 1) / (M * (M + 1) / 2)) if case["given_nu"] else None
    params = dict(param_mode="manual" if case["manual"] else "auto",
                  tuned_scale=-1.0 if fault == "tuned_scale" else case["tuned_scale"])
    if case["manual"]:
        params.update(epoch_len=3 if fault == "manual_odd_epoch" else case["epoch_len"],
                      eta={"manual_eta": -1.0, "manual_eta_inf": math.inf}.get(
                          fault, case["manual_eta"]),
                      gamma=None if fault == "manual_unset" else 0.1, iota=case["iota"])
    return RunConfig(graph=_graph_spec(case, tmp), oracle=_oracle_spec(case, tmp),
                     num_contexts=M, horizon=case["T"], algo=case["algo"],
                     seed=-1 - case["seed"] if fault == "negative_seed" else case["seed"],
                     nu=nu, replicates=case["replicates"], trace_level=case["trace_level"],
                     diagnostics=case["diagnostics"], **params)


@settings(max_examples=1000, deadline=None)
@given(case=cases())
def test_every_config_is_rejected_at_validation_or_runs(case):
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        config = _config(case, tmp)
        try:
            plan = validate_config(config)
        except ConfigError:
            return
        result = run(config)
        T, R = config.horizon, config.replicates
        epochs = T // plan.schedule.epoch_len if plan.schedule else 0
        out = tmp / "out"
        out.mkdir()
        for trace in result.traces:
            path = out / f"trace_rep{trace.replicate:03d}.ndjson"
            trace.write_ndjson(path)
            records = [json.loads(line) for line in path.read_text().splitlines()]
            assert len(records) == 1 + T + epochs
            assert records[0]["kind"] == "meta" and records[0]["T"] == T
            assert [r["t"] for r in records[1:1 + T]] == list(range(T))
            assert [r["kind"] for r in records[1 + T:]] == ["epoch"] * epochs
        write_report_json(result, out / "report.json")
        write_curves_csv(result, out / "curves.csv")
        report = json.loads((out / "report.json").read_text())
        assert report["T"] == T and report["replicates"] == R == len(result.traces)
        assert np.isfinite(report["mean_expected_regret"])
        assert len((out / "curves.csv").read_text().splitlines()) == 1 + T * R
