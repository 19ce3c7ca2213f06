import json
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from crossbandit.cli import main
from crossbandit.config import _KEYS, parse_config
from crossbandit.graph import GraphSpec
from crossbandit.harness import ConfigError, OracleSpec, RunConfig, validate_config

MINIMAL = """
[run]
algo = known
horizon = 1024
seed = 3

[graph]
spec = complete:4

[env]
contexts = 2
oracle = stochastic_gap
"""


def write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_config_valid(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.algo == "known"
        assert cfg.horizon == 1024
        assert cfg.num_contexts == 2
        assert cfg.replicates == 1
        assert cfg.nu is None

    def test_missing_seed_rejected(self, tmp_path):
        text = MINIMAL.replace("seed = 3\n", "")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write_cfg(tmp_path, text))

    def test_unknown_key_rejected_with_path(self, tmp_path):
        text = MINIMAL + "\n[params]\nmode = auto\nbogus_knob = 1\n"
        with pytest.raises(ConfigError, match="params.bogus_knob"):
            parse_config(write_cfg(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = MINIMAL + "\n[plots]\nstyle = dark\n"
        with pytest.raises(ConfigError, match="plots"):
            parse_config(write_cfg(tmp_path, text))

    def test_epoch_mismatch_suggests_fix(self, tmp_path):
        text = """
[run]
algo = unknown
horizon = 1000
seed = 5

[graph]
spec = cliques:4x4

[env]
contexts = 4
oracle = stochastic_gap

[params]
mode = manual
epoch_len = 504
eta = 0.001
gamma = 0.05
"""
        with pytest.raises(ConfigError, match="1008"):
            parse_config(write_cfg(tmp_path, text))

    def test_explicit_nu_parsed(self, tmp_path):
        text = MINIMAL.replace("contexts = 2", "contexts = 2\nnu = 0.7,0.3")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.nu == (0.7, 0.3)
        assert np.allclose(validate_config(cfg).nu, [0.7, 0.3])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="exist"):
            parse_config(tmp_path / "nope.ini")

    def test_inline_comments_allowed(self, tmp_path):
        text = MINIMAL.replace("horizon = 1024", "horizon = 1024  # rounds")
        assert parse_config(write_cfg(tmp_path, text)).horizon == 1024

    def test_every_field_has_exactly_one_ini_key(self):
        keys = Counter((cls, name) for cls, name, _ in _KEYS.values())
        assert set(keys.values()) == {1}
        assert set(keys) == {(cls, f.name) for cls in (RunConfig, OracleSpec)
                             for f in fields(cls)} - {(RunConfig, "oracle")}

    def test_omitted_keys_keep_the_dataclass_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg == RunConfig(graph=GraphSpec.parse("complete:4"),
                                oracle=OracleSpec(kind="stochastic_gap"), num_contexts=2,
                                horizon=1024, algo="known", seed=3)

    def test_every_key_reaches_its_field(self, tmp_path):
        bids = tmp_path / "bids.csv"
        bids.write_text("0.5\n" * 64)
        text = f"""
[run]
algo = unknown
horizon = 64
seed = 9
replicates = 3

[graph]
spec = triangular:4

[env]
contexts = 2
nu = 0.25, 0.75
oracle = auction
base = 0.3
gap = 0.1
best_stride = 2
low = 0.1
high = 0.7
table = unused.npy
value_grid = 0.2,0.8
bid_grid = 0,0.25,0.5,1
bids_file = {bids}

[params]
mode = manual
tuned_scale = 0.5
eta = 0.01
gamma = 0.05
epoch_len = 16
iota = 6
eta_scale = 2
gamma_ix = 0.1

[output]
dir = out
trace = full
diagnostics = yes
"""
        oracle = OracleSpec(kind="auction", base=0.3, gap=0.1, best_stride=2, low=0.1, high=0.7,
                            table_path="unused.npy", value_grid=(0.2, 0.8),
                            bid_grid=(0.0, 0.25, 0.5, 1.0), bids_path=str(bids))
        assert parse_config(write_cfg(tmp_path, text)) == RunConfig(
            graph=GraphSpec(kind="ordered_triangular", num_arms=4), oracle=oracle,
            num_contexts=2, horizon=64, algo="unknown", seed=9, nu=(0.25, 0.75), replicates=3,
            param_mode="manual", tuned_scale=0.5, eta=0.01, gamma=0.05, epoch_len=16, iota=6.0,
            eta_scale=2.0, gamma_ix=0.1, trace_level="full", diagnostics=True, output_dir="out")

    def test_unknown_keys_are_reported_before_missing_ones(self, tmp_path):
        text = MINIMAL.replace("seed = 3\n", "") + "\n[params]\nbogus = 1\n"
        with pytest.raises(ConfigError, match="params.bogus"):
            parse_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("old,new,key", [
        ("horizon = 1024", "horizon = many", "run.horizon"),
        ("contexts = 2", "contexts = 2\nnu = 0.5,half", "env.nu"),
        ("oracle = stochastic_gap", "oracle = stochastic_gap\n[output]\ndiagnostics = maybe",
         "output.diagnostics"),
    ])
    def test_unparsable_values_name_their_key(self, tmp_path, old, new, key):
        with pytest.raises(ConfigError, match=f"{key}: cannot parse"):
            parse_config(write_cfg(tmp_path, MINIMAL.replace(old, new)))


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("horizon = 1024", "horizon = 128"))
        out = tmp_path / "out"
        assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "curves.csv").exists()
        assert (out / "trace_rep000.ndjson").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["T"] == 128
        captured = capsys.readouterr().out
        assert "expected-form regret" in captured

    def test_run_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[params]\nbogus = 1\n")
        assert main(["run", "-c", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_prints_slope(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("horizon = 1024", "horizon = 64"))
        out = tmp_path / "sweep"
        assert main(["sweep", "-c", str(cfg), "--axis", "T",
                     "--values", "64,128,256", "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "log-log slope" in captured
        lines = (out / "sweep_T.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_graph_info_matches_module_oracles(self, capsys):
        assert main(["graph-info", "--spec", "cliques:4x4"]) == 0
        out = capsys.readouterr().out
        assert "K=16" in out and "alpha=4" in out
        assert "strongly_observable=true" in out and "edges=64" in out

    def test_graph_info_from_file(self, tmp_path, capsys):
        path = tmp_path / "adj.txt"
        path.write_text("0 1\n1\n")
        assert main(["graph-info", "--file", str(path)]) == 0
        assert "K=2" in capsys.readouterr().out

    def test_graph_info_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "adj.txt"
        path.write_text("1\n0\n")  # no self-loops
        assert main(["graph-info", "--file", str(path)]) == 2

    def test_verify_single_cheap_check(self, capsys):
        assert main(["verify", "--level", "quick",
                     "--only", "independence-oracle-equivalence"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] 10 independence-oracle-equivalence" in out
        assert "1/1 checks passed" in out

    def test_verify_quick_concentration_events_passes(self, capsys):
        # the check needs at least 200 epochs, so its quick scale must run them
        assert main(["verify", "--level", "quick",
                     "--only", "concentration-events"]) == 0
        assert "[PASS] 04 concentration-events" in capsys.readouterr().out

    def test_verify_rejects_unknown_names_before_running_any(self, monkeypatch):
        from crossbandit import verify
        from crossbandit.acceptance import CheckResult

        calls = []

        def record():
            calls.append(1)
            return CheckResult(name="recorded", passed=True, detail="", seconds=0.0)

        monkeypatch.setattr(verify, "_CHECKS",
                            [(name, record, record) for name in verify.check_names()])
        with pytest.raises(ValueError, match="typo"):
            verify.run_checks("full", names=["horizon-scaling", "typo"])
        assert calls == []

    def test_verify_unknown_check_name(self, capsys):
        assert main(["verify", "--only", "banana"]) == 2
