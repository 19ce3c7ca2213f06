"""Experiment config files: one human-editable INI per experiment.

Sections are flat key-value tables; unknown sections or keys are rejected
with their full path so typos never silently change an experiment. Each key sets
one ``RunConfig`` or ``OracleSpec`` field (``_KEYS``); every default lives in
those dataclasses, and a field without one is a required key, as the seed is.
Example:

    [run]
    algo = unknown
    horizon = 16384
    seed = 7
    replicates = 20

    [graph]
    spec = cliques:4x4

    [env]
    contexts = 8
    nu = uniform
    oracle = stochastic_gap
    gap = 0.2
    base = 0.4
    best_stride = 5

    [params]
    mode = auto
    tuned_scale = 0.02

    [output]
    dir = out
    trace = light
    diagnostics = false
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, fields
from pathlib import Path

from .graph import GraphSpec
from .harness import ConfigError, OracleSpec, RunConfig, validate_config


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(","))


# (section, key) -> (dataclass, field, parser), in the order missing keys are reported.
_KEYS = {
    ("run", "algo"): (RunConfig, "algo", str),
    ("run", "horizon"): (RunConfig, "horizon", int),
    ("run", "seed"): (RunConfig, "seed", int),
    ("run", "replicates"): (RunConfig, "replicates", int),
    ("graph", "spec"): (RunConfig, "graph", GraphSpec.parse),
    ("env", "contexts"): (RunConfig, "num_contexts", int),
    ("env", "nu"): (RunConfig, "nu", lambda v: None if v.lower() == "uniform" else _floats(v)),
    ("env", "oracle"): (OracleSpec, "kind", str),
    ("env", "base"): (OracleSpec, "base", float),
    ("env", "gap"): (OracleSpec, "gap", float),
    ("env", "best_stride"): (OracleSpec, "best_stride", int),
    ("env", "low"): (OracleSpec, "low", float),
    ("env", "high"): (OracleSpec, "high", float),
    ("env", "table"): (OracleSpec, "table_path", str),
    ("env", "value_grid"): (OracleSpec, "value_grid", _floats),
    ("env", "bid_grid"): (OracleSpec, "bid_grid", _floats),
    ("env", "bids_file"): (OracleSpec, "bids_path", str),
    ("params", "mode"): (RunConfig, "param_mode", str),
    ("params", "tuned_scale"): (RunConfig, "tuned_scale", float),
    ("params", "eta"): (RunConfig, "eta", float),
    ("params", "gamma"): (RunConfig, "gamma", float),
    ("params", "epoch_len"): (RunConfig, "epoch_len", int),
    ("params", "iota"): (RunConfig, "iota", float),
    ("output", "dir"): (RunConfig, "output_dir", str),
    ("output", "trace"): (RunConfig, "trace_level", str),
    ("output", "diagnostics"): (RunConfig, "diagnostics", _bool),
}
_REQUIRED = {(cls, f.name) for cls in (RunConfig, OracleSpec) for f in fields(cls)
             if f.default is MISSING}


def parse_config(path: str | Path) -> RunConfig:
    """Load and fully validate a run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    values = {RunConfig: {}, OracleSpec: {}}
    for section in parser.sections():
        if section not in {s for s, _ in _KEYS}:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in parser.options(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {section}.{key} in {path}")
            cls, name, cast = _KEYS[section, key]
            raw = parser.get(section, key)
            try:
                values[cls][name] = cast(raw)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    for (section, key), (cls, name, _) in _KEYS.items():
        if (cls, name) in _REQUIRED and not parser.has_option(section, key):
            raise ConfigError(f"missing required key {section}.{key} in {path}"
                              + (" (seeds are mandatory)" if key == "seed" else ""))
    config = RunConfig(oracle=OracleSpec(**values[OracleSpec]), **values[RunConfig])
    validate_config(config)
    return config
