"""Golden bytes of every output file for the determinism-config shapes.

The configs of ``acceptance._determinism_configs`` cover every algorithm,
oracle kind and trace level, diagnostics included, and run in a few seconds
at their own horizons. A change to these digests is a change of the output
format or of the random streams, and must be made on purpose.
"""

import hashlib

import pytest

from crossbandit.acceptance import _determinism_configs
from crossbandit.harness import run, write_curves_csv, write_report_json

SEED = 21

GOLDEN = {
    0: {"curves.csv": "4183dbf607b683e8fd65fbd94d1e8cfe",
        "report.json": "99b019796474bd9331a57d913b10f740",
        "trace_rep000.ndjson": "413053386a53f3ac670600027f2d6d0f"},
    1: {"curves.csv": "c18ae15fac45ab4e34167050a01a387f",
        "report.json": "3627025cfa1bed7721747088ff4385ab",
        "trace_rep000.ndjson": "0a730311d79fd30f032e0305829450ba",
        "trace_rep001.ndjson": "7996aa8b879562c2adb88258fea51b02"},
    2: {"curves.csv": "d786ddaeb4729a7e31646712b939ceeb",
        "report.json": "71c46505411701b9c6b15d720c087d65",
        "trace_rep000.ndjson": "814e25229385bcac0315393222ac63ec",
        "trace_rep001.ndjson": "960d62e22d1a726d03c5345383ad9355"},
    3: {"curves.csv": "ef8ceaed779cb41434e26b28f6a04d83",
        "report.json": "4ae5605673350836c6e98ede7469ca35",
        "trace_rep000.ndjson": "eaa1f2d10fe1c97f1d89f4babbe7bf6e",
        "trace_rep001.ndjson": "c5f39835a31bc0480617725f4e7a3bf5"},
    4: {"curves.csv": "278ed573e3be016a0bb1c23e9b0a55ca",
        "report.json": "9cac19eeef4a2fd53bd3a0eb3601852c",
        "trace_rep000.ndjson": "76629542dbdc990b621f0ed625bf0785"},
    5: {"curves.csv": "2d53922889e85a82bee9d6d7a1744306",
        "report.json": "e8a9f26fbb00fcd28705ba9cd32d4213",
        "trace_rep000.ndjson": "7eae09336cf919406df04143defd1905"},
}


def _digest(path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def _write_outputs(config, out):
    result = run(config)
    for trace in result.traces:
        trace.write_ndjson(out / f"trace_rep{trace.replicate:03d}.ndjson")
    write_report_json(result, out / "report.json")
    write_curves_csv(result, out / "curves.csv")
    return {p.name: _digest(p) for p in sorted(out.iterdir())}


def test_every_config_has_golden_digests():
    assert len(_determinism_configs(SEED)) == len(GOLDEN)


@pytest.mark.parametrize("idx", sorted(GOLDEN))
def test_output_bytes_match_golden(idx, tmp_path):
    config = _determinism_configs(SEED)[idx]
    assert _write_outputs(config, tmp_path) == GOLDEN[idx]
