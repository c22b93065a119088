"""Byte-identity of CLI output on a committed config.

The digests pin the exact bytes the forward engine produces for one
correction curve with local fields (dent flags included), for one
seeded design search, and for the noisy records of every configured run
(which also pins the order of the noise draws).  A change to the engine
that moves any output bit fails here; if such a change is intended,
find out why the bytes moved and record it before updating a digest.
"""

import hashlib
import os

import pytest

from weakspin.cli import main

GOLDEN_CONFIG = os.path.join(os.path.dirname(__file__), "data", "golden_config.json")

GOLDEN = [
    (
        "curve",
        ["curve", "--config", GOLDEN_CONFIG, "--run-index", "1",
         "--grid", "0.001:0.5:0.001", "--threshold", "0.05"],
        "85f8f04db8177303764896f39d7f7b4a90f76d39bf5de2e82b19dc3b161bb686",
    ),
    (
        "design",
        ["design", "--config", GOLDEN_CONFIG, "--count", "5", "--seed", "7"],
        "9014ebef9084b30d0c4b2221e188307e5a616f908a33b110d15bfa1851ccd91c",
    ),
    (
        "simulate",
        ["simulate", "--config", GOLDEN_CONFIG, "--noise", "1e-6"],
        "6f64470361c974be924b4a963278b950202bf4ee6563d1fd30860fbb25c89939",
    ),
]


@pytest.mark.parametrize("argv,digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_cli_output_is_byte_identical(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
