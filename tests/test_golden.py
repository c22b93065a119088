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
        "2cd36a1b7dba42276d370fb52d9d0f1b22e3a8cb9b736ef0db7d62867c605a01",
    ),
    (
        "simulate",
        ["simulate", "--config", GOLDEN_CONFIG, "--noise", "1e-6"],
        "bf395cb3c08b2401e45a9b67d68f94e9bf11d27b808eba91b4f697f5524003c9",
    ),
]


@pytest.mark.parametrize("argv,digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_cli_output_is_byte_identical(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
