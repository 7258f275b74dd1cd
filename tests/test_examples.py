"""The scripts in ``examples/`` run as documented and print their counts."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, expected",
    [
        # generate_key's five objects, plus the key template_usage
        # receives from it
        ("quickstart.py", ["no misuses found (6 objects tracked)"]),
        (
            "misuse_detection.py",
            [
                "no misuses found (11 objects tracked)",
                "hand-written variant ships 5 misuses.",
            ],
        ),
    ],
)
def test_example_runs(script, expected):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for line in expected:
        assert line in proc.stdout
