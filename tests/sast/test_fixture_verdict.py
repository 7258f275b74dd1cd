"""The analyzer's verdict on the benchmark's frozen fixture project.

``perfbench/fixture/expected_findings.json`` is the hand-listed answer
every ``analyze`` of the serve_edit_loop benchmark is checked against.
This test reads the fixture (never writes it) with the same keys as
``perfbench/project.py``, so an analyzer change that would fail every
benchmark ``analyze`` fails here first.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.sast import ProjectAnalyzer

FIXTURE_DIR = Path(__file__).resolve().parents[2] / "perfbench" / "fixture"
PROJECT_DIR = FIXTURE_DIR / "project"


def test_fixture_project_verdict_matches_expected_findings():
    sources = {
        str(path.relative_to(PROJECT_DIR)): path.read_text(encoding="utf-8")
        for path in sorted(PROJECT_DIR.rglob("*.py"))
    }
    expected_modules = json.loads(
        (FIXTURE_DIR / "expected_findings.json").read_text(encoding="utf-8")
    )["modules"]
    expected = Counter(
        (key, *finding)
        for key, entry in expected_modules.items()
        for finding in entry["findings"]
    )
    modules = ProjectAnalyzer().analyze_sources(sources).to_dict()
    actual = Counter(
        (key, f["line"], f["kind"], f["rule"], f["function"], f["variable"])
        for key, report in modules.items()
        for f in report["findings"]
    )
    assert len(sources) == 22
    assert sum(expected.values()) == 11
    assert actual == expected
