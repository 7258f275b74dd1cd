"""The summary-cache contract end to end through a real serve daemon.

One ``python -m repro.cli serve --cache-dir`` subprocess analyzes a copy
of ``examples/`` twice (the second request must re-summarize nothing),
then one file is shifted by a line and only its invalidation cone may
re-analyze. The daemon's summary cache has a disk tier, so this also
exercises the LRU's write-through path outside the test process.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from .conftest import roundtrip

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def test_warm_replay_and_edit_cone_through_one_daemon(tmp_path, serve_process):
    work = tmp_path / "work"
    shutil.copytree(EXAMPLES, work)
    process, path = serve_process("--cache-dir", str(tmp_path / "cache"))

    def request(payload: dict) -> dict:
        [response] = roundtrip(path, [payload])
        assert response["ok"], response
        return response

    analyze = {"id": 0, "op": "analyze", "paths": [str(work)]}
    cold = request(analyze)
    total = cold["result"]["total_functions"]
    assert cold["reanalyzed_functions"] == total > 0, cold

    # Unchanged project: the resident cache answers everything.
    warm = request(analyze)
    assert warm["reanalyzed_functions"] == 0, warm
    assert warm["result"]["summary_cache_hits"] == total
    assert warm["result"]["modules"] == cold["result"]["modules"]

    # Shift one file by a line: only its cone re-analyzes.
    target = work / "file_vault.py"
    target.write_text(
        "# touched by the test\n" + target.read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    delta = request(analyze)
    assert 0 < delta["reanalyzed_functions"] < total, delta

    stats = request({"id": 9, "op": "stats"})
    request({"id": 10, "op": "shutdown"})
    process.wait(timeout=30)
    cache = stats["summary_cache"]
    assert cache["hits"] > 0 and cache["persistent"], cache
