"""Parsing from several threads at once.

On CPython 3.11 ``ast.parse`` keeps its AST-constructor recursion depth
in interpreter-wide state. A thread switch in the middle of one tree
conversion — forced here by a low GC threshold, finalizers that run
Python code and a tiny switch interval — lets another thread's parse
corrupt it, and ``ast.parse`` fails with ``SystemError: AST constructor
recursion depth mismatch``. Every parse in the program goes through
:func:`repro.pysource.parse`, which serialises them.
"""

from __future__ import annotations

import gc
import sys
import threading

from repro.codegen.template import parse_template_source
from repro.sast import ProjectAnalyzer
from repro.usecases import generate_use_case, use_case

THREADS = 4
ROUNDS = 30


class _Finalized:
    """A reference-cycle member whose finalizer runs a short Python
    loop, so each collection inside a parse runs bytecode there."""

    def __init__(self) -> None:
        self.cycle = self

    def __del__(self) -> None:
        total = 0
        for step in range(30):
            total += step


def test_concurrent_analyze_and_template_parse(ruleset):
    template = use_case(11).template_path().read_text(encoding="utf-8")
    module = generate_use_case(11).source
    analyzers = [ProjectAnalyzer(ruleset) for _ in range(THREADS)]
    errors: list[BaseException] = []

    def worker(analyzer: ProjectAnalyzer) -> None:
        try:
            for _ in range(ROUNDS):
                for _ in range(20):
                    _Finalized()
                result = analyzer.analyze_sources({"m.py": module})
                assert result.is_secure
                parse_template_source(template, "t.py")
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threshold, interval = gc.get_threshold(), sys.getswitchinterval()
    gc.set_threshold(50, 2, 2)
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(analyzer,))
            for analyzer in analyzers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        gc.set_threshold(*threshold)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
