"""Parsing Python source: the program's one call to :func:`ast.parse`.

Templates, generated fragments and analyzed modules are all parsed
here. One module-level lock serialises the parse: on CPython 3.11,
``ast.parse`` keeps its AST-constructor recursion depth in
interpreter-wide state, so two threads converting trees at once (a
garbage collection or a thread switch in the middle of one conversion
is enough) can fail with ``SystemError: AST constructor recursion
depth mismatch``. The lock is uncontended on a single request.

This module imports only the standard library, so every layer can use
it without pulling in the analyzer.
"""

from __future__ import annotations

import ast
import threading

_PARSE_LOCK = threading.Lock()


def parse(source: str, filename: str = "<unknown>") -> ast.Module:
    """``ast.parse(source, filename)``, one thread at a time."""
    with _PARSE_LOCK:
        return ast.parse(source, filename=filename)
