"""Shared Unix-socket plumbing for the serve tests.

``socket_server`` runs an :class:`EngineServer` in a daemon thread of
the test process; ``serve_process`` runs ``python -m repro.cli serve``
as a real subprocess. Both wait for the socket file before returning,
and :func:`roundtrip` pipelines requests over one fresh connection.
"""

from __future__ import annotations

import json
import os
import socket as socketlib
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.engine import CryptoGenEngine, EngineServer

SRC = str(Path(repro.__file__).parents[1])


def wait_for_socket(
    path: Path, *, process: subprocess.Popen | None = None, timeout: float = 30.0
) -> None:
    """Block until a server has bound ``path``."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        if process is not None:
            assert process.poll() is None, "server died during startup"
        assert time.monotonic() < deadline, "server socket never appeared"
        time.sleep(0.01)


def roundtrip(path: Path, requests: list[dict]) -> list[dict]:
    """Send every request on one new connection, then read one response
    per request (the server answers each connection in request order)."""
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.connect(str(path))
    sock.sendall("".join(json.dumps(r) + "\n" for r in requests).encode())
    reader = sock.makefile("r", encoding="utf-8")
    responses = [json.loads(reader.readline()) for _ in requests]
    sock.close()
    return responses


@pytest.fixture()
def socket_server(tmp_path):
    """``start(engine=None, **server_kwargs) -> (server, path, thread)``:
    an :class:`EngineServer` on ``tmp_path/engine.sock``, served from a
    daemon thread."""

    def start(engine: CryptoGenEngine | None = None, **kwargs):
        path = tmp_path / "engine.sock"
        server = EngineServer(engine or CryptoGenEngine(), **kwargs)
        thread = threading.Thread(
            target=server.serve_socket, args=(path,), daemon=True
        )
        thread.start()
        wait_for_socket(path)
        return server, path, thread

    return start


@pytest.fixture()
def serve_process(tmp_path):
    """``start(*serve_args, env=None) -> (process, path)``: a
    ``python -m repro.cli serve --socket <path>`` subprocess, killed at
    teardown if it is still running."""
    processes: list[subprocess.Popen] = []

    def start(*args: str, env: dict[str, str] | None = None):
        path = tmp_path / "serve.sock"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--socket",
                str(path),
                *args,
            ],
            env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        processes.append(process)
        wait_for_socket(path, process=process)
        return process, path

    yield start
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
