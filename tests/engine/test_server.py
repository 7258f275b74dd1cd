"""The NDJSON serve protocol (:class:`EngineServer`)."""

from __future__ import annotations

import io
import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro import faults
from repro.engine import CryptoGenEngine, EngineServer, PROTOCOL_VERSION
from repro.usecases import use_case

from .conftest import roundtrip

TEMPLATE = str(use_case(1).template_path())


@pytest.fixture()
def server():
    srv = EngineServer(CryptoGenEngine())
    yield srv
    srv.engine.close()


def _run(server, requests: list) -> list[dict]:
    """Feed request lines through the real serve loop; parse responses."""
    lines = [
        r if isinstance(r, str) else json.dumps(r) for r in requests
    ]
    out = io.StringIO()
    server.serve_stream(iter(line + "\n" for line in lines), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _run_in_turn(server, requests: list[dict]) -> list[dict]:
    """Like :func:`_run`, but each request goes out only after every
    earlier response is written. The protocol orders responses, not
    execution, so tests whose assertions depend on one request having
    finished before the next starts must not pipeline."""
    out = io.StringIO()

    def lines():
        for sent, request in enumerate(requests):
            deadline = time.monotonic() + 60.0
            while (
                out.getvalue().count("\n") < sent
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            yield json.dumps(request) + "\n"

    server.serve_stream(lines(), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestProtocol:
    def test_ping(self, server):
        [response] = _run(server, [{"id": 1, "op": "ping"}])
        assert response["ok"] and response["id"] == 1
        assert response["protocol"] == PROTOCOL_VERSION
        assert response["rules"] > 0

    def test_generate_then_warm_generate(self, server):
        responses = _run_in_turn(
            server,
            [
                {"id": "a", "op": "generate", "template": TEMPLATE},
                {"id": "b", "op": "generate", "template": TEMPLATE},
            ],
        )
        first, second = responses
        assert first["ok"] and first["id"] == "a"
        assert "source" in first["result"]
        assert first["trace"]["spans"]
        assert "elapsed_ms" in first
        assert second["ok"] and second["warm"]
        assert second["dfa_builds"] == 0

    def test_generate_inline_source(self, server):
        source = Path(TEMPLATE).read_text(encoding="utf-8")
        [response] = _run(
            server,
            [{"id": 2, "op": "generate", "source": source, "name": "t.py"}],
        )
        assert response["ok"]

    def test_analyze(self, server):
        gen, ana = _run(
            server,
            [
                {"id": 1, "op": "generate", "template": TEMPLATE},
                {
                    "id": 2,
                    "op": "analyze",
                    "sources": {"m.py": "PLACEHOLDER"},
                },
            ],
        )
        assert gen["ok"]
        # Second pass with the real generated source.
        srv = EngineServer(CryptoGenEngine())
        [response] = _run(
            srv,
            [
                {
                    "id": 3,
                    "op": "analyze",
                    "sources": {"m.py": gen["result"]["source"]},
                }
            ],
        )
        assert response["ok"]
        assert response["result"]["is_secure"]
        srv.engine.close()

    def test_stats(self, server):
        _, stats = _run_in_turn(
            server,
            [
                {"id": 1, "op": "generate", "template": TEMPLATE},
                {"id": 2, "op": "stats"},
            ],
        )
        assert stats["ok"]
        assert stats["requests"] == 1
        assert "dfa_builds" in stats["compiled_rules"]
        assert "stages" in stats["diagnostics"]
        assert "hit_rate" in stats["summary_cache"]

    def test_repeat_analyze_reuses_resident_summaries(self, server):
        sources = {
            "helpers.py": "def make_iv():\n    return b'0' * 16\n",
            "app.py": (
                "from helpers import make_iv\n"
                "def run():\n"
                "    iv = make_iv()\n"
                "    return iv\n"
            ),
        }
        cold, warm, stats = _run_in_turn(
            server,
            [
                {"id": 1, "op": "analyze", "sources": sources},
                {"id": 2, "op": "analyze", "sources": sources},
                {"id": 3, "op": "stats"},
            ],
        )
        assert cold["ok"] and warm["ok"]
        assert cold["reanalyzed_functions"] == cold["result"]["total_functions"]
        # the resident cache answers the entire second request
        assert warm["reanalyzed_functions"] == 0
        assert (
            warm["result"]["summary_cache_hits"]
            == warm["result"]["total_functions"]
        )
        assert warm["result"]["modules"] == cold["result"]["modules"]
        assert stats["summary_cache"]["hit_rate"] == 0.5

    def test_shutdown_stops_the_loop(self, server):
        responses = _run(
            server,
            [
                {"id": 1, "op": "shutdown"},
                {"id": 2, "op": "ping"},  # never reached
            ],
        )
        assert len(responses) == 1
        assert responses[0]["op"] == "shutdown" and responses[0]["ok"]


class TestMalformedInput:
    def test_bad_json_gets_structured_error_and_loop_survives(self, server):
        responses = _run(
            server,
            [
                "this is not json {",
                {"id": 9, "op": "ping"},
            ],
        )
        error, ping = responses
        assert error["ok"] is False
        assert error["id"] is None
        assert error["error"]["type"] == "JSONDecodeError"
        assert ping["ok"]  # the daemon survived

    def test_non_object_request(self, server):
        [response] = _run(server, ["[1, 2, 3]"])
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"

    def test_unknown_op(self, server):
        [response] = _run(server, [{"id": 5, "op": "transmogrify"}])
        assert response["ok"] is False
        assert response["id"] == 5
        assert "unknown op" in response["error"]["message"]

    def test_missing_op(self, server):
        [response] = _run(server, [{"id": 6}])
        assert response["ok"] is False
        assert "op" in response["error"]["message"]

    @pytest.mark.parametrize("jobs", ["x", True, 1.9, 0, -1, None])
    @pytest.mark.parametrize("op", ["analyze", "generate"])
    def test_bad_jobs_is_protocol_error(self, server, op, jobs):
        request = {"id": 9, "op": op, "jobs": jobs}
        if op == "analyze":
            request["sources"] = {"m.py": "x = 1\n"}
        else:
            request["templates"] = [TEMPLATE, TEMPLATE]
        [response] = _run(server, [request])
        assert not response["ok"] and response["id"] == 9
        assert response["error"]["type"] == "ProtocolError"
        assert "jobs" in response["error"]["message"]

    def test_huge_jobs_is_clamped_to_the_cpu_count(self, server, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        response, health = _run_in_turn(
            server,
            [
                {
                    "id": 1,
                    "op": "analyze",
                    "sources": {"m.py": "x = 1\n"},
                    "jobs": 10**6,
                },
                {"id": 2, "op": "health", "probe": False},
            ],
        )
        assert response["ok"]
        assert health["pool"]["jobs"] == 2

    def test_generate_without_payload(self, server):
        [response] = _run(server, [{"id": 7, "op": "generate"}])
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"

    def test_blank_lines_are_skipped(self, server):
        responses = _run(server, ["", "   ", {"id": 1, "op": "ping"}])
        assert len(responses) == 1


class TestTimeout:
    def test_overdue_request_times_out_and_server_keeps_serving(
        self, monkeypatch
    ):
        # The regression this pins down: a timeout used to flip the
        # drain flag and kill the whole server. Now only the offending
        # request pays — a slow request followed by a fast one on the
        # same connection yields a structured TimeoutError and then a
        # normal answer, in request order.
        import time

        server = EngineServer(CryptoGenEngine(), timeout=0.05, workers=2)
        real_generate = server.engine.generate

        def slow_generate(request):
            # Deterministically overdue: sleep releases the GIL, so the
            # writer's deadline always fires (a plain warm generate
            # can hold the GIL to completion and beat a tiny timeout).
            time.sleep(0.5)
            return real_generate(request)

        monkeypatch.setattr(server.engine, "generate", slow_generate)
        responses = _run(
            server,
            [
                {"id": 1, "op": "generate", "template": TEMPLATE},
                {"id": 2, "op": "ping"},  # answered after the timeout
            ],
        )
        assert len(responses) == 2
        timed_out, ping = responses
        assert timed_out["ok"] is False
        assert timed_out["id"] == 1
        assert timed_out["error"]["type"] == "TimeoutError"
        assert ping["ok"] and ping["id"] == 2 and ping["op"] == "ping"
        # Responses come back in request order (per-connection seqs).
        assert [r["seq"] for r in responses] == [1, 2]
        stats = server.metrics.to_dict(server.engine.diagnostics)
        assert stats["timeouts"] == 1

    def test_fast_requests_beat_the_deadline(self, monkeypatch):
        server = EngineServer(CryptoGenEngine(), timeout=30.0, workers=2)
        responses = _run(
            server,
            [{"id": 1, "op": "ping"}, {"id": 2, "op": "ping"}],
        )
        assert [r["ok"] for r in responses] == [True, True]
        stats = server.metrics.to_dict(server.engine.diagnostics)
        assert stats["timeouts"] == 0

    def test_requests_cancelled_while_queued_leave_the_in_flight_gauge(
        self,
    ):
        # One worker and every task stalled: the first ping overruns
        # its 10 ms budget while running, and the two behind it are
        # cancelled while still queued, so they never run at all.
        faults.configure("slow_task:1.0")
        server = EngineServer(CryptoGenEngine(), workers=1)
        try:
            responses = _run(
                server,
                [
                    {"id": n, "op": "ping", "deadline_ms": 10}
                    for n in (1, 2, 3)
                ],
            )
            assert [r["error"]["type"] for r in responses] == [
                "TimeoutError"
            ] * 3
            # The abandoned first ping finishes in the background.
            deadline = time.monotonic() + 5.0
            while server.metrics.in_flight and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = server.metrics.to_dict(server.engine.diagnostics)
            assert stats["dispatched"] == 3
            assert stats["in_flight"] == 0
        finally:
            faults.reset()
            server.engine.close()


class TestRefreshRules:
    def test_refresh_over_the_protocol(self, tmp_path):
        rules = tmp_path / "rules"
        rules.mkdir()
        for path in sorted(Path("src/repro/rules").glob("*.crysl")):
            shutil.copy(path, rules / path.name)
        server = EngineServer(CryptoGenEngine(rules_dir=rules))

        [clean] = _run(server, [{"id": 1, "op": "refresh-rules"}])
        assert clean["ok"] and clean["report"]["dirty"] is False

        target = rules / "SecureRandom.crysl"
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace("ENSURES", "ENSURES "), encoding="utf-8")
        [dirty] = _run(server, [{"id": 2, "op": "refresh-rules"}])
        assert dirty["report"]["changed"] == ["repro.jca.SecureRandom"]
        server.engine.close()

    def test_refresh_without_repository_is_protocol_error(self, server):
        [response] = _run(server, [{"id": 1, "op": "refresh-rules"}])
        assert response["ok"] is False
        assert "--rules" in response["error"]["message"]


class TestServeStage:
    def test_serve_stage_recorded(self, server):
        _run(server, [{"id": 1, "op": "ping"}])
        assert "serve" in server.engine.diagnostics.stages


class TestShutdownUnderLoad:
    def test_sigterm_drains_with_ordered_responses_and_exit_0(
        self, serve_process
    ):
        """SIGTERM with a loaded queue and crashing workers exits 0.

        A real server subprocess gets a pipelined burst (every dispatch
        slowed by fault injection, plus one pool batch with worker
        crashes enabled), then SIGTERM mid-flight. The accepted
        requests must all flush — in per-connection ``seq`` order, no
        gaps — and the process must exit 0.
        """
        import signal
        import socket as socketlib

        process, sock_path = serve_process(
            env={"REPRO_FAULTS": "slow_task:1.0,worker_crash:0.5,seed=7"}
        )
        client = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        client.connect(str(sock_path))
        requests = [{"id": n, "op": "ping"} for n in range(1, 11)]
        # One supervised-pool batch: worker_crash p=0.5 guarantees
        # the drain overlaps pool restarts, not just queued pings.
        requests.insert(
            5,
            {
                "id": "batch",
                "op": "generate",
                "templates": [TEMPLATE, TEMPLATE],
                "jobs": 2,
            },
        )
        payload = "".join(json.dumps(r) + "\n" for r in requests)
        client.sendall(payload.encode())
        time.sleep(0.3)  # let the reader ingest the burst
        process.send_signal(signal.SIGTERM)

        reader = client.makefile("r", encoding="utf-8")
        responses = [json.loads(line) for line in reader]
        client.close()
        assert process.wait(timeout=60) == 0

        # Every accepted request answered, in order, no gaps.
        assert responses, "drain flushed nothing"
        assert [r["seq"] for r in responses] == list(
            range(1, len(responses) + 1)
        )
        for response in responses:
            assert response["ok"], response


class TestAcceptLoopResilience:
    def test_fd_exhaustion_on_accept_backs_off_and_keeps_serving(
        self, socket_server, monkeypatch
    ):
        import errno
        import socket as socketlib

        real_accept = socketlib.socket.accept
        state = {"failed": False}

        def flaky_accept(self):
            if not state["failed"]:
                state["failed"] = True
                raise OSError(errno.EMFILE, "Too many open files")
            return real_accept(self)

        monkeypatch.setattr(socketlib.socket, "accept", flaky_accept)
        server, path, thread = socket_server()

        # The first accept attempt hits EMFILE; the loop backs off and
        # accepts this same connection on the next readiness pass.
        ping, _ = roundtrip(
            path, [{"id": 1, "op": "ping"}, {"id": 2, "op": "shutdown"}]
        )
        thread.join(10.0)

        assert ping["ok"] and ping["op"] == "ping"
        stats = server.metrics.to_dict(server.engine.diagnostics)
        assert stats["accept_errors"] == 1


class TestSocketTransport:
    def test_unix_socket_round_trip(self, socket_server):
        server, path, thread = socket_server()
        ping, shutdown = roundtrip(
            path, [{"id": 1, "op": "ping"}, {"id": 2, "op": "shutdown"}]
        )
        thread.join(5.0)

        assert ping["ok"] and ping["op"] == "ping"
        assert shutdown["ok"] and shutdown["op"] == "shutdown"
        assert not thread.is_alive()
        assert not path.exists()  # socket file cleaned up
