"""Workload ``serve_edit_loop``: an IDE talking to ``cognicrypt-gen serve``.

One daemon (``--serve-workers 2``, private cache dir) on a Unix socket;
one closed-loop client connection sends a seeded mix. (A second
concurrent client doubled the run-to-run spread on a two-vCPU host:
the daemon is bound by the interpreter lock, so two clients only add
lock hand-offs and hypervisor steal, not throughput.) Most requests
are ``analyze`` (``jobs=1``) of the frozen fixture project, sent as
inline sources with one seeded edit each: a comment-only edit (the
whole project replays from the summary cache), a body edit (the caller
cone is re-analyzed) or an edit that adds a known misuse (which must
produce its known finding). The rest are ``generate``: repeats of the
verbatim templates (result-cache hits) and unique comment variants of
the non-hybrid templates, some with ``verify: true``.

``sast``, the summary cache, the result cache and protocol framing do
the work; ``codegen.selector`` does little. ``jobs>1`` is left out
because it forks the threaded daemon.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from common import (
    BENCH_DIR,
    HYBRID,
    NON_HYBRID,
    ROOT,
    TABLE1,
    BenchmarkError,
    Outcome,
    StateCheck,
    child_env,
    comment_variant,
    known_digests,
    median,
    relative,
    source_problems,
    count_summary,
    tail,
    template_name,
    template_source,
)
from layers import TraceRun
from project import Project, verdict_problems

#: Daemon spawns per run for each of ``setup_s`` and ``disk_warm_start_s``,
#: one of each before each of as many loop segments.
SETUPS = 5
#: One deck of the request mix, as (count, op, property). The client
#: deals shuffled decks, so every run has exactly these shares. The
#: shares also keep each median inside one dense cluster of latencies:
#: with 76% analyze the request median falls among the analyses, and
#: with 2/8/2 hits/unique/verify the generate median falls among the
#: unique generates. A median on the edge between two clusters moved
#: twice as much as the throughput between runs. 24% generate gives the
#: 200 generates per 25 s run that a 95th percentile needs.
DECK = (
    (13, "analyze", "comment"),
    (17, "analyze", "body"),
    (8, "analyze", "misuse"),
    (2, "generate", "repeat"),
    (8, "generate", "unique"),
    (2, "generate", "unique_verify"),
)
SPAWN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class Sample(NamedTuple):
    """One timed request."""

    op: str
    prop: str
    slug: str | None
    seconds: float
    #: the daemon's own ``elapsed_ms`` for the request
    server_ms: float
    response_bytes: int


class Client:
    """One NDJSON connection; one request in flight at a time."""

    def __init__(self, path: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(REQUEST_TIMEOUT_S)
        self._sock.connect(path)
        self._reader = self._sock.makefile("rb")

    def request(self, payload: dict) -> tuple[dict, float, int]:
        """Send one request; returns (response, seconds, response bytes)."""
        line = json.dumps(payload).encode("utf-8") + b"\n"
        started = time.perf_counter()
        self._sock.sendall(line)
        answer = self._reader.readline()
        elapsed = time.perf_counter() - started
        if not answer:
            raise BenchmarkError("the daemon closed the connection")
        return json.loads(answer), elapsed, len(answer)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class Daemon:
    """One ``serve`` process on a socket inside the run's scratch dir."""

    def __init__(self, scratch: Path, name: str, cache_dir: Path,
                 trace_dump: Path | None):
        self.socket_path = relative(scratch / f"{name}.sock")
        self.trace_dump = trace_dump
        args = ["serve", "--socket", self.socket_path, "--serve-workers", "2",
                "--cache-dir", str(cache_dir)]
        if trace_dump is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(BENCH_DIR / "traced_child.py"),
                       str(trace_dump), *args]
        self._log = open(scratch / f"{name}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=subprocess.STDOUT,
        )

    def connect(self) -> Client:
        deadline = time.perf_counter() + SPAWN_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchmarkError(f"serve exited with {self.proc.returncode}")
            try:
                return Client(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise BenchmarkError("serve did not accept connections in time")
                time.sleep(0.002)

    def first_ping(self) -> tuple[Client, float]:
        """Connect and ping; seconds from spawn to the ping's answer."""
        client = self.connect()
        response, _, _ = client.request({"id": 0, "op": "ping"})
        if not response.get("ok"):
            raise BenchmarkError(f"ping failed: {response}")
        return client, time.perf_counter() - self.started

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM missing from /proc status")

    def stop(self, client: Client) -> dict | None:
        """Shut down through the protocol and wait for the exit; returns
        the daemon's trace dump when it was traced."""
        try:
            client.request({"id": -1, "op": "shutdown"})
        finally:
            client.close()
            try:
                self.proc.wait(timeout=SPAWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchmarkError("serve did not exit after shutdown")
            finally:
                self._log.close()
        if self.proc.returncode != 0:
            raise BenchmarkError(f"serve exited with {self.proc.returncode}")
        if self.trace_dump is None:
            return None
        return json.loads(self.trace_dump.read_text(encoding="utf-8"))


class ServeEditLoop:
    def __init__(self, seed: int, scratch: Path, trace: TraceRun | None):
        self.seed = seed
        self.scratch = scratch
        self.trace = trace
        self.project = Project()
        self.digests = known_digests()
        self.sources = {slug: template_source(slug) for slug in TABLE1.values()}
        self.outcome = Outcome()
        self.state = StateCheck()
        self.combos: list[int] = []
        self._daemons: list[Daemon] = []

    def daemon(self, cache_dir: Path, traced: bool) -> Daemon:
        name = f"d{len(self._daemons)}"
        dump = self.scratch / f"{name}.trace.json" if traced else None
        daemon = Daemon(self.scratch, name, cache_dir, dump)
        self._daemons.append(daemon)
        return daemon

    def kill_all(self) -> None:
        """Stop any daemon an error left running, and wait for it."""
        for daemon in self._daemons:
            daemon.kill()

    def finish(self, daemon: Daemon, client: Client, traced: bool) -> None:
        dump = daemon.stop(client)
        if traced:
            self.trace.tracer.absorb(dump)

    def _op(self, traced: bool, seconds: float) -> None:
        if traced:
            self.trace.op(seconds)

    # -- requests -------------------------------------------------------

    def generate(self, client: Client, slug: str, source: str, *, verify: bool,
                 expect_cached: bool, traced: bool) -> tuple[dict, float, int]:
        response, seconds, size = client.request({
            "id": 1, "op": "generate", "source": source,
            "name": template_name(slug), "verify": verify,
        })
        self._op(traced, seconds)
        if not response.get("ok"):
            problems = [f"generate {slug}: {response.get('error')}"]
        else:
            problems = source_problems(slug, response["result"]["source"], self.digests)
            if response["cached"] != expect_cached:
                problems.append(
                    f"{slug}: cached={response['cached']}, expected {expect_cached}"
                )
            if not response["cached"]:
                diagnostics = response["result"]["report"]["diagnostics"]
                self.combos.append(diagnostics["counters"].get("combos.evaluated", 0))
                if traced:
                    self.trace.stages(diagnostics["stages"])
        self.outcome.record(problems)
        return response, seconds, size

    def analyze(self, client: Client, edit, traced: bool) -> tuple[dict, float, int]:
        response, seconds, size = client.request(
            {"id": 2, "op": "analyze", "sources": edit.sources, "jobs": 1}
        )
        self._op(traced, seconds)
        if not response.get("ok"):
            problems = [f"analyze {edit.kind}: {response.get('error')}"]
        else:
            problems = verdict_problems(
                edit, response["result"]["modules"], response["reanalyzed_functions"]
            )
        self.outcome.record(problems)
        return response, seconds, size

    # -- phases ---------------------------------------------------------

    def setup_probe(self, index: int, traced: bool) -> float:
        """Spawn until the first ping is answered, on an empty cache dir."""
        daemon = self.daemon(self.scratch / f"setup{index}", traced)
        client, seconds = daemon.first_ping()
        self._op(traced, seconds)
        self.finish(daemon, client, traced)
        return seconds

    def disk_warm_probe(self, cache_dir: Path, index: int, traced: bool) -> float:
        """Spawn until the first ping over a populated cache dir, then one
        generate that must load every rule it needs from disk."""
        daemon = self.daemon(cache_dir, traced)
        client, seconds = daemon.first_ping()
        self._op(traced, seconds)
        slug = NON_HYBRID[index % len(NON_HYBRID)]
        response, _, _ = self.generate(
            client, slug, self.sources[slug], verify=False,
            expect_cached=False, traced=traced,
        )
        self.state.expect(
            response.get("dfa_builds") == 0,
            f"a populated-cache daemon built {response.get('dfa_builds')} DFA(s)",
        )
        self.finish(daemon, client, traced)
        return seconds

    def run_daemon(self, cache_dir: Path, seconds: float, traced: bool,
                   probes: bool) -> dict:
        """One daemon: warm-up, then the timed closed loop in
        :data:`SETUPS` segments. With ``probes``, one set-up probe and one
        disk-warm probe run before each segment (while the daemon idles),
        so their medians sample the whole run, as the loop does."""
        daemon = self.daemon(cache_dir, traced)
        control, _ = daemon.first_ping()
        builds = 0
        for slug in TABLE1.values():
            response, _, _ = self.generate(
                control, slug, self.sources[slug], verify=False,
                expect_cached=False, traced=traced,
            )
            builds += response.get("dfa_builds", 0)
        self.state.expect(builds > 0, "an empty-cache daemon built no DFA")
        # The known answer twice: cold, then replayed from the summaries.
        response, _, _ = self.analyze(control, self.project.unedited(None), traced)
        self.state.expect(
            response.get("reanalyzed_functions", 0) > 0,
            "the first analysis of the project replayed from a cold cache",
        )
        self.analyze(control, self.project.unedited(True), traced)
        client = daemon.connect()
        samples: list[Sample] = []
        setup, warm = [], []
        wall = 0.0
        try:
            for segment in range(SETUPS):
                if probes:
                    setup.append(self.setup_probe(segment, traced))
                    warm.append(self.disk_warm_probe(cache_dir, segment, traced))
                started = time.perf_counter()
                self._client_loop(
                    client, segment, started + seconds / SETUPS, samples, traced
                )
                wall += time.perf_counter() - started
        finally:
            client.close()
        stats, _, _ = control.request({"id": 3, "op": "stats"})
        peak = daemon.peak_rss_mb()
        self.finish(daemon, control, traced)
        return {
            "samples": samples,
            "wall": wall,
            "stats": stats,
            "peak_rss_mb": peak,
            "setup": setup,
            "warm": warm,
        }

    def _client_loop(self, client: Client, segment: int, deadline: float,
                     out: list[Sample], traced: bool) -> None:
        rng = random.Random(f"{self.seed}-{segment}")
        deck = [(op, prop) for count, op, prop in DECK for _ in range(count)]
        repeats = _Cycle(list(TABLE1.values()), rng)
        uniques = _Cycle(list(NON_HYBRID), rng)
        serial = 0
        while time.perf_counter() < deadline:
            rng.shuffle(deck)
            for op, prop in deck:
                if time.perf_counter() >= deadline:
                    break
                serial += 1
                n = (self.seed * 100 + segment) * 100_000 + serial
                slug = None
                if op == "analyze":
                    edit = self.project.edit(prop, rng, n)
                    response, seconds, size = self.analyze(client, edit, traced)
                else:
                    if prop == "repeat":
                        slug = repeats.next()
                        source = self.sources[slug]
                    else:
                        slug = uniques.next()
                        source = comment_variant(self.sources[slug], rng, str(n))
                    response, seconds, size = self.generate(
                        client, slug, source, verify=prop == "unique_verify",
                        expect_cached=prop == "repeat", traced=traced,
                    )
                self.state.expect(
                    response.get("dfa_builds", 0) == 0,
                    f"a timed {op} built {response.get('dfa_builds')} DFA(s)",
                )
                out.append(
                    Sample(op, prop, slug, seconds, response.get("elapsed_ms", 0.0), size)
                )


class _Cycle:
    """Items in seeded order, reshuffled after every full pass."""

    def __init__(self, items: list, rng: random.Random):
        self._items = items
        self._rng = rng
        self._index = len(items)

    def next(self):
        if self._index == len(self._items):
            self._rng.shuffle(self._items)
            self._index = 0
        self._index += 1
        return self._items[self._index - 1]


def _latencies_ms(samples: list[Sample], op: str | None = None) -> list[float]:
    return [s.seconds * 1000.0 for s in samples if op is None or s.op == op]


def run(seed: int, seconds: float, scratch: Path, trace: TraceRun | None) -> dict:
    bench = ServeEditLoop(seed, scratch, trace)
    traced = trace is not None
    try:
        if traced:
            untraced = bench.run_daemon(scratch / "untraced", seconds / 2, False, False)
            trace.untraced_gen_ms.extend(_latencies_ms(untraced["samples"], "generate"))
            served = bench.run_daemon(scratch / "main", seconds / 2, True, True)
            trace.traced_gen_ms.extend(_latencies_ms(served["samples"], "generate"))
        else:
            served = bench.run_daemon(scratch / "main", seconds, False, True)
    finally:
        bench.kill_all()

    samples = served["samples"]
    gen = _latencies_ms(samples, "generate")
    ana = _latencies_ms(samples, "analyze")
    every = _latencies_ms(samples)
    wall = served["wall"]
    gen_tail, gen_q = tail(gen)
    req_tail, req_q = tail(every)
    ana_tail, ana_q = tail(ana)
    metrics = {
        "setup_s": (median(served["setup"]), "s"),
        "disk_warm_start_s": (median(served["warm"]), "s"),
        "gen_p50_ms": (median(gen), "ms"),
        "gen_p95_ms": (gen_tail, "ms"),
        "gen_per_s": (len(gen) / wall, "1/s"),
        "req_p50_ms": (median(every), "ms"),
        "req_p95_ms": (req_tail, "ms"),
        "req_per_s": (len(every) / wall, "1/s"),
        "peak_rss_mb": (served["peak_rss_mb"], "MiB"),
    }
    stats = served["stats"]
    queue_wait = [s.seconds * 1000.0 - s.server_ms for s in samples]
    extras = {
        "analyze_p50_ms": (median(ana), "ms"),
        "analyze_p95_ms": (ana_tail, "ms"),
        "engine.server.queue_wait_ms": (median(queue_wait), "ms"),
        "engine.server.response_kb": (
            sum(s.response_bytes for s in samples) / len(samples) / 1024.0, "KiB"
        ),
        "engine.server.overloads": (stats["server"]["overloads"], "count"),
        "breaker.fast_fails": (
            stats["diagnostics"]["counters"].get("breaker.fast_fails", 0), "count"
        ),
    }
    count = len(samples)
    props = [s.prop for s in samples]
    return {
        "metrics": metrics,
        "extras": extras,
        "samples": {
            "requests": count, "generate": len(gen), "analyze": len(ana),
            "gen_tail_percentile": gen_q, "req_tail_percentile": req_q,
            "analyze_tail_percentile": ana_q, "setups": SETUPS,
        },
        "properties": {
            "requests": count,
            "analyze_comment_only_edit": props.count("comment") / count,
            "analyze_body_edit": props.count("body") / count,
            "analyze_misuse_edit": props.count("misuse") / count,
            "generate_result_cache_repeat": props.count("repeat") / count,
            "generate_unique_variant": (
                props.count("unique") + props.count("unique_verify")
            ) / count,
            "verify_true": props.count("unique_verify") / count,
            "hybrid_template": sum(1 for s in samples if s.slug in HYBRID) / count,
            "combos_evaluated_per_request": count_summary(bench.combos),
            "result_cache": stats["result_cache"],
            "summary_cache": stats["summary_cache"],
        },
        "outcome": bench.outcome,
        "state": bench.state,
    }
