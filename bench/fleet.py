"""The ``fleet_tcp`` workload: ``repro serve`` under open-loop TCP load.

One process generates the load with two threads over two connections: a
sender that paces a pre-built Poisson schedule with ``time.sleep`` and
pipelines newline-JSON requests, and a reader that timestamps replies.
The service answers each connection in order, so the n-th reply on a
connection belongs to the n-th request sent on it.

Every latency is measured from the request's due time, not from when it
was sent: a stall that delays later sends is charged to every request
queued behind it.  How late the sender ran is reported separately, and a
phase whose sender ran late, or whose replies fell behind the offered
rate, does not count as meeting the objective.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import stats

#: the outcome each request kind must get (key regeneration may fail)
EXPECTED = {
    "auth": {"ok"},
    "impostor": {"rejected"},
    "key": {"ok", "key_recovery"},
    "enroll": {"ok"},
}

#: the fixed rates of the latency rungs, requests per second
RUNG_RATES = (500, 2000)
#: bisection bracket for the capacity search, requests per second
RATE_FLOOR, RATE_CEILING = 250.0, 8000.0
BISECTION_STEPS = 4
#: requests kept in flight while measuring saturated throughput
SATURATION_WINDOW = 32

#: the objective a rate must meet: ``auth-p99-latency``'s pass bound
SLO_AUTH_P99_MS = 10.0
MIN_ACHIEVED_SHARE = 0.98
MAX_LATE_P99_MS = 1.0

#: share of ``--seconds`` the saturation phase and each probe take
PROBE_SHARE = 0.1

SERVE_LINE = re.compile(rb"serving on ([^:\s]+):(\d+)")


def with_bench_id(line: str, bench_id: str) -> bytes:
    """The request line with a ``bench_id`` field the service ignores; the
    trace hook keys the server-side dispatch time by it."""
    return (line[:-1] + f', "bench_id": "{bench_id}"}}\n').encode()


class ServerError(RuntimeError):
    pass


class Server:
    """One ``repro serve`` process, from spawn to its first status reply.
    ``seed`` seeds the service's enrollment masking randomness."""

    def __init__(self, python: str, env: Dict[str, str], cwd: str, work: str, tag: str, seed: int):
        self.stderr_path = os.path.join(work, f"serve-{tag}.err")
        self._stderr = open(self.stderr_path, "wb")
        cmd = [
            python, "-m", "repro.cli", "serve", "--port", "0", "--seed", str(seed),
            "--store", os.path.join(work, f"helpers-{tag}.jsonl"),
            "--audit", os.path.join(work, f"audit-{tag}.jsonl"),
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=cwd
        )
        self.wall_s = 0.0
        try:
            self.setup_s = self._handshake()
        except BaseException:
            self.stop()
            raise

    def _handshake(self) -> float:
        """Wait for the banner, then for a status reply; returns the time
        since spawn."""
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = SERVE_LINE.search(line)
        if match is None:
            raise ServerError(f"serve did not start: {line!r}")
        self.host, self.port = match.group(1).decode(), int(match.group(2))
        with self.connect() as sock:
            sock.sendall(b'{"op": "status"}\n')
            reply = _read_line(sock)
        elapsed = time.perf_counter() - self.started
        if json.loads(reply).get("outcome") != "ok":
            raise ServerError(f"status failed: {reply!r}")
        return elapsed

    def connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM for the server")

    def cpu_s(self) -> float:
        """User plus system CPU time the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> Tuple[int, str]:
        """SIGTERM, wait, and return ``(exit code, stderr)``; ``wall_s``
        then holds spawn to exit.  Callers close their connections
        first: the service logs cancelled handlers for connections still
        open at shutdown."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.wall_s = time.perf_counter() - self.started
        self._stderr.close()
        with open(self.stderr_path, "rb") as fh:
            err = fh.read().decode(errors="replace")
        return self.proc.returncode, err


def _read_line(sock: socket.socket) -> bytes:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ServerError("connection closed before a reply")
        buf += chunk
    return buf


@dataclass
class Phase:
    """One phase's requests and what happened to each."""

    name: str
    kinds: List[str]
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    recv: List[Optional[float]] = field(default_factory=list)
    replies: List[Optional[bytes]] = field(default_factory=list)
    aborted: bool = False

    @property
    def n_sent(self) -> int:
        return len(self.sent)

    def outcomes(self) -> List[Optional[str]]:
        out = []
        for line in self.replies[: self.n_sent]:
            try:
                out.append(json.loads(line).get("outcome") if line else None)
            except ValueError:
                out.append(None)
        return out

    def failures(self) -> int:
        """Missing replies and replies outside the expected outcomes."""
        return sum(
            outcome not in EXPECTED[kind]
            for kind, outcome in zip(self.kinds, self.outcomes())
        )

    def latencies_ms(self, kinds: Sequence[str]) -> List[float]:
        """Due-time latency of every answered request of these kinds."""
        return [
            (self.recv[i] - self.due[i]) * 1e3
            for i in range(self.n_sent)
            if self.kinds[i] in kinds and self.recv[i] is not None
        ]

    def lateness_ms(self) -> List[float]:
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]

    def achieved_share(self) -> float:
        """Replies per second over the phase, as a share of the offered
        schedule's rate."""
        answered = [t for t in self.recv[: self.n_sent] if t is not None]
        if not answered or self.n_sent < 2:
            return 0.0
        span_due = self.due[self.n_sent - 1] - self.due[0]
        span_recv = max(answered) - self.due[0]
        if span_recv <= 0 or span_due <= 0:
            return 0.0
        return (len(answered) / span_recv) / (self.n_sent / span_due)


def run_phase(
    socks: Sequence[socket.socket],
    items: Sequence[Tuple[int, bytes, str]],
    name: str,
    *,
    offsets: Optional[Sequence[float]] = None,
    window: Optional[int] = None,
    duration: Optional[float] = None,
    backlog_cap: Optional[int] = None,
    drain_timeout: float = 30.0,
) -> Phase:
    """Send ``items`` ``(conn, payload, kind)`` on a schedule or a window.

    With ``offsets`` the sender is open-loop: item ``i`` is due at start +
    ``offsets[i]``.  With ``window`` it is closed-loop: an item is due as
    soon as fewer than ``window`` replies are outstanding, and sending
    stops after ``duration`` seconds.  ``backlog_cap`` stops an
    open-loop phase once that many replies are outstanding.
    """
    n = len(items)
    phase = Phase(name, [kind for _, _, kind in items])
    # the reader only timestamps raw chunks: any parsing there would hold
    # the interpreter lock while the sender is due to wake
    chunks: List[Tuple[int, float, bytes]] = []
    newlines = [0]
    slots = threading.Semaphore(window) if window else None
    done_sending = threading.Event()
    start = time.perf_counter() + 0.005
    phase.due = [start + off for off in offsets] if offsets is not None else []

    def reader() -> None:
        sel = selectors.DefaultSelector()
        for index, sock in enumerate(socks):
            sel.register(sock, selectors.EVENT_READ, index)
        deadline = None
        try:
            while True:
                if done_sending.is_set():
                    if newlines[0] >= len(phase.sent):
                        return
                    if deadline is None:
                        deadline = time.perf_counter() + drain_timeout
                    elif time.perf_counter() > deadline:
                        return
                for key, _ in sel.select(timeout=0.02):
                    chunk = key.fileobj.recv(1 << 16)
                    now = time.perf_counter()
                    if not chunk:
                        return
                    chunks.append((key.data, now, chunk))
                    lines = chunk.count(b"\n")
                    newlines[0] += lines
                    if slots is not None:
                        slots.release(lines)
        finally:
            sel.close()

    thread = threading.Thread(target=reader, name=f"reader-{name}")
    thread.start()
    try:
        if offsets is not None:
            i = 0
            while i < n:
                now = time.perf_counter()
                if phase.due[i] > now:
                    time.sleep(phase.due[i] - now)
                    now = time.perf_counter()
                j = i
                batches: Dict[int, List[bytes]] = {}
                while j < n and phase.due[j] <= now:
                    batches.setdefault(items[j][0], []).append(items[j][1])
                    j += 1
                phase.sent.extend([now] * (j - i))
                for conn, payloads in batches.items():
                    socks[conn].sendall(b"".join(payloads))
                i = j
                if backlog_cap is not None and len(phase.sent) - newlines[0] > backlog_cap:
                    phase.aborted = True
                    break
        else:
            stop_at = start + (duration or 0.0)
            for i in range(n):
                if not slots.acquire(timeout=drain_timeout):
                    break
                now = time.perf_counter()
                if now >= stop_at:
                    break
                phase.due.append(now)
                phase.sent.append(now)
                socks[items[i][0]].sendall(items[i][1])
    finally:
        done_sending.set()
        thread.join()
    phase.due = phase.due[: phase.n_sent]
    _match_replies(phase, items, chunks)
    return phase


def _match_replies(phase: Phase, items, chunks) -> None:
    """Pair the n-th reply line on each connection with the n-th request
    sent on it; a line's time is the arrival of the chunk that ended it."""
    n_sent = phase.n_sent
    phase.recv = [None] * n_sent
    phase.replies = [None] * n_sent
    order: Dict[int, deque] = {}
    for i in range(n_sent):
        order.setdefault(items[i][0], deque()).append(i)
    partial: Dict[int, bytes] = {}
    for conn, when, chunk in chunks:
        *lines, partial[conn] = (partial.get(conn, b"") + chunk).split(b"\n")
        for line in lines:
            queue = order.get(conn)
            if not queue:
                break
            i = queue.popleft()
            phase.recv[i] = when
            phase.replies[i] = line


@dataclass
class RateCheck:
    """Whether one open-loop phase met the objective, and why not."""

    rate: float
    auth_p99_ms: Optional[float]
    achieved_share: float
    failures: int
    late_p99_ms: Optional[float]
    aborted: bool

    @property
    def valid(self) -> bool:
        """The generator kept its schedule and the replies kept up."""
        return (
            not self.aborted
            and self.late_p99_ms is not None
            and self.late_p99_ms <= MAX_LATE_P99_MS
            and self.achieved_share >= MIN_ACHIEVED_SHARE
        )

    @property
    def meets_slo(self) -> bool:
        return (
            self.valid
            and self.failures == 0
            and self.auth_p99_ms is not None
            and self.auth_p99_ms <= SLO_AUTH_P99_MS
        )


def check_rate(phase: Phase, rate: float) -> RateCheck:
    late = phase.lateness_ms()
    return RateCheck(
        rate=rate,
        auth_p99_ms=stats.supported_percentile(
            phase.latencies_ms(("auth", "impostor")), 0.99
        ),
        achieved_share=phase.achieved_share(),
        failures=phase.failures(),
        late_p99_ms=stats.percentile(late, 0.99) if late else None,
        aborted=phase.aborted,
    )


def bisect_capacity(probe, saturated: float, steps: int = BISECTION_STEPS) -> Tuple[float, List[RateCheck]]:
    """Highest rate meeting the objective, bisected between half and
    1.05x the saturated throughput, clamped to the search bracket.

    ``probe(rate)`` runs one open-loop phase and returns its
    :class:`RateCheck`.  The lower end is taken as met without a probe.
    """
    lo = min(max(RATE_FLOOR, 0.5 * saturated), RATE_CEILING)
    hi = min(max(lo, 1.05 * saturated), RATE_CEILING)
    checks = []
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        check = probe(mid)
        checks.append(check)
        if check.meets_slo:
            lo = mid
        else:
            hi = mid
    return lo, checks


def rung_summary(phase: Phase) -> Dict[str, Optional[float]]:
    auth = phase.latencies_ms(("auth", "impostor"))
    key = phase.latencies_ms(("key",))
    everything = phase.latencies_ms(tuple(EXPECTED))
    return {
        "auth_p50_ms": stats.median(auth) if auth else None,
        "auth_p99_ms": stats.supported_percentile(auth, 0.99),
        "auth_samples": len(auth),
        "key_p50_ms": stats.median(key) if key else None,
        "key_samples": len(key),
        "all_p50_ms": stats.median(everything) if everything else None,
        "all_p99_ms": stats.supported_percentile(everything, 0.99),
        "samples": len(everything),
    }


def outcome_string(phase: Phase) -> str:
    """One letter per request sent: ``o`` ok, ``r`` rejected, ``k``
    key_recovery, ``x`` anything else or no reply."""
    letters = {"ok": "o", "rejected": "r", "key_recovery": "k"}
    return "".join(letters.get(outcome, "x") for outcome in phase.outcomes())
