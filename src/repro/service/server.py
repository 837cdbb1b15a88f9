"""The fleet service: asyncio enrollment/authentication/key endpoints.

:class:`FleetService` is the host-side authority from the paper's
deployment story, served: devices enroll once (majority-voted reference
response + fuzzy-extractor helper data into the
:class:`~repro.service.store.HelperStore`), then authenticate for the
rest of the mission — either the lightweight threshold check
(fractional Hamming distance, the hot path) or full key regeneration
through the code-offset extractor.

Every request flows through one driver (:meth:`FleetService._serve`)
that wires the whole observability stack in a single place:

* a per-request root span with its own trace id when a
  :class:`~repro.telemetry.Tracer` is installed (the disabled path
  skips it entirely — the <2 % overhead bound of the telemetry layer
  extends to serving);
* one :meth:`RedMetrics.observe` per request — endpoint × outcome ×
  duration;
* one audit-trail line (trace id included) when a trail is attached.

The wire protocol is newline-delimited JSON over asyncio streams —
one request object per line, one reply object back, bit vectors packed
to hex (``response`` + ``bits``).  :func:`serve` binds the TCP server;
:class:`ServiceClient` is the matching client, used by the load
generator's connect mode and by tests.

Outcome vocabulary (see :mod:`repro.telemetry.red` for the taxonomy):
``ok``, ``rejected`` (impostor refused — *not* an error),
``bad_request``, ``unknown_chip``, ``key_recovery``, ``internal``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .._rng import RngLike, as_generator
from ..ecc import BchCode, ConcatenatedCode, KeyCodec, RepetitionCode
from ..keygen import FuzzyExtractor, KeyRecoveryError
from ..metrics.hamming import fractional_hd
from ..telemetry import tracer as _tracer_mod
from ..telemetry.red import RedMetrics
from .audit import AuditTrail
from .store import EnrollmentRecord, HelperStore, key_digest

#: wire ops the dispatcher accepts
WIRE_OPS = ("enroll", "auth", "key", "status")

#: longest request line the server reads (asyncio's default stream limit)
MAX_LINE_BYTES = 2**16


def default_extractor(key_bits: int = 128) -> FuzzyExtractor:
    """The service's reference codec: BCH(63,45,t=4) × repetition-3.

    The E6 design-space sweep's balanced point — enough correction power
    for the ARO's 10-year drift at a practical response width.
    """
    codec = KeyCodec(
        code=ConcatenatedCode(BchCode.design(6, 4), RepetitionCode(3)),
        key_bits=key_bits,
    )
    return FuzzyExtractor(codec)


def majority_vote(measurements: Sequence[Any]) -> np.ndarray:
    """Bitwise majority over repeated noisy measurements of one response.

    The standard enrollment-time denoising step: with ``k`` reads a bit
    is enrolled as 1 when at least half the reads said 1 (ties round
    up), suppressing measurement noise before the reference/helper are
    committed to the store.
    """
    arr = np.asarray(measurements)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("measurements must be a non-empty list of bit vectors")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("measurements must be 0/1 bit vectors")
    return (arr.mean(axis=0) >= 0.5).astype(np.uint8)


def _pack_bits(bits: np.ndarray) -> str:
    return np.packbits(np.asarray(bits).astype(np.uint8)).tobytes().hex()


def _unpack_bits(blob_hex: Any, n_bits: Any) -> np.ndarray:
    """The ``n_bits`` bits packed in ``blob_hex``, which must hold exactly
    ``ceil(n_bits / 8)`` bytes: no short blobs, no trailing bytes."""
    if not isinstance(n_bits, int) or isinstance(n_bits, bool) or n_bits <= 0:
        raise ValueError(f"'bits' must be a positive integer, got {n_bits!r}")
    if not isinstance(blob_hex, str):
        raise ValueError("bit blobs must be hex strings")
    blob = bytes.fromhex(blob_hex)
    n_bytes = -(-n_bits // 8)
    if len(blob) != n_bytes:
        raise ValueError(
            f"{n_bits} bits pack into {n_bytes} bytes; "
            f"the blob holds {len(blob)}"
        )
    return np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=n_bits)


class FleetService:
    """The served verifier: enrollment store + threshold auth + keygen.

    Parameters
    ----------
    extractor:
        The fuzzy extractor (defaults to :func:`default_extractor`); its
        ``response_bits`` fixes the response width every endpoint expects.
    threshold:
        Fractional-HD acceptance bound for ``auth``, in ``(0, 0.5)`` —
        between the aged intra-chip distance and the ~50 % inter-chip
        floor, exactly the E10 trade-off.
    store / audit / red:
        Injectable for persistence/testing; fresh in-memory instances by
        default (``audit`` stays ``None`` unless given).
    seed:
        Seeds the enrollment masking randomness (reproducible fleets).
    inject_latency_s:
        Artificial per-request delay *inside* the measured window — the
        SLO gate's test hook (a latency regression you can switch on).
    """

    def __init__(
        self,
        *,
        extractor: Optional[FuzzyExtractor] = None,
        threshold: float = 0.25,
        store: Optional[HelperStore] = None,
        audit: Optional[AuditTrail] = None,
        red: Optional[RedMetrics] = None,
        seed: RngLike = 0,
        inject_latency_s: float = 0.0,
    ):
        if not 0.0 < threshold < 0.5:
            raise ValueError("threshold must be in (0, 0.5)")
        if inject_latency_s < 0.0:
            raise ValueError("inject_latency_s must be >= 0")
        self.extractor = extractor or default_extractor()
        self.threshold = float(threshold)
        self.store = store if store is not None else HelperStore()
        self.audit = audit
        self.red = red if red is not None else RedMetrics()
        self.inject_latency_s = float(inject_latency_s)
        self._rng = as_generator(seed)
        skipped = self.store.n_skipped
        if skipped:
            # lines the store could not load (a torn tail from a killed
            # server, garbage): counted once at startup, never silent
            self.red.store_skipped_lines = skipped
            if self.audit is not None:
                self.audit.append(
                    endpoint="store",
                    outcome="skipped_lines",
                    duration_ms=0.0,
                    n_skipped=skipped,
                )

    @property
    def response_bits(self) -> int:
        return self.extractor.response_bits

    # ---- the single request driver --------------------------------------

    async def _serve(
        self,
        endpoint: str,
        chip_id: Optional[int],
        impl: Callable[[], Tuple[str, Dict[str, Any]]],
    ) -> Dict[str, Any]:
        """Run one request through trace → impl → RED → audit.

        ``impl`` is the endpoint's synchronous core returning
        ``(outcome, body)``; anything it raises beyond the protocol
        vocabulary is an ``internal`` error (counted, audited, span
        flagged, re-raised).  With no tracer installed the request
        takes the lean branch below — one module-slot read and one
        ``is not None`` is all the span machinery may cost the untraced
        hot path (``benchmarks/bench_hooks.py`` holds the bound).
        """
        tracer = _tracer_mod._active
        if tracer is not None:
            return await self._serve_traced(tracer, endpoint, chip_id, impl)
        t0 = time.perf_counter()
        outcome = "internal"
        try:
            if self.inject_latency_s > 0.0:
                await asyncio.sleep(self.inject_latency_s)
            outcome, body = impl()
            return {"outcome": outcome, **body}
        finally:
            duration_s = time.perf_counter() - t0
            self.red.observe(endpoint, outcome, duration_s)
            if self.audit is not None:
                self.audit.append(
                    endpoint=endpoint,
                    outcome=outcome,
                    duration_ms=duration_s * 1e3,
                    chip_id=chip_id,
                    trace_id=None,
                )

    async def _serve_traced(
        self,
        tracer: _tracer_mod.Tracer,
        endpoint: str,
        chip_id: Optional[int],
        impl: Callable[[], Tuple[str, Dict[str, Any]]],
    ) -> Dict[str, Any]:
        """The traced request driver: a ``request.<endpoint>`` span wraps
        the impl, the trace id rides back in the reply and the audit row."""
        t0 = time.perf_counter()
        span_cm = tracer.request(endpoint, chip_id=chip_id)
        span = span_cm.__enter__()
        trace_id = int(span.attrs["trace_id"])
        outcome = "internal"
        try:
            if self.inject_latency_s > 0.0:
                await asyncio.sleep(self.inject_latency_s)
            outcome, body = impl()
            return {"outcome": outcome, **body, "trace_id": trace_id}
        except BaseException:
            span.error = True
            raise
        finally:
            span.attrs["outcome"] = outcome
            span_cm.__exit__(None, None, None)
            duration_s = time.perf_counter() - t0
            self.red.observe(endpoint, outcome, duration_s)
            if self.audit is not None:
                self.audit.append(
                    endpoint=endpoint,
                    outcome=outcome,
                    duration_ms=duration_s * 1e3,
                    chip_id=chip_id,
                    trace_id=trace_id,
                )

    # ---- endpoints -------------------------------------------------------

    async def enroll(self, chip_id: int, measurements: Sequence[Any]) -> Dict[str, Any]:
        """Majority-vote enrollment: commit reference + helper + digest."""
        return await self._serve("enroll", chip_id, lambda: self._enroll(chip_id, measurements))

    def _enroll(self, chip_id: int, measurements: Sequence[Any]) -> Tuple[str, Dict[str, Any]]:
        try:
            reference = majority_vote(measurements)
            if reference.size != self.response_bits:
                raise ValueError(
                    f"this service enrolls {self.response_bits}-bit "
                    f"responses, got {reference.size}"
                )
            helper, key = self.extractor.enroll(reference, rng=self._rng)
        except ValueError as exc:
            return "bad_request", {"error": str(exc)}
        record = EnrollmentRecord(
            chip_id=int(chip_id),
            reference=reference,
            helper=helper,
            key_digest=key_digest(key),
        )
        self.store.put(record)
        return "ok", {
            "chip_id": record.chip_id,
            "n_bits": record.n_bits,
            "key_bits": self.extractor.key_bits,
            "key_digest": record.key_digest.hex(),
        }

    async def auth(self, chip_id: int, response: Any) -> Dict[str, Any]:
        """Threshold authentication: the lifetime hot path."""
        return await self._serve("auth", chip_id, lambda: self._auth(chip_id, response))

    def _auth(self, chip_id: int, response: Any) -> Tuple[str, Dict[str, Any]]:
        record = self.store.get(chip_id)
        if record is None:
            return "unknown_chip", {"error": f"chip {chip_id} was never enrolled"}
        resp = np.asarray(response)
        if resp.shape != (record.n_bits,) or not np.all((resp == 0) | (resp == 1)):
            return "bad_request", {
                "error": f"response must be a {record.n_bits}-bit 0/1 vector"
            }
        distance = fractional_hd(record.reference, resp)
        accepted = distance <= self.threshold
        body = {
            "accepted": bool(accepted),
            "distance": float(distance),
            "threshold": self.threshold,
        }
        return ("ok" if accepted else "rejected"), body

    async def key(self, chip_id: int, response: Any) -> Dict[str, Any]:
        """Full key regeneration through the fuzzy extractor."""
        return await self._serve("key", chip_id, lambda: self._key(chip_id, response))

    def _key(self, chip_id: int, response: Any) -> Tuple[str, Dict[str, Any]]:
        record = self.store.get(chip_id)
        if record is None:
            return "unknown_chip", {"error": f"chip {chip_id} was never enrolled"}
        try:
            key = self.extractor.reproduce(np.asarray(response), record.helper)
        except ValueError as exc:
            return "bad_request", {"error": str(exc)}
        except KeyRecoveryError as exc:
            return "key_recovery", {"error": str(exc)}
        if key_digest(key) != record.key_digest:
            # decoded to a *wrong* codeword without detection: treat as a
            # recovery failure, never hand out a key that fails its
            # enrollment commitment
            return "key_recovery", {"error": "regenerated key failed digest check"}
        return "ok", {"key": key.hex(), "key_bits": self.extractor.key_bits}

    async def status(self) -> Dict[str, Any]:
        """Liveness/introspection endpoint (cheap, still metered)."""
        return await self._serve("status", None, self._status)

    def _status(self) -> Tuple[str, Dict[str, Any]]:
        return "ok", {
            "enrolled": len(self.store),
            "requests": self.red.total_requests(),
            "response_bits": self.response_bits,
            "threshold": self.threshold,
        }

    # ---- wire protocol ---------------------------------------------------

    async def dispatch(self, request: Any) -> Dict[str, Any]:
        """Route one decoded wire request to its endpoint.

        Malformed requests are served as ``bad_request`` through the
        same driver, so wire garbage is traced/metered/audited like any
        other outcome instead of vanishing.
        """
        if not isinstance(request, dict):
            return await self._bad("wire", None, "request must be a JSON object")
        op = request.get("op")
        if op not in WIRE_OPS:
            return await self._bad("wire", None, f"unknown op {op!r}")
        if op == "status":
            return await self.status()
        chip_id = request.get("chip_id")
        if not isinstance(chip_id, int) or isinstance(chip_id, bool):
            return await self._bad(op, None, "chip_id must be an integer")
        try:
            if op == "enroll":
                blobs = request.get("measurements")
                bits = request.get("bits")
                if not isinstance(blobs, list) or not isinstance(bits, int):
                    raise ValueError("enroll needs 'measurements' (list) and 'bits'")
                measurements = [_unpack_bits(b, bits) for b in blobs]
                return await self.enroll(chip_id, measurements)
            blob = request.get("response")
            bits = request.get("bits")
            if not isinstance(blob, str) or not isinstance(bits, int):
                raise ValueError(f"{op} needs 'response' (hex) and 'bits'")
            response = _unpack_bits(blob, bits)
        except ValueError as exc:
            return await self._bad(op, chip_id, str(exc))
        if op == "auth":
            return await self.auth(chip_id, response)
        return await self.key(chip_id, response)

    async def _bad(self, endpoint: str, chip_id: Optional[int], error: str) -> Dict[str, Any]:
        return await self._serve(
            endpoint, chip_id, lambda: ("bad_request", {"error": error})
        )

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: a line of JSON in, a line of JSON out.

        A line longer than :data:`MAX_LINE_BYTES` is answered with a
        metered, audited ``bad_request``; the rest of it is discarded up
        to its newline, so the connection stays usable.  A line that does
        not decode (bad JSON, invalid UTF-8, nesting too deep to parse)
        is answered the same way.
        """
        try:
            while True:
                oversized = False
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: a final unterminated line
                except asyncio.LimitOverrunError:
                    oversized = True
                if oversized:
                    reply = await self._bad(
                        "wire",
                        None,
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    )
                elif not line:
                    break
                else:
                    try:
                        request = json.loads(line)
                    except (ValueError, RecursionError):
                        # ValueError covers undecodable UTF-8 as well as bad
                        # JSON; RecursionError is a too-deeply nested value
                        reply = await self._bad("wire", None, "malformed JSON")
                    else:
                        reply = await self.dispatch(request)
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
                if oversized:
                    await _discard_line(reader)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # the client vanished mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # server.close() cancels in-flight handlers mid-teardown;
                # the connection is gone either way
                pass


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Drop the rest of an over-limit line, up to and including its newline."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)


async def serve(
    service: FleetService, host: str = "127.0.0.1", port: int = 0
) -> "asyncio.base_events.Server":
    """Bind the TCP server (``port=0`` picks a free port; see
    ``server.sockets[0].getsockname()``)."""
    return await asyncio.start_server(
        service.handle_connection, host, port, limit=MAX_LINE_BYTES
    )


class ServiceClient:
    """Async client for the newline-JSON wire protocol.

    Mirrors the service's endpoint signatures (numpy bit vectors in,
    reply dicts out) so the load generator can swap between in-process
    and over-the-wire clients without branching.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._writer.write(json.dumps(request).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    async def enroll(self, chip_id: int, measurements: Sequence[Any]) -> Dict[str, Any]:
        arr = [np.asarray(m) for m in measurements]
        bits = int(arr[0].size) if arr else 0
        return await self.call(
            {
                "op": "enroll",
                "chip_id": int(chip_id),
                "bits": bits,
                "measurements": [_pack_bits(m) for m in arr],
            }
        )

    async def auth(self, chip_id: int, response: Any) -> Dict[str, Any]:
        resp = np.asarray(response)
        return await self.call(
            {
                "op": "auth",
                "chip_id": int(chip_id),
                "bits": int(resp.size),
                "response": _pack_bits(resp),
            }
        )

    async def key(self, chip_id: int, response: Any) -> Dict[str, Any]:
        resp = np.asarray(response)
        return await self.call(
            {
                "op": "key",
                "chip_id": int(chip_id),
                "bits": int(resp.size),
                "response": _pack_bits(resp),
            }
        )

    async def status(self) -> Dict[str, Any]:
        return await self.call({"op": "status"})

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


class ServiceClientPool:
    """``size`` connections behind one client interface.

    The wire protocol is strictly request/reply per connection, so two
    coroutines sharing one :class:`ServiceClient` would interleave
    writes and mis-pair replies.  The pool checks a connection out per
    call (an :class:`asyncio.Queue` of free clients), which lets the
    load generator run ``concurrency`` workers against ``concurrency``
    sockets without any worker knowing about connections.
    """

    def __init__(self, clients: Sequence[ServiceClient]):
        if not clients:
            raise ValueError("pool needs at least one client")
        self._clients = list(clients)
        self._free: "asyncio.Queue[ServiceClient]" = asyncio.Queue()
        for client in self._clients:
            self._free.put_nowait(client)

    @classmethod
    async def connect(cls, host: str, port: int, size: int) -> "ServiceClientPool":
        clients = [await ServiceClient.connect(host, port) for _ in range(size)]
        return cls(clients)

    async def _call(self, fn: Callable[[ServiceClient], Any]) -> Dict[str, Any]:
        client = await self._free.get()
        try:
            return await fn(client)
        finally:
            self._free.put_nowait(client)

    async def enroll(self, chip_id: int, measurements: Sequence[Any]) -> Dict[str, Any]:
        return await self._call(lambda c: c.enroll(chip_id, measurements))

    async def auth(self, chip_id: int, response: Any) -> Dict[str, Any]:
        return await self._call(lambda c: c.auth(chip_id, response))

    async def key(self, chip_id: int, response: Any) -> Dict[str, Any]:
        return await self._call(lambda c: c.key(chip_id, response))

    async def status(self) -> Dict[str, Any]:
        return await self._call(lambda c: c.status())

    async def close(self) -> None:
        for client in self._clients:
            await client.close()
