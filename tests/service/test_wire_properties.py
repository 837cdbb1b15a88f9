"""The wire boundary under arbitrary input: every line gets one reply.

Arbitrary byte lines and JSON values go through
:meth:`FleetService.handle_connection` on an in-memory
``StreamReader``: invalid UTF-8, nesting too deep to parse, JSON that is
not an object, requests with wrong field types (a bool ``chip_id``
among them) and lines longer than :data:`MAX_LINE_BYTES`.  Whatever the
lines hold, each gets exactly one reply and one RED count, and a status
request sent after them is still answered.
"""

import asyncio
import json
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import FleetService
from repro.service.server import MAX_LINE_BYTES, WIRE_OPS, default_extractor
from repro.telemetry.red import NON_ERROR_OUTCOMES

from .test_wire import _Sink

#: one codec for every example: building the BCH code is the slow part
EXTRACTOR = default_extractor()
N_BITS = EXTRACTOR.response_bits
N_BYTES = -(-N_BITS // 8)
GOLDEN = np.random.default_rng(11).integers(0, 2, N_BITS, dtype=np.uint8)
STATUS = json.dumps({"op": "status"}).encode()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)

# a response blob of the served width, so some requests reach the endpoint
blobs = st.binary(min_size=N_BYTES, max_size=N_BYTES).map(bytes.hex)

# each field is valid about half the time, so requests reach every endpoint
requests = st.fixed_dictionaries(
    {
        "op": st.sampled_from(WIRE_OPS),
        "chip_id": st.sampled_from([0, 1, 2**70])
        | st.sampled_from([True, False, 1.0, "0", None]),
        "bits": st.just(N_BITS) | st.sampled_from([8, 0, -1, True, 2**70]) | json_values,
        "response": blobs | json_values,
        "measurements": st.lists(blobs, min_size=1, max_size=3) | json_values,
    },
)


def _deep(depth: int) -> bytes:
    return b'{"op": ' + b"[" * depth + b"]" * depth + b"}"


garbage = st.one_of(
    st.binary(max_size=64),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.just(b'{"op": "status\xff"}'),
    st.integers(5_000, 30_000).map(_deep),
    st.integers(1, 4096).map(lambda k: b"x" * (MAX_LINE_BYTES + k)),
)

# half garbage, half requests (``one_of`` would flatten into six even branches)
lines = st.booleans().flatmap(
    lambda is_garbage: garbage if is_garbage else requests.map(lambda r: json.dumps(r).encode())
).map(lambda line: line.replace(b"\n", b" "))


def _serve_lines(raw_lines):
    async def run():
        service = FleetService(extractor=EXTRACTOR, seed=0)
        assert (await service.enroll(0, [GOLDEN]))["outcome"] == "ok"
        before = service.red.total_requests()
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        reader.feed_data(b"".join(line + b"\n" for line in raw_lines) + STATUS + b"\n")
        reader.feed_eof()
        sink = _Sink()
        await service.handle_connection(reader, sink)
        return service, before, [json.loads(r) for r in sink.data.splitlines()]

    return asyncio.run(run())


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(lines, min_size=1, max_size=5))
def test_every_line_gets_one_reply_and_one_red_count(raw_lines):
    service, before, replies = _serve_lines(raw_lines)
    assert len(replies) == len(raw_lines) + 1
    # the connection is still usable: the status line after the garbage
    # is answered, and it has seen every earlier line counted exactly once
    status = replies[-1]
    assert status["outcome"] == "ok"
    assert status["requests"] == before + len(raw_lines)
    assert service.red.total_requests() == before + len(raw_lines) + 1
    # each reply's outcome is the one RED counted for its line
    errors = Counter(r["outcome"] for r in replies if r["outcome"] not in NON_ERROR_OUTCOMES)
    counted = Counter()
    for per in service.red.errors.values():
        counted.update(per)
    assert errors == counted
    for line, reply in zip(raw_lines, replies):
        if len(line) > MAX_LINE_BYTES:
            assert reply["outcome"] == "bad_request"
            assert "exceeds" in reply["error"]
