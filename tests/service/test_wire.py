"""The TCP wire protocol: serve + ServiceClient/Pool round trips."""

import asyncio
import json
import socket
import struct

import numpy as np
import pytest

from repro.service import (
    FleetService,
    ServiceClient,
    ServiceClientPool,
    serve,
)
from repro.service.audit import AuditTrail
from repro.service.server import MAX_LINE_BYTES
from repro.telemetry import jsonl


def _golden(service, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, service.response_bits, dtype=np.uint8)


async def _with_server(run):
    """Boot a service on a free port, run the test body, tear down."""
    service = FleetService(seed=0)
    server = await serve(service, port=0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await run(service, port)
    finally:
        server.close()
        await server.wait_closed()


class TestRoundTrip:
    def test_enroll_auth_key_status(self):
        async def body(service, port):
            bits = _golden(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                enrolled = await client.enroll(0, [bits, bits, bits])
                assert enrolled["outcome"] == "ok"
                assert enrolled["n_bits"] == service.response_bits

                authed = await client.auth(0, bits)
                assert authed["outcome"] == "ok"
                assert authed["distance"] == 0.0

                keyed = await client.key(0, bits)
                assert keyed["outcome"] == "ok"
                assert len(bytes.fromhex(keyed["key"])) * 8 == keyed["key_bits"]

                status = await client.status()
                assert status["enrolled"] == 1
                # the status call itself is metered after its body runs
                assert status["requests"] == 3
            finally:
                await client.close()

        asyncio.run(_with_server(body))

    def test_bits_survive_hex_packing(self):
        """A non-byte-aligned width must round-trip exactly."""
        async def body(service, port):
            assert service.response_bits % 8 != 0  # the interesting case
            bits = _golden(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                await client.enroll(0, [bits])
                authed = await client.auth(0, bits)
                assert authed["distance"] == 0.0  # every bit intact
            finally:
                await client.close()

        asyncio.run(_with_server(body))


class TestWireErrors:
    async def _raw_call(self, port, payload: bytes):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(payload + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()

    def test_malformed_json_is_served_as_bad_request(self):
        async def body(service, port):
            reply = await self._raw_call(port, b"{not json")
            assert reply["outcome"] == "bad_request"
            # wire garbage is metered, not dropped
            assert service.red.requests == {"wire": 1}

        asyncio.run(_with_server(body))

    def test_unknown_op_over_the_wire(self):
        async def body(service, port):
            reply = await self._raw_call(port, json.dumps({"op": "nope"}).encode())
            assert reply["outcome"] == "bad_request"
            assert "unknown op" in reply["error"]

        asyncio.run(_with_server(body))

    def test_short_bit_blob_is_bad_request(self):
        async def body(service, port):
            reply = await self._raw_call(
                port,
                json.dumps(
                    {
                        "op": "auth",
                        "chip_id": 0,
                        "bits": service.response_bits,
                        "response": "ff",
                    }
                ).encode(),
            )
            assert reply["outcome"] == "bad_request"

        asyncio.run(_with_server(body))

    @pytest.mark.parametrize(
        "case, error",
        [
            ("trailing_bytes", "the blob holds 135"),
            ("short_blob", "the blob holds 94"),
            ("zero_bits", "positive integer, got 0"),
            ("negative_bits", "positive integer, got -12"),
            ("bool_bits", "positive integer, got True"),
        ],
    )
    def test_blob_must_hold_exactly_ceil_bits_over_8_bytes(
        self, tmp_path, case, error
    ):
        """``bits`` and the blob must agree byte for byte.  Each case is a
        genuine response for an enrolled chip, so a lax unpacker would
        answer it ``ok``; instead it is a metered, audited ``bad_request``."""
        audit_path = tmp_path / "audit.jsonl"

        async def run():
            service = FleetService(seed=0, audit=AuditTrail(audit_path, flush_every=1))
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            bits = _golden(service)
            n = service.response_bits
            genuine = np.packbits(bits).tobytes().hex()
            request = {
                "trailing_bytes": {"bits": n, "response": genuine + "00" * 40},
                "short_blob": {"bits": n, "response": genuine[:-2]},
                "zero_bits": {"bits": 0, "response": genuine},
                # one spare byte: 768 bits, of which [:-12] is the genuine 756
                "negative_bits": {"bits": -12, "response": genuine + "00"},
                "bool_bits": {"bits": True, "response": genuine},
            }[case]
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                assert (await client.enroll(0, [bits]))["outcome"] == "ok"
                reply = await client.call({"op": "auth", "chip_id": 0, **request})
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
                service.audit.close()
            return service, reply

        service, reply = asyncio.run(run())
        assert service.response_bits == 756  # 95 bytes on the wire
        assert reply["outcome"] == "bad_request"
        assert error in reply["error"]
        assert service.red.requests == {"enroll": 1, "auth": 1}
        rows, _ = jsonl.read(audit_path)
        assert [(r["endpoint"], r["outcome"]) for r in rows] == [
            ("enroll", "ok"),
            ("auth", "bad_request"),
        ]

    def test_oversized_line_is_metered_and_connection_survives(self, tmp_path):
        """A line over the stream limit gets a metered, audited
        ``bad_request``; the next request on the socket is served."""
        audit_path = tmp_path / "audit.jsonl"

        async def run():
            service = FleetService(seed=0, audit=AuditTrail(audit_path, flush_every=1))
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                huge = json.dumps({"op": "status", "pad": "x" * 70_000}).encode()
                writer.write(huge + b"\n" + json.dumps({"op": "status"}).encode() + b"\n")
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                service.audit.close()
            return service, first, second

        service, first, second = asyncio.run(run())
        assert first["outcome"] == "bad_request"
        assert "exceeds" in first["error"]
        assert second["outcome"] == "ok"
        assert service.red.requests["wire"] == 1
        rows, _ = jsonl.read(audit_path)
        assert [r["outcome"] for r in rows if r["endpoint"] == "wire"] == ["bad_request"]


class _Sink:
    """A ``StreamWriter`` stand-in that keeps what the handler writes."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


class TestUndecodableLines:
    """A line ``json.loads`` cannot decode is a metered, audited
    ``bad_request``, and the connection goes on to the next line."""

    LINES = [
        b'{"op": "status\xff"}',  # invalid UTF-8
        b"[" * 20_000 + b"]" * 20_000,  # nests past the recursion limit
        b"{not json",
        json.dumps({"op": "status"}).encode(),
    ]

    def test_each_line_gets_one_reply(self, tmp_path):
        assert all(len(line) < MAX_LINE_BYTES for line in self.LINES)
        audit_path = tmp_path / "audit.jsonl"

        async def run():
            service = FleetService(seed=0, audit=AuditTrail(audit_path, flush_every=1))
            reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
            reader.feed_data(b"\n".join(self.LINES) + b"\n")
            reader.feed_eof()
            sink = _Sink()
            await service.handle_connection(reader, sink)
            service.audit.close()
            return service, sink

        service, sink = asyncio.run(run())
        replies = [json.loads(line) for line in sink.data.splitlines()]
        assert len(replies) == len(self.LINES)
        assert [r["outcome"] for r in replies] == ["bad_request"] * 3 + ["ok"]
        assert {r["error"] for r in replies[:3]} == {"malformed JSON"}
        assert service.red.total_requests() == len(self.LINES)
        rows, _ = jsonl.read(audit_path)
        assert [(r["endpoint"], r["outcome"]) for r in rows] == [
            ("wire", "bad_request")
        ] * 3 + [("status", "ok")]


class TestClientDisconnects:
    """A client that vanishes mid-request must not take the server down."""

    @pytest.mark.parametrize("how", ["eof", "reset"])
    def test_server_survives_and_answers_next_connection(self, how):
        async def body(service, port):
            errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "auth", "chip_id": 0, "bi')  # no newline
            await writer.drain()
            if how == "reset":
                # SO_LINGER 0: close() sends RST, so the server's read
                # fails with ConnectionResetError instead of seeing EOF
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionResetError:
                pass
            await asyncio.sleep(0.1)  # the handler sees the EOF / reset

            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                status = await client.status()
            finally:
                await client.close()
            assert status["outcome"] == "ok"
            assert errors == []
            if how == "eof":
                # the unterminated fragment is metered as wire garbage
                assert service.red.requests["wire"] == 1

        asyncio.run(_with_server(body))


class TestClientPool:
    def test_concurrent_calls_do_not_mispair_replies(self):
        """Workers sharing the pool must each get their own reply."""
        async def body(service, port):
            bits = _golden(service)
            pool = await ServiceClientPool.connect("127.0.0.1", port, size=4)
            try:
                await pool.enroll(0, [bits])

                async def probe(i):
                    # even i: genuine auth; odd i: unknown chip — the reply
                    # outcome proves which request this answer belongs to
                    if i % 2 == 0:
                        reply = await pool.auth(0, bits)
                        return reply["outcome"] == "ok"
                    reply = await pool.auth(1000 + i, bits)
                    return reply["outcome"] == "unknown_chip"

                results = await asyncio.gather(*(probe(i) for i in range(16)))
                assert all(results)
            finally:
                await pool.close()

        asyncio.run(_with_server(body))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ServiceClientPool([])
