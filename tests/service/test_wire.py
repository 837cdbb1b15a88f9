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
