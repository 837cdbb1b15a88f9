"""FleetService endpoints in-process: enroll/auth/key semantics + driver."""

import asyncio
import hashlib
from collections import Counter

import numpy as np
import pytest

from repro import telemetry
from repro.service import (
    FleetService,
    FleetSpec,
    HelperStore,
    SyntheticFleet,
    majority_vote,
)
from repro.service.audit import AuditTrail
from repro.telemetry import Tracer, jsonl


@pytest.fixture(autouse=True)
def clean_slate():
    telemetry.uninstall()
    yield
    telemetry.uninstall()


@pytest.fixture(scope="module")
def service_and_chips():
    """One enrolled service + the golden responses it enrolled."""
    service = FleetService(seed=0)
    rng = np.random.default_rng(42)
    golden = {
        chip: rng.integers(0, 2, service.response_bits, dtype=np.uint8)
        for chip in range(3)
    }

    async def setup():
        for chip, bits in golden.items():
            reply = await service.enroll(chip, [bits] * 3)
            assert reply["outcome"] == "ok"

    asyncio.run(setup())
    return service, golden


def _flip(bits, fraction, seed=0):
    rng = np.random.default_rng(seed)
    flips = (rng.random(bits.size) < fraction).astype(np.uint8)
    return bits ^ flips


class TestMajorityVote:
    def test_majority_suppresses_noise(self):
        reads = [
            np.array([1, 1, 0, 0]),
            np.array([1, 0, 0, 0]),
            np.array([1, 1, 0, 1]),
        ]
        assert majority_vote(reads).tolist() == [1, 1, 0, 0]

    def test_tie_rounds_up(self):
        reads = [np.array([1, 0]), np.array([0, 0])]
        assert majority_vote(reads).tolist() == [1, 0]

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0/1"):
            majority_vote([np.array([0, 2])])


class TestEnroll:
    def test_enroll_commits_record(self, service_and_chips):
        service, _ = service_and_chips
        assert len(service.store) == 3
        record = service.store.get(0)
        assert record.n_bits == service.response_bits

    def test_wrong_width_is_bad_request(self):
        service = FleetService(seed=0)
        reply = asyncio.run(service.enroll(0, [np.zeros(8, dtype=np.uint8)]))
        assert reply["outcome"] == "bad_request"
        assert len(service.store) == 0


class TestAuth:
    def test_genuine_fresh_response_accepted(self, service_and_chips):
        service, golden = service_and_chips
        reply = asyncio.run(service.auth(0, _flip(golden[0], 0.01)))
        assert reply["outcome"] == "ok"
        assert reply["accepted"] is True
        assert reply["distance"] < 0.05

    def test_aged_response_within_threshold_accepted(self, service_and_chips):
        """The ARO's ~7.7% 10-year flip rate clears the 0.25 threshold."""
        service, golden = service_and_chips
        reply = asyncio.run(service.auth(0, _flip(golden[0], 0.077)))
        assert reply["outcome"] == "ok"

    def test_impostor_rejected_not_errored(self, service_and_chips):
        service, golden = service_and_chips
        before = service.red.total_errors()
        reply = asyncio.run(service.auth(0, golden[1]))
        assert reply["outcome"] == "rejected"
        assert reply["accepted"] is False
        assert reply["distance"] > 0.4
        assert service.red.total_errors() == before  # not an error

    def test_unknown_chip(self, service_and_chips):
        service, golden = service_and_chips
        reply = asyncio.run(service.auth(77, golden[0]))
        assert reply["outcome"] == "unknown_chip"

    def test_wrong_shape_is_bad_request(self, service_and_chips):
        service, _ = service_and_chips
        reply = asyncio.run(service.auth(0, np.zeros(8, dtype=np.uint8)))
        assert reply["outcome"] == "bad_request"

    @pytest.mark.parametrize("dtype, value", [(np.uint8, 2), (np.int64, -1)])
    def test_non_bit_response_is_bad_request(self, service_and_chips, dtype, value):
        service, golden = service_and_chips
        response = golden[0].astype(dtype)
        response[5] = value
        before = service.red.error_count("auth")
        reply = asyncio.run(service.auth(0, response))
        assert reply["outcome"] == "bad_request"
        assert "0/1" in reply["error"]
        assert service.red.error_count("auth") == before + 1


class TestKey:
    def test_regenerated_key_matches_enrollment_digest(self):
        service = FleetService(seed=0)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, service.response_bits, dtype=np.uint8)

        async def flow():
            enrolled = await service.enroll(0, [bits] * 3)
            regen = await service.key(0, _flip(bits, 0.05))
            return enrolled, regen

        enrolled, regen = asyncio.run(flow())
        assert regen["outcome"] == "ok"
        from repro.service.store import key_digest

        assert (
            key_digest(bytes.fromhex(regen["key"])).hex()
            == enrolled["key_digest"]
        )

    def test_hopeless_response_is_key_recovery(self, service_and_chips):
        service, golden = service_and_chips
        reply = asyncio.run(service.key(0, _flip(golden[0], 0.45)))
        assert reply["outcome"] == "key_recovery"
        assert "key" not in reply

    def test_unknown_chip(self, service_and_chips):
        service, golden = service_and_chips
        reply = asyncio.run(service.key(77, golden[0]))
        assert reply["outcome"] == "unknown_chip"


class TestServedKeyPath:
    """The served key path end to end, pinned to recorded values.

    A seeded fleet of 6 chips is enrolled with 5 votes each, then every
    chip asks for its key once per mission year 0..10.  The ARO fleet
    (7.7 % of bits flipped at 10 years) keeps every key; the conventional
    RO fleet (32 %) loses almost all of them after year 1, each one a
    detected decoding failure.  The digest covers every served key and
    every error message,
    so any change to an encoded helper, a corrected word or a
    ``BchDecodingError`` shows up here.  The values were recorded with
    the bit-serial GF(2) encoder and syndrome loop the code tables
    replaced.
    """

    ENROLL_DIGESTS = [
        "1ff4d7381350eb76",
        "ab628bbb6ceecfc5",
        "f3d99e247db2c7e2",
        "d0fc17d2c5ec430f",
        "b550d4f233b3b4e9",
        "69e00ef71bca972c",
    ]

    @pytest.mark.parametrize(
        "design, outcomes, by_year, replies_digest",
        [
            ("aro-puf", {"ok": 66}, ["oooooo"] * 11, "51c853cd70e4d58e"),
            (
                "ro-puf",
                {"ok": 10, "key_recovery": 56},
                ["oooooo", "okookk", "kkkokk"] + ["kkkkkk"] * 8,
                "4a04eab52924f6d8",
            ),
        ],
    )
    def test_keys_over_the_mission(
        self, design, outcomes, by_year, replies_digest
    ):
        service = FleetService(seed=0)
        fleet = SyntheticFleet(
            FleetSpec(n_chips=6, seed=2014, design=design), service.response_bits
        )

        async def flow():
            enrolled = [
                await service.enroll(chip, fleet.measurements(chip, 5))
                for chip in range(6)
            ]
            replies = [
                [
                    await service.key(chip, fleet.read(chip, float(year)))
                    for chip in range(6)
                ]
                for year in range(11)
            ]
            return enrolled, replies

        enrolled, replies = asyncio.run(flow())
        assert [r["key_digest"][:16] for r in enrolled] == self.ENROLL_DIGESTS
        flat = [r for year in replies for r in year]
        assert dict(Counter(r["outcome"] for r in flat)) == outcomes
        assert [
            "".join(r["outcome"][0] for r in year) for year in replies
        ] == by_year
        digest = hashlib.sha256()
        for r in flat:
            digest.update(r.get("key", r.get("error", "")).encode())
        assert digest.hexdigest()[:16] == replies_digest


class TestDriver:
    def test_red_meters_every_outcome(self):
        service = FleetService(seed=0)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, service.response_bits, dtype=np.uint8)

        async def flow():
            await service.enroll(0, [bits])
            await service.auth(0, bits)
            await service.auth(99, bits)

        asyncio.run(flow())
        state = service.red.to_dict()
        assert state["endpoints"]["auth"]["outcomes"] == {
            "ok": 1,
            "unknown_chip": 1,
        }
        assert state["endpoints"]["enroll"]["requests"] == 1

    def test_traced_request_carries_trace_id(self, tmp_path):
        tracer = telemetry.install(Tracer())
        audit_path = tmp_path / "audit.jsonl"
        service = FleetService(seed=0, audit=AuditTrail(audit_path))
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, service.response_bits, dtype=np.uint8)

        async def flow():
            await service.enroll(0, [bits])
            return await service.auth(0, bits)

        reply = asyncio.run(flow())
        service.audit.close()
        assert reply["trace_id"] == 2  # second request on this tracer
        assert set(tracer.remote_lanes) == {"req-0"}
        spans = tracer.remote_lanes["req-0"]
        assert [s.name for s in spans] == ["request.enroll", "request.auth"]
        assert spans[1].attrs["outcome"] == "ok"
        records, _ = jsonl.read(audit_path)
        assert [r["trace_id"] for r in records] == [1, 2]
        assert all(r["duration_ms"] >= 0 for r in records)

    def test_untraced_request_has_no_trace_id(self):
        service = FleetService(seed=0)
        reply = asyncio.run(service.status())
        assert "trace_id" not in reply

    def test_inject_latency_lands_in_measured_window(self):
        service = FleetService(seed=0, inject_latency_s=0.03)
        asyncio.run(service.status())
        hist = service.red.endpoint_histogram("status", "ok")
        assert hist.quantile(0.5) >= 25.0  # ms

    def test_status_reports_store_and_counters(self, service_and_chips):
        service, _ = service_and_chips
        reply = asyncio.run(service.status())
        assert reply["outcome"] == "ok"
        assert reply["enrolled"] == 3
        assert reply["response_bits"] == service.response_bits

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            FleetService(threshold=0.5)


class TestDispatch:
    def test_unknown_op_is_bad_request(self):
        service = FleetService(seed=0)
        reply = asyncio.run(service.dispatch({"op": "explode"}))
        assert reply["outcome"] == "bad_request"
        assert service.red.requests == {"wire": 1}

    def test_non_integer_chip_id_is_bad_request(self):
        service = FleetService(seed=0)
        reply = asyncio.run(
            service.dispatch({"op": "auth", "chip_id": "three"})
        )
        assert reply["outcome"] == "bad_request"

    def test_bool_chip_id_is_bad_request(self):
        """``True`` is an ``int`` to Python but not a chip id on the wire:
        it must not reach chip 1's enrollment."""
        service = FleetService(seed=0)
        n = service.response_bits
        bits = np.random.default_rng(3).integers(0, 2, n, dtype=np.uint8)
        blob = np.packbits(bits).tobytes().hex()

        async def run():
            enrolled = await service.dispatch(
                {"op": "enroll", "chip_id": 1, "bits": n, "measurements": [blob]}
            )
            authed = await service.dispatch(
                {"op": "auth", "chip_id": True, "bits": n, "response": blob}
            )
            return enrolled, authed

        enrolled, authed = asyncio.run(run())
        assert enrolled["outcome"] == "ok"
        assert authed["outcome"] == "bad_request"
        assert authed["error"] == "chip_id must be an integer"
        assert service.red.requests == {"enroll": 1, "auth": 1}

    def test_non_string_measurement_is_bad_request(self):
        service = FleetService(seed=0)
        reply = asyncio.run(
            service.dispatch(
                {"op": "enroll", "chip_id": 0, "bits": 8, "measurements": [255]}
            )
        )
        assert reply["outcome"] == "bad_request"
        assert "hex strings" in reply["error"]
        assert service.red.requests == {"enroll": 1}


class TestStoreRestart:
    """A torn helper-store tail must not swallow the next enrollment."""

    def test_enrollment_after_torn_restart_survives(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        audit_path = tmp_path / "audit.jsonl"
        rng = np.random.default_rng(5)

        def boot():
            return FleetService(
                seed=0,
                store=HelperStore(store_path),
                audit=AuditTrail(audit_path, flush_every=1),
            )

        def enroll(service, chip):
            bits = rng.integers(0, 2, service.response_bits, dtype=np.uint8)
            reply = asyncio.run(service.enroll(chip, [bits] * 3))
            assert reply["outcome"] == "ok"

        service = boot()
        enroll(service, 0)
        enroll(service, 1)
        service.audit.close()
        assert service.red.store_skipped_lines == 0
        assert "store.skipped_lines" not in service.red.metrics()
        # a crash mid-write: the last 40 bytes of chip 1's line are gone
        store_path.write_bytes(store_path.read_bytes()[:-40])

        service = boot()
        assert service.store.chip_ids() == [0]
        enroll(service, 2)
        service.audit.close()

        service = boot()
        service.audit.close()
        assert service.store.chip_ids() == [0, 2]
        assert service.store.n_skipped == 1
        # reported at startup: one RED counter and one audit record
        assert service.red.metrics()["store.skipped_lines"] == 1.0
        records, skipped = jsonl.read(audit_path)
        assert skipped == 0
        startup = [r for r in records if r["endpoint"] == "store"]
        assert [(r["outcome"], r["n_skipped"]) for r in startup] == [
            ("skipped_lines", 1),
            ("skipped_lines", 1),
        ]

    def test_counter_published_to_tracer(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store_path.write_text("torn{\n")
        service = FleetService(seed=0, store=HelperStore(store_path))
        with telemetry.session() as tracer:
            service.red.publish(tracer)
        assert tracer.counters["service.store.skipped_lines"] == 1.0
