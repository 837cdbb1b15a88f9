"""Fleet-service observatory: auth and key throughput, SLO gate.

The served verifier's lifetime hot path is ``auth`` — one helper-store
lookup, one fractional-Hamming distance, one threshold decision.  This
module holds the serving-layer budgets the observability PR promises:

* ``TestAuthThroughput`` — the in-process service must clear
  ``AUTH_FLOOR_PER_S`` authentications per second with no tracer
  installed (the deployment default).  The artefact records the RED
  latency histograms next to the throughput, so the perf ledger tracks
  tail latency alongside rate.
* ``TestKeyThroughput`` — full key regeneration (repetition vote, BCH
  syndromes, Berlekamp–Massey, Chien search, SHA-256) must clear
  ``KEY_FLOOR_PER_S`` keys per second on responses with a seeded
  ``KEY_BIT_ERROR`` bit-error rate, so every block is actually decoded.
* ``TestSloGate`` — the declarative SLO spec must turn red when a
  latency regression is injected through the service's test hook, and
  stay green on the clean service; this is the bench-level mirror of
  ``repro loadgen --inject-latency-ms ... --slo-gate enforce``.

What the untraced request driver pays for its tracer hook is measured
by ``benchmarks/bench_hooks.py``.

Run with::

    pytest benchmarks/bench_service.py
"""

import asyncio

import numpy as np
import pytest

from _common import best_of, emit
from repro import telemetry
from repro.service import DEFAULT_SLOS, FleetService, check_slos
from repro.telemetry import worst_status

N_CHIPS = 16
N_AUTHS = 5000
SEED = 20140324

#: the serving-layer headline gate: in-process, untraced auth rate
AUTH_FLOOR_PER_S = 10_000.0

#: key regenerations per round, their raw bit-error rate, and the floor:
#: about half the rate the table-driven BCH decoder sustains on a 2-vCPU
#: x86 host (3,200-4,000 key/s), above the 1,200-1,300 key/s of the
#: bit-serial GF(2) decoder it replaced
N_KEYS = 400
KEY_BIT_ERROR = 0.05
KEY_FLOOR_PER_S = 1_600.0


def _enrolled_service(**kwargs):
    """A fresh service with ``N_CHIPS`` chips enrolled from golden bits."""
    service = FleetService(seed=SEED, **kwargs)
    rng = np.random.default_rng(7)
    bits = {
        chip_id: rng.integers(0, 2, service.response_bits, dtype=np.uint8)
        for chip_id in range(N_CHIPS)
    }

    async def enroll_all():
        for chip_id, golden in bits.items():
            reply = await service.enroll(chip_id, [golden])
            assert reply["outcome"] == "ok"

    asyncio.run(enroll_all())
    return service, bits


def _auth_round(service, bits, n=N_AUTHS):
    """A callable driving ``n`` genuine auths through one event loop."""
    requests = [(i % N_CHIPS, bits[i % N_CHIPS]) for i in range(n)]

    async def hammer():
        for chip_id, response in requests:
            await service.auth(chip_id, response)

    return lambda: asyncio.run(hammer())


@pytest.mark.slow
class TestAuthThroughput:
    def test_auth_floor(self):
        assert telemetry.active() is None  # the deployment default
        service, bits = _enrolled_service()
        t = best_of(_auth_round(service, bits), rounds=7)
        per_s = N_AUTHS / t
        metrics = service.red.metrics()
        assert metrics["auth.availability"] == 1.0  # genuine fleet, all ok
        emit(
            "service_auth",
            f"in-process fleet service, {N_CHIPS} chips enrolled, "
            f"{N_AUTHS} genuine auths per round (untraced)\n"
            f"  best round : {t * 1e3:8.2f} ms\n"
            f"  throughput : {per_s:12,.0f} auth/s  "
            f"(floor {AUTH_FLOOR_PER_S:,.0f})\n"
            f"  p50 / p99  : {metrics['auth.p50_ms']:.4f} / "
            f"{metrics['auth.p99_ms']:.4f} ms",
            values={"wall_s": t},
            histograms=service.red.summaries(),
            roofline={"auth_per_s": per_s},
        )
        assert per_s >= AUTH_FLOOR_PER_S, (
            f"untraced auth path serves {per_s:,.0f} req/s; "
            f"floor is {AUTH_FLOOR_PER_S:,.0f}"
        )


def _key_round(service, bits, n=N_KEYS):
    """A callable driving ``n`` key regenerations of noisy genuine reads."""
    rng = np.random.default_rng(SEED)
    requests = []
    for i in range(n):
        golden = bits[i % N_CHIPS]
        flips = (rng.random(golden.size) < KEY_BIT_ERROR).astype(np.uint8)
        requests.append((i % N_CHIPS, golden ^ flips))

    async def hammer():
        for chip_id, response in requests:
            await service.key(chip_id, response)

    return lambda: asyncio.run(hammer())


@pytest.mark.slow
class TestKeyThroughput:
    def test_key_floor(self):
        assert telemetry.active() is None  # the deployment default
        service, bits = _enrolled_service()
        t = best_of(_key_round(service, bits), rounds=5)
        per_s = N_KEYS / t
        metrics = service.red.metrics()
        assert metrics["key.availability"] == 1.0  # every key recovered
        emit(
            "service_key",
            f"in-process fleet service, {N_CHIPS} chips enrolled, "
            f"{N_KEYS} key regenerations per round at "
            f"{KEY_BIT_ERROR:.0%} raw bit errors (untraced)\n"
            f"  best round : {t * 1e3:8.2f} ms\n"
            f"  throughput : {per_s:12,.0f} key/s  "
            f"(floor {KEY_FLOOR_PER_S:,.0f})\n"
            f"  p50 / p99  : {metrics['key.p50_ms']:.4f} / "
            f"{metrics['key.p99_ms']:.4f} ms",
            values={"wall_s": t},
            histograms=service.red.summaries(),
            roofline={"key_per_s": per_s},
        )
        assert per_s >= KEY_FLOOR_PER_S, (
            f"untraced key path serves {per_s:,.0f} req/s; "
            f"floor is {KEY_FLOOR_PER_S:,.0f}"
        )


class TestSloGate:
    def test_clean_service_passes_default_slos(self):
        service, bits = _enrolled_service()
        _auth_round(service, bits, n=64)()
        verdicts = check_slos(service.red.metrics(), DEFAULT_SLOS)
        assert worst_status(verdicts) == "pass"

    def test_injected_latency_turns_the_gate_red(self):
        """The SLO regression hook: +60 ms per request must fail the
        default auth-p99 objective (fail_at 50 ms)."""
        service, bits = _enrolled_service(inject_latency_s=0.06)
        _auth_round(service, bits, n=8)()
        verdicts = check_slos(service.red.metrics(), DEFAULT_SLOS)
        by_name = {v.slo.name: v.status for v in verdicts}
        assert by_name["auth-p99-latency"] == "fail"
        assert worst_status(verdicts) == "fail"
