"""SLO-gated load generation: a synthetic aging fleet vs. the service.

The load generator answers the deployment question the paper's numbers
imply but never measure: *does the verifier hold its latency and
availability objectives while a fleet ages under it?*  A
:class:`SyntheticFleet` seeds per-chip golden responses and replays the
mission by flipping bits at the paper's 10-year rates (32 % for the
conventional RO-PUF, 7.7 % for the ARO — :data:`DESIGN_FLIPS_10Y`)
scaled by the stress-relaxation ``sqrt(t)`` law the aging model uses,
plus a fresh measurement-noise floor.  :func:`run_loadgen` enrolls the
fleet and then hammers the ``auth`` (and optionally ``key``) endpoints
from ``concurrency`` worker coroutines.

Observability is client-side by construction: the generator runs its own
:class:`~repro.telemetry.red.RedMetrics` over *observed* latencies
(wire time included in connect mode), so SLO verdicts judge what a
caller experiences, not what the server believes — and the payload shape
is identical whether the service is in-process or across a socket.

:func:`loadgen_payload` serialises a run into the benchmark-artefact
shape (``values`` + ``histograms`` + manifest, METRICS_FORMAT-compatible
sections) extended with a ``service`` section (full RED state, flat
metrics, SLO verdicts, request-log tail) — ingestible by
``tools/validate_metrics.py --service`` and
:func:`~repro.telemetry.ledger.entry_from_bench_payload`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..telemetry.anchors import DESIGN_FLIPS_10Y
from ..telemetry.red import RedMetrics
from .slo import DEFAULT_SLOS, Slo, check_slos, slo_verdicts_payload

#: schema version of the payload's ``service`` section
SERVICE_SECTION_FORMAT = 1

#: request-log samples kept (the tail) for the payload / CI assertions
SAMPLE_KEEP = 64


@dataclass(frozen=True)
class FleetSpec:
    """A reproducible synthetic fleet."""

    n_chips: int = 16
    seed: int = 0
    #: which flip-rate curve ages the fleet (:data:`DESIGN_FLIPS_10Y` key)
    design: str = "aro-puf"
    #: fresh measurement-noise floor, percent of bits per read
    noise_pct: float = 1.0

    def __post_init__(self):
        if self.n_chips < 1:
            raise ValueError("n_chips must be >= 1")
        if self.design not in DESIGN_FLIPS_10Y:
            raise ValueError(
                f"unknown design {self.design!r}; "
                f"one of {sorted(DESIGN_FLIPS_10Y)}"
            )
        if not 0.0 <= self.noise_pct < 50.0:
            raise ValueError("noise_pct must be in [0, 50)")


class SyntheticFleet:
    """Golden responses + an aging/noise replay for one fleet spec.

    Each chip gets a seeded golden response; a read at mission time ``t``
    XORs it with a Bernoulli error pattern of rate
    ``flips10 * sqrt(t / 10) + noise`` (the aging model's stress-
    relaxation ``sqrt(t)`` shape anchored at the paper's 10-year flip
    percentage, plus the fresh noise floor), clipped below 50 %.
    Impostor reads answer from a *different* chip's silicon.
    """

    def __init__(self, spec: FleetSpec, response_bits: int):
        if response_bits < 1:
            raise ValueError("response_bits must be >= 1")
        self.spec = spec
        self.response_bits = int(response_bits)
        self._rng = np.random.default_rng(spec.seed)
        self.golden = self._rng.integers(
            0, 2, (spec.n_chips, self.response_bits), dtype=np.uint8
        )

    def flip_rate(self, years: float) -> float:
        """Expected per-bit error rate of a read at mission time ``years``."""
        if years < 0.0:
            raise ValueError("years must be >= 0")
        aged = (DESIGN_FLIPS_10Y[self.spec.design] / 100.0) * np.sqrt(years / 10.0)
        return float(min(aged + self.spec.noise_pct / 100.0, 0.499))

    def read(self, chip_id: int, years: float = 0.0) -> np.ndarray:
        """One noisy read of ``chip_id``'s silicon at mission time."""
        p = self.flip_rate(years)
        flips = (self._rng.random(self.response_bits) < p).astype(np.uint8)
        return self.golden[chip_id] ^ flips

    def impostor_read(self, claimed_id: int, years: float = 0.0) -> np.ndarray:
        """A read of the *wrong* silicon answering for ``claimed_id``."""
        other = (claimed_id + 1) % self.spec.n_chips
        return self.read(other, years)

    def measurements(self, chip_id: int, votes: int) -> List[np.ndarray]:
        """``votes`` fresh enrollment-time reads (majority-vote input)."""
        if votes < 1:
            raise ValueError("votes must be >= 1")
        return [self.read(chip_id, 0.0) for _ in range(votes)]


@dataclass
class LoadgenReport:
    """Everything one load-generation run measured (client side)."""

    spec: FleetSpec
    red: RedMetrics
    n_enrolled: int = 0
    n_requests: int = 0
    wall_s: float = 0.0
    years: float = 0.0
    concurrency: int = 1
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: tail of per-request log entries (endpoint/outcome/duration/trace id)
    samples: List[Dict[str, Any]] = field(default_factory=list)
    max_loop_lag_ms: Optional[float] = None

    @property
    def auth_per_s(self) -> float:
        if self.wall_s <= 0.0:
            return 0.0
        return self.n_requests / self.wall_s


async def run_loadgen(
    client: Any,
    fleet: SyntheticFleet,
    *,
    n_requests: Optional[int] = None,
    duration_s: Optional[float] = None,
    concurrency: int = 8,
    years: float = 10.0,
    votes: int = 5,
    key_fraction: float = 0.0,
    impostor_fraction: float = 0.0,
    red: Optional[RedMetrics] = None,
) -> LoadgenReport:
    """Enroll the fleet, then hammer the service from worker coroutines.

    ``client`` is anything with the endpoint coroutines (the
    :class:`~repro.service.server.FleetService` itself for in-process
    runs, a :class:`~repro.service.server.ServiceClient` across a
    socket).  Exactly one of ``n_requests`` / ``duration_s`` bounds the
    run.  Each request picks a chip round-robin, a mission time uniform
    in ``[0, years]`` (the fleet ages *during* the run), and an endpoint
    (``key`` with probability ``key_fraction``, otherwise ``auth``;
    ``impostor_fraction`` of auths answer from the wrong silicon).

    Durations are measured around the client call and folded into a
    client-side :class:`RedMetrics`; progress heartbeats go through the
    module emitter (``--events``) under the ``loadgen.enroll`` /
    ``loadgen.requests`` stages.
    """
    if (n_requests is None) == (duration_s is None):
        raise ValueError("give exactly one of n_requests / duration_s")
    if n_requests is not None and n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if duration_s is not None and duration_s <= 0.0:
        raise ValueError("duration_s must be positive")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if not 0.0 <= key_fraction <= 1.0:
        raise ValueError("key_fraction must be in [0, 1]")
    if not 0.0 <= impostor_fraction <= 1.0:
        raise ValueError("impostor_fraction must be in [0, 1]")

    red = red if red is not None else RedMetrics()
    report = LoadgenReport(
        spec=fleet.spec, red=red, years=years, concurrency=concurrency
    )
    rng = np.random.default_rng(fleet.spec.seed + 1)

    # ---- enrollment phase ------------------------------------------------
    n_chips = fleet.spec.n_chips
    for chip_id in range(n_chips):
        t0 = time.perf_counter()
        reply = await client.enroll(chip_id, fleet.measurements(chip_id, votes))
        red.observe("enroll", reply.get("outcome", "internal"), time.perf_counter() - t0)
        if reply.get("outcome") == "ok":
            report.n_enrolled += 1
        telemetry.progress("loadgen.enroll", chip_id + 1, n_chips)

    # ---- request phase ---------------------------------------------------
    total = n_requests
    deadline = None if duration_s is None else time.perf_counter() + duration_s
    issued = 0
    done = 0

    async def worker() -> None:
        nonlocal issued, done
        while True:
            if total is not None and issued >= total:
                return
            if deadline is not None and time.perf_counter() >= deadline:
                return
            issued += 1
            chip_id = (issued - 1) % n_chips
            t = float(rng.uniform(0.0, years))
            use_key = rng.random() < key_fraction
            impostor = (not use_key) and rng.random() < impostor_fraction
            if impostor:
                response = fleet.impostor_read(chip_id, t)
            else:
                response = fleet.read(chip_id, t)
            endpoint = "key" if use_key else "auth"
            t0 = time.perf_counter()
            if use_key:
                reply = await client.key(chip_id, response)
            else:
                reply = await client.auth(chip_id, response)
            duration_s_ = time.perf_counter() - t0
            outcome = reply.get("outcome", "internal")
            red.observe(endpoint, outcome, duration_s_)
            report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
            done += 1
            report.samples.append(
                {
                    "endpoint": endpoint,
                    "outcome": outcome,
                    "chip_id": chip_id,
                    "years": round(t, 3),
                    "duration_ms": duration_s_ * 1e3,
                    "trace_id": reply.get("trace_id"),
                }
            )
            del report.samples[:-SAMPLE_KEEP]
            telemetry.progress("loadgen.requests", done, total)

    wall0 = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    report.wall_s = time.perf_counter() - wall0
    report.n_requests = done
    telemetry.progress("loadgen.requests", done, total)
    return report


def loadgen_payload(
    report: LoadgenReport,
    *,
    slos: Sequence[Slo] = DEFAULT_SLOS,
    manifest: Optional[Dict[str, Any]] = None,
    name: str = "loadgen",
) -> Dict[str, Any]:
    """The run as a benchmark-shaped artefact with a ``service`` section.

    ``values`` / ``histograms`` follow the ``benchmarks._common.emit``
    payload layout (so ``entry_from_bench_payload`` folds one into the
    perf ledger);
    ``service`` adds the full RED state, the flat SLO-gateable metrics,
    the verdicts against ``slos`` and the request-log tail.
    """
    red = report.red
    verdicts = check_slos(red.metrics(), slos)
    values: Dict[str, float] = {
        "auth_per_s": report.auth_per_s,
        "requests": float(report.n_requests),
        "enrolled": float(report.n_enrolled),
        "errors": float(red.total_errors()),
        "wall_s": report.wall_s,
        "concurrency": float(report.concurrency),
        "years": float(report.years),
    }
    if report.max_loop_lag_ms is not None:
        values["max_loop_lag_ms"] = float(report.max_loop_lag_ms)
    payload: Dict[str, Any] = {
        "name": name,
        "values": values,
        "histograms": red.summaries(),
        "service": {
            "format": SERVICE_SECTION_FORMAT,
            "fleet": {
                "n_chips": report.spec.n_chips,
                "design": report.spec.design,
                "seed": report.spec.seed,
                "noise_pct": report.spec.noise_pct,
            },
            "red": red.to_dict(),
            "metrics": red.metrics(),
            "slo": slo_verdicts_payload(verdicts),
            "requests": list(report.samples),
        },
    }
    if manifest is not None:
        payload["manifest"] = manifest
    return payload
