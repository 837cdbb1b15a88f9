"""Resource sampler: ticks, probes, decimation, slot discipline, RSS,
cross-thread span attribution and the event-loop lag probe."""

import asyncio
import threading
import time

import pytest

from repro import telemetry
from repro.telemetry import (
    EventLoopLagProbe,
    ResourceSampler,
    Tracer,
    active_sampler,
    current_rss_bytes,
    install_sampler,
    register_probe,
    uninstall_sampler,
    unregister_probe,
)
from repro.telemetry.sampler import _probes


@pytest.fixture(autouse=True)
def clean_slate():
    telemetry.uninstall()
    uninstall_sampler()
    yield
    telemetry.uninstall()
    uninstall_sampler()


class TestSampleOnce:
    def test_fields(self):
        sampler = ResourceSampler(hz=100.0)
        sample = sampler.sample_once()
        assert sample["t_ns"] > 0
        assert sample["rss_bytes"] is None or sample["rss_bytes"] > 0
        assert sample["span"] is None
        assert sampler.samples == [sample]
        assert sampler.n_ticks == 1

    def test_attributes_tick_to_open_span(self):
        tr = telemetry.install(Tracer())
        sampler = ResourceSampler()
        sp = tr.start_span("store.block")
        try:
            assert sampler.sample_once()["span"] == "store.block"
        finally:
            tr.end_span(sp)
        assert sampler.sample_once()["span"] is None

    def test_probes_sampled_and_raising_probe_survives(self):
        register_probe("good", lambda: 7.0)
        register_probe("bad", lambda: 1 / 0)
        try:
            sample = ResourceSampler().sample_once()
            assert sample["probes"] == {"good": 7.0}
        finally:
            unregister_probe("good")
            unregister_probe("bad")

    def test_probe_reregister_last_wins_and_unregister(self):
        register_probe("p", lambda: 1.0)
        register_probe("p", lambda: 2.0)
        try:
            assert ResourceSampler().sample_once()["probes"] == {"p": 2.0}
        finally:
            unregister_probe("p")
        unregister_probe("p")  # absent: no-op
        assert "probes" not in ResourceSampler().sample_once()


def _tick_from_thread(sampler):
    """The span a tick names when taken on a thread of its own — outside
    every traced context, as the sampler thread is."""
    ticks = []
    thread = threading.Thread(target=lambda: ticks.append(sampler.sample_once()))
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    return ticks[0]["span"]


class TestCrossThreadAttribution:
    """A tick names the innermost span still open, even after a child of
    it closed and from a thread that cannot see the span contextvar."""

    def test_plain_flow_falls_back_to_open_parent(self):
        tr = telemetry.install(Tracer())
        sampler = ResourceSampler()
        outer = tr.start_span("outer")
        inner = tr.start_span("inner")
        assert _tick_from_thread(sampler) == "inner"
        tr.end_span(inner)
        assert _tick_from_thread(sampler) == "outer"
        tr.end_span(outer)
        assert _tick_from_thread(sampler) is None

    def test_asyncio_task_spans_fall_back_to_open_ancestor(self):
        """Sibling tasks close out of start order: the tick still finds
        the open sibling, then the shared parent once both are done."""
        tr = telemetry.install(Tracer())
        sampler = ResourceSampler()
        ticks = []

        async def flow():
            a_open, b_open, a_closed = (asyncio.Event() for _ in range(3))

            async def first():
                with tr.span("a"):
                    a_open.set()
                    await b_open.wait()
                a_closed.set()

            async def second():
                await a_open.wait()
                with tr.span("b"):
                    b_open.set()
                    await a_closed.wait()
                    ticks.append(_tick_from_thread(sampler))

            with tr.span("outer"):
                await asyncio.gather(first(), second())
                ticks.append(_tick_from_thread(sampler))

        asyncio.run(flow())
        assert ticks == ["b", "outer"]


class TestDecimation:
    def test_series_stays_bounded_with_full_extent(self):
        sampler = ResourceSampler(max_samples=16)
        for _ in range(200):
            sampler.sample_once()
        assert len(sampler.samples) < 16
        assert sampler.n_ticks == 200
        assert sampler._stride > 1
        # first sample survives every 2:1 decimation — full time extent
        times = [s["t_ns"] for s in sampler.samples]
        assert times == sorted(times)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="hz"):
            ResourceSampler(hz=0.0)
        with pytest.raises(ValueError, match="max_samples"):
            ResourceSampler(max_samples=1)


class TestThreadLifecycle:
    def test_stop_takes_final_sample(self):
        sampler = ResourceSampler(hz=1000.0)
        sampler.start()
        sampler.stop()
        assert sampler.samples  # even a sub-interval run records one tick
        sampler.stop()  # idempotent

    def test_double_start_rejected(self):
        sampler = ResourceSampler(hz=1000.0)
        sampler.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                sampler.start()
        finally:
            sampler.stop()

    def test_context_manager_form(self):
        with ResourceSampler(hz=1000.0) as sampler:
            pass
        assert sampler.samples


class TestInstallSlot:
    def test_install_uninstall_roundtrip(self):
        sampler = install_sampler(ResourceSampler())
        assert active_sampler() is sampler
        assert uninstall_sampler() is sampler
        assert active_sampler() is None
        assert uninstall_sampler() is None  # disabled: no-op

    def test_double_install_rejected(self):
        install_sampler(ResourceSampler())
        with pytest.raises(RuntimeError, match="already installed"):
            install_sampler(ResourceSampler())


class TestToDicts:
    def test_relative_seconds_and_probe_passthrough(self):
        sampler = ResourceSampler()
        sampler.sample_once()
        register_probe("p", lambda: 3.0)
        try:
            sampler.sample_once()
        finally:
            unregister_probe("p")
        first_ns = sampler.samples[0]["t_ns"]
        dicts = sampler.to_dicts()
        assert dicts[0]["t_s"] == 0.0
        assert dicts[1]["t_s"] >= 0.0
        assert dicts[1]["probes"] == {"p": 3.0}
        # explicit epoch (a tracer's perf0_ns) shifts the origin
        shifted = sampler.to_dicts(first_ns - 1_000_000)
        assert shifted[0]["t_s"] == pytest.approx(1e-3)

    def test_empty_series(self):
        assert ResourceSampler().to_dicts() == []


class TestCurrentRss:
    def test_linux_proc_path(self):
        rss = current_rss_bytes()
        assert rss is None or rss > 0

    def test_fallback_without_proc(self):
        """Off-Linux (no /proc) the reading falls back to ru_maxrss —
        still positive, documented as a monotone high-water mark."""
        rss = current_rss_bytes(proc_status="/nonexistent/status")
        assert rss is not None and rss > 0


class TestEventLoopLagProbe:
    def test_records_lag_when_loop_blocks(self):
        async def run():
            async with EventLoopLagProbe(interval_s=0.005) as probe:
                await asyncio.sleep(0.01)  # at least one clean tick
                time.sleep(0.05)  # block the loop: the next wake is late
                await asyncio.sleep(0.01)
            return probe

        probe = asyncio.run(run())
        assert probe.n_ticks >= 1
        assert probe.max_lag_ms >= 20.0

    def test_registers_and_unregisters_probe(self):
        async def run():
            probe = EventLoopLagProbe(interval_s=0.005, name="test_lag_ms")
            probe.start()
            probe.start()  # idempotent
            assert "test_lag_ms" in _probes
            await probe.stop()
            await probe.stop()  # idempotent
            assert "test_lag_ms" not in _probes

        asyncio.run(run())

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLoopLagProbe(interval_s=0.0)
