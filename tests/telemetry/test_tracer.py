"""Tracer core: span nesting, timing monotonicity, counters, no-op path,
context-local isolation and request lanes.

The isolation tests are the serving layer's load-bearing contract: two
requests interleaving on one event loop must never see each other's
spans, and the exported trace must re-nest each request's subtree under
its own lane.
"""

import asyncio
import time

import pytest

from repro import telemetry
from repro.telemetry import Span, Tracer
from repro.telemetry.chrome import chrome_trace_events
from repro.telemetry.tracer import clock_handshake, peak_rss_bytes


@pytest.fixture(autouse=True)
def clean_slate():
    """Every test starts and ends with no installed tracer."""
    telemetry.uninstall()
    yield
    telemetry.uninstall()


class TestSpanNesting:
    def test_children_attach_to_active_span(self):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("child"):
                with tr.span("grandchild"):
                    pass
            with tr.span("sibling"):
                pass
        assert [r.name for r in tr.roots] == ["root"]
        root = tr.roots[0]
        assert [c.name for c in root.children] == ["child", "sibling"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]

    def test_multiple_roots(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        assert [r.name for r in tr.roots] == ["a", "b"]

    def test_start_end_pairs_match_context_manager(self):
        tr = Tracer()
        outer = tr.start_span("outer")
        inner = tr.start_span("inner")
        tr.end_span(inner)
        tr.end_span(outer)
        assert outer.children == [inner]
        assert inner.parent is outer

    def test_end_unwinds_forgotten_children(self):
        tr = Tracer()
        outer = tr.start_span("outer")
        tr.start_span("forgotten")
        tr.end_span(outer)  # must close the forgotten child too
        assert outer.end_ns is not None
        assert outer.children[0].end_ns is not None
        assert tr.active_span is None

    def test_double_end_rejected(self):
        tr = Tracer()
        sp = tr.start_span("x")
        tr.end_span(sp)
        with pytest.raises(ValueError, match="already ended"):
            tr.end_span(sp)

    def test_attrs_recorded(self):
        tr = Tracer()
        with tr.span("s", t_years=10.0, corner="nominal") as sp:
            pass
        assert sp.attrs == {"t_years": 10.0, "corner": "nominal"}


class TestSpanTiming:
    def test_duration_positive_and_monotone(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                time.sleep(0.001)
        assert inner.duration_ns > 0
        assert outer.duration_ns >= inner.duration_ns
        assert outer.duration_s == pytest.approx(outer.duration_ns / 1e9)

    def test_child_interval_inside_parent(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns

    def test_open_span_duration_grows(self):
        tr = Tracer()
        sp = tr.start_span("open")
        d1 = sp.duration_ns
        d2 = sp.duration_ns
        assert d2 >= d1
        tr.end_span(sp)

    def test_exception_still_closes_span(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert tr.roots[0].end_ns is not None
        assert tr.active_span is None


class TestCounters:
    def test_counts_accumulate(self):
        tr = Tracer()
        tr.count("hits")
        tr.count("hits")
        tr.count("hits", 3)
        assert tr.counters == {"hits": 5.0}

    def test_module_level_count_routes_to_installed(self):
        tr = telemetry.install(Tracer())
        telemetry.count("a", 2)
        assert tr.counters == {"a": 2.0}


class TestDisabledPath:
    def test_module_api_is_noop_without_tracer(self):
        assert not telemetry.enabled()
        assert telemetry.active() is None
        assert telemetry.start_span("x") is None
        telemetry.end_span(None)  # must not raise
        telemetry.count("x")
        with telemetry.span("y") as sp:
            assert sp is None

    def test_uninstall_without_install_is_noop(self):
        assert telemetry.uninstall() is None

    def test_double_install_rejected(self):
        telemetry.install(Tracer())
        with pytest.raises(RuntimeError, match="already installed"):
            telemetry.install(Tracer())

    def test_session_installs_and_removes(self):
        with telemetry.session() as tr:
            assert telemetry.active() is tr
            telemetry.count("inside")
        assert telemetry.active() is None
        assert tr.counters == {"inside": 1.0}

    def test_uninstall_closes_open_spans(self):
        tr = telemetry.install(Tracer())
        telemetry.start_span("left-open")
        telemetry.uninstall()
        assert tr.roots[0].end_ns is not None


class TestErrorPaths:
    def test_tracer_span_records_error_flag(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("stage"):
                raise ValueError("boom")
        sp = tr.roots[0]
        assert sp.error
        assert sp.end_ns is not None
        assert tr.active_span is None

    def test_module_span_records_error_flag(self):
        with telemetry.session() as tr:
            with pytest.raises(RuntimeError):
                with telemetry.span("stage"):
                    raise RuntimeError("boom")
        assert tr.roots[0].error

    def test_module_span_disabled_error_path_is_noop(self):
        with pytest.raises(RuntimeError):
            with telemetry.span("stage"):
                raise RuntimeError("boom")  # no tracer: nothing to flag

    def test_error_only_on_raising_span_not_parent(self):
        tr = Tracer()
        with tr.span("outer"):
            with pytest.raises(RuntimeError):
                with tr.span("inner"):
                    raise RuntimeError("x")
        outer = tr.roots[0]
        assert not outer.error
        assert outer.children[0].error

    def test_error_flag_serialised(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert tr.roots[0].to_dict()["error"] is True
        assert tr.roots[0].to_timed_dict()["error"] is True
        rebuilt = Span.from_timed_dict(tr.roots[0].to_timed_dict())
        assert rebuilt.error


class TestPeakRss:
    def test_peak_rss_reported_on_posix(self):
        tr = Tracer()
        rss = tr.peak_rss_kb()
        assert rss is None or rss > 0

    def test_linux_reads_vmhwm(self):
        peak = peak_rss_bytes()
        assert peak is None or peak > 0

    def test_fallback_without_proc(self):
        """No /proc (macOS): ru_maxrss keeps the reading populated."""
        peak = peak_rss_bytes(proc_status="/nonexistent/status")
        assert peak is not None and peak > 0

    def test_darwin_unit_is_bytes_linux_is_kib(self):
        """ru_maxrss is KiB on Linux but bytes on macOS; the fallback
        must apply the platform-correct factor."""
        as_linux = peak_rss_bytes(
            proc_status="/nonexistent", platform_name="linux"
        )
        as_darwin = peak_rss_bytes(
            proc_status="/nonexistent", platform_name="darwin"
        )
        assert as_linux == as_darwin * 1024

    def test_corrupt_proc_status_falls_back(self, tmp_path):
        bad = tmp_path / "status"
        bad.write_text("VmHWM: not-a-number kB\n")
        peak = peak_rss_bytes(proc_status=str(bad))
        assert peak is not None and peak > 0


class TestClockHandshake:
    def test_pair_is_back_to_back(self):
        wall_ns, perf_ns = clock_handshake()
        assert wall_ns > 0 and perf_ns > 0

    def test_offset_rebases_worker_spans(self):
        """The documented alignment contract: two handshakes on the same
        host produce an offset that maps one perf timeline onto the
        other to within the read skew."""
        coord = clock_handshake()
        worker = clock_handshake()
        offset = (worker[0] - worker[1]) - (coord[0] - coord[1])
        rebased = worker[1] + offset
        # the "worker" handshake happened just after the coordinator's,
        # so its rebased perf timestamp lands just after coord's perf
        # reading — within generous CI scheduling noise
        assert rebased >= coord[1]
        assert rebased - coord[1] < 1_000_000_000


class TestSpanToDict:
    def test_tree_serialises(self):
        tr = Tracer()
        with tr.span("root", k=1):
            with tr.span("leaf"):
                pass
        d = tr.roots[0].to_dict()
        assert d["name"] == "root"
        assert d["attrs"] == {"k": 1}
        assert d["duration_ns"] > 0
        assert [c["name"] for c in d["children"]] == ["leaf"]

    def test_numpy_attrs_coerced(self):
        np = pytest.importorskip("numpy")
        sp = Span("s", {"t": np.float64(1.5), "n": np.int64(3)})
        d = sp.to_dict()
        assert d["attrs"] == {"t": 1.5, "n": 3}
        assert isinstance(d["attrs"]["t"], float)


def _root(span):
    """The root of ``span``'s tree: a request's root carries its trace id."""
    while span.parent is not None:
        span = span.parent
    return span


def _lane_events(events, label):
    """The X events on the lane whose thread_name metadata is ``label``."""
    tid = next(
        e["tid"]
        for e in events
        if e["ph"] == "M"
        and e["name"] == "thread_name"
        and e["args"]["name"] == label
    )
    return [e for e in events if e["ph"] == "X" and e["tid"] == tid]


class TestContextIsolation:
    def test_concurrent_requests_do_not_leak_spans(self):
        """Interleaved gather tasks each keep their own span stack."""
        tracer = telemetry.install(Tracer())

        async def handler(i):
            with tracer.request("auth", idx=i) as span:
                tid = span.attrs["trace_id"]
                assert _root(tracer.active_span).attrs["trace_id"] == tid
                with tracer.span(f"inner-{i}"):
                    # suspend mid-span so neighbours interleave here
                    await asyncio.sleep(0.001 * (i % 3))
                    assert _root(tracer.active_span).attrs["trace_id"] == tid
                await asyncio.sleep(0)
            return span

        spans = asyncio.run(self._gather(handler, 8))
        for i, span in enumerate(spans):
            assert [c.name for c in span.children] == [f"inner-{i}"]
            assert all(c.parent is span for c in span.children)
        assert len({s.attrs["trace_id"] for s in spans}) == 8

    @staticmethod
    async def _gather(handler, n):
        return await asyncio.gather(*(handler(i) for i in range(n)))

    def test_nesting_survives_await(self):
        tracer = telemetry.install(Tracer())

        async def flow():
            with tracer.request("auth") as span:
                with tracer.span("decode"):
                    await asyncio.sleep(0.001)
                    with tracer.span("verify"):
                        await asyncio.sleep(0)
            return span

        span = asyncio.run(flow())
        assert [c.name for c in span.children] == ["decode"]
        assert [g.name for g in span.children[0].children] == ["verify"]

    def test_fanned_out_task_inherits_request_parent(self):
        """create_task snapshots the context: the subtask's spans attach
        to the request that spawned it, not to the coordinator."""
        tracer = telemetry.install(Tracer())

        async def flow():
            async def side_work():
                with tracer.span("side"):
                    await asyncio.sleep(0)

            with tracer.request("auth") as span:
                await asyncio.create_task(side_work())
            return span

        span = asyncio.run(flow())
        assert [c.name for c in span.children] == ["side"]

    def test_subtask_cannot_corrupt_parent_stack(self):
        """A task that forgets to close its span only damages its own
        context copy — the request closes cleanly regardless."""
        tracer = telemetry.install(Tracer())

        async def flow():
            async def leaky():
                tracer.start_span("leaked")  # never ended by the task
                await asyncio.sleep(0)

            with tracer.request("auth") as span:
                await asyncio.create_task(leaky())
                with tracer.span("after"):
                    pass
            return span

        span = asyncio.run(flow())
        assert span.end_ns is not None
        names = [c.name for c in span.children]
        assert "after" in names  # parented on the request, not the leak

    def test_request_detaches_from_ambient_span(self):
        tracer = telemetry.install(Tracer())
        with tracer.span("serve"):
            with tracer.request("auth") as req:
                pass
            with tracer.span("post"):
                pass
        serve = tracer.roots[0]
        assert req.parent is None
        assert [c.name for c in serve.children] == ["post"]

    def test_error_marks_request_span(self):
        tracer = telemetry.install(Tracer())
        with pytest.raises(RuntimeError):
            with tracer.request("auth") as span:
                raise RuntimeError("boom")
        assert span.error is True
        assert span.end_ns is not None
        assert tracer.remote_lanes["req-0"] == [span]


class TestRequestLanes:
    def test_sequential_requests_recycle_one_lane(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.request("auth"):
                pass
        assert set(tracer.remote_lanes) == {"req-0"}
        assert len(tracer.remote_lanes["req-0"]) == 3
        assert tracer.roots == []  # all moved off the coordinator

    def test_lane_count_equals_peak_concurrency(self):
        tracer = Tracer()

        async def burst(n):
            barrier = asyncio.Barrier(n)

            async def handler():
                with tracer.request("auth"):
                    await barrier.wait()

            await asyncio.gather(*(handler() for _ in range(n)))

        asyncio.run(burst(4))
        assert set(tracer.remote_lanes) == {f"req-{k}" for k in range(4)}
        # the next sequential request reuses the lowest freed lane
        with tracer.request("auth"):
            pass
        assert len(tracer.remote_lanes["req-0"]) == 2

    def test_exported_trace_renests_request_subtree(self):
        tracer = Tracer()
        with tracer.request("auth") as span:
            with tracer.span("decode"):
                time.sleep(0.001)
        events = chrome_trace_events(tracer)
        lane = _lane_events(events, "req-0")
        by_name = {e["name"]: e for e in lane}
        assert set(by_name) == {"request.auth", "decode"}
        parent, child = by_name["request.auth"], by_name["decode"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]
        assert span.attrs["trace_id"] == 1

    def test_trace_ids_are_monotone_and_unique(self):
        tracer = Tracer()
        ids = []
        for _ in range(5):
            with tracer.request("auth") as span:
                ids.append(span.attrs["trace_id"])
        assert ids == [1, 2, 3, 4, 5]
