"""ProgressEmitter: throttling, caps, ETA, and the installed-slot API."""

import json

import pytest

from repro import telemetry
from repro.telemetry.events import (
    EVENTS_FORMAT,
    ProgressEmitter,
    active_emitter,
    emitter_session,
    install_emitter,
    uninstall_emitter,
)


class FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEmit:
    def test_first_event_written(self, tmp_path, clock):
        e = ProgressEmitter(tmp_path / "ev.jsonl", clock=clock)
        assert e.emit("stage", 1, 10) is True
        (rec,) = read_events(tmp_path / "ev.jsonl")
        assert rec["format"] == EVENTS_FORMAT
        assert rec["event"] == "progress"
        assert rec["stage"] == "stage"
        assert rec["done"] == 1 and rec["total"] == 10

    def test_throttled_within_interval(self, tmp_path, clock):
        e = ProgressEmitter(
            tmp_path / "ev.jsonl", min_interval_s=0.25, clock=clock
        )
        assert e.emit("s", 1, 10)
        clock.advance(0.1)
        assert not e.emit("s", 2, 10)
        assert e.n_throttled == 1
        clock.advance(0.2)  # now 0.3s past the last write
        assert e.emit("s", 3, 10)
        assert e.n_events == 2

    def test_force_bypasses_throttle(self, tmp_path, clock):
        e = ProgressEmitter(tmp_path / "ev.jsonl", clock=clock)
        e.emit("s", 1, 10)
        assert e.emit("s", 2, 10, force=True)

    def test_max_events_cap(self, tmp_path, clock):
        e = ProgressEmitter(
            tmp_path / "ev.jsonl", min_interval_s=0.0, max_events=3, clock=clock
        )
        written = sum(e.emit("s", i, 100) for i in range(1, 50))
        assert written == 3
        assert e.n_events == 3
        assert len(read_events(tmp_path / "ev.jsonl")) == 3

    def test_eta_from_stage_elapsed(self, tmp_path, clock):
        e = ProgressEmitter(
            tmp_path / "ev.jsonl", min_interval_s=0.0, clock=clock
        )
        e.emit("s", 1, 10)  # stage first seen at t=0 of the stage
        clock.advance(2.0)
        e.emit("s", 5, 10)  # 2s for 4 more items... linear from first-seen
        recs = read_events(tmp_path / "ev.jsonl")
        # 5 of 10 done in 2s since first seen -> 2s remaining
        assert recs[1]["eta_s"] == pytest.approx(2.0)

    def test_no_eta_when_complete_or_unknown(self, tmp_path, clock):
        e = ProgressEmitter(
            tmp_path / "ev.jsonl", min_interval_s=0.0, clock=clock
        )
        e.emit("s", None, None)
        clock.advance(1.0)
        e.emit("s", 10, 10)
        recs = read_events(tmp_path / "ev.jsonl")
        assert all("eta_s" not in r for r in recs)

    def test_extra_fields_pass_through(self, tmp_path, clock):
        e = ProgressEmitter(tmp_path / "ev.jsonl", clock=clock)
        e.emit("s", 1, 2, chip=7)
        (rec,) = read_events(tmp_path / "ev.jsonl")
        assert rec["chip"] == 7

    def test_closed_emitter_drops(self, tmp_path, clock):
        e = ProgressEmitter(tmp_path / "ev.jsonl", clock=clock)
        e.close()
        assert e.closed
        assert not e.emit("s", 1, 2)

    def test_creates_parent_dirs(self, tmp_path, clock):
        path = tmp_path / "deep" / "nested" / "ev.jsonl"
        ProgressEmitter(path, clock=clock).emit("s")
        assert path.exists()

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="min_interval_s"):
            ProgressEmitter(tmp_path / "e.jsonl", min_interval_s=-1.0)
        with pytest.raises(ValueError, match="max_events"):
            ProgressEmitter(tmp_path / "e.jsonl", max_events=0)


class TestRotation:
    """--events-max-bytes: size-capped rotation for long-lived servers."""

    def _emitter(self, tmp_path, clock, max_bytes=1024):
        return ProgressEmitter(
            tmp_path / "ev.jsonl",
            min_interval_s=0.0,
            max_events=10**6,
            max_bytes=max_bytes,
            clock=clock,
        )

    def test_rotates_to_single_backup(self, tmp_path, clock):
        e = self._emitter(tmp_path, clock)
        for i in range(40):  # ~100 bytes/line: several rotations
            e.emit("s", i, 40, force=True)
            clock.advance(1.0)
        e.close()
        assert e.n_rotations >= 2
        live, backup = e.path, e.path.with_name("ev.jsonl.1")
        assert live.exists() and backup.exists()
        assert set(tmp_path.iterdir()) == {live, backup}  # one generation
        # both sides stay line-parseable after the rename
        for path in (live, backup):
            assert read_events(path)

    def test_disk_usage_stays_bounded(self, tmp_path, clock):
        e = self._emitter(tmp_path, clock, max_bytes=1024)
        for i in range(200):
            e.emit("s", i, 200, force=True)
            clock.advance(1.0)
        e.close()
        total = sum(p.stat().st_size for p in tmp_path.iterdir())
        assert total <= 2 * 1024 + 256  # ~2x cap (+ one line of slack)

    def test_never_rotates_without_cap(self, tmp_path, clock):
        e = ProgressEmitter(
            tmp_path / "ev.jsonl",
            min_interval_s=0.0,
            max_events=10**6,
            clock=clock,
        )
        for i in range(100):
            e.emit("s", i, 100, force=True)
            clock.advance(1.0)
        assert e.n_rotations == 0
        assert not (tmp_path / "ev.jsonl.1").exists()

    def test_append_mode_counts_existing_bytes(self, tmp_path, clock):
        """A reopened heartbeat file rotates on the *file* size, not just
        the bytes this emitter wrote."""
        path = tmp_path / "ev.jsonl"
        path.write_text("x" * 1000 + "\n")
        e = ProgressEmitter(
            path, min_interval_s=0.0, max_bytes=1024, clock=clock
        )
        e.emit("s", 1, 2, force=True)
        clock.advance(1.0)
        e.emit("s", 2, 2, force=True)
        assert e.n_rotations >= 1

    def test_rejects_tiny_cap(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ProgressEmitter(tmp_path / "e.jsonl", max_bytes=100)


class TestLifecycle:
    def test_bypasses_throttle_but_not_cap(self, tmp_path, clock):
        e = ProgressEmitter(
            tmp_path / "ev.jsonl", min_interval_s=10.0, max_events=2, clock=clock
        )
        assert e.lifecycle("run.start")
        assert e.lifecycle("run.end")  # throttle would have dropped this
        assert not e.lifecycle("too.late")  # the cap still holds
        recs = read_events(tmp_path / "ev.jsonl")
        assert [r["event"] for r in recs] == ["run.start", "run.end"]

    def test_carries_fields(self, tmp_path, clock):
        e = ProgressEmitter(tmp_path / "ev.jsonl", clock=clock)
        e.lifecycle("run.start", command="run", experiment="e2")
        (rec,) = read_events(tmp_path / "ev.jsonl")
        assert rec["command"] == "run" and rec["experiment"] == "e2"


class TestInstalledSlot:
    def test_progress_is_noop_when_disabled(self):
        assert active_emitter() is None
        telemetry.progress("stage", 1, 10)  # must not raise

    def test_install_routes_progress(self, tmp_path, clock):
        with emitter_session(
            tmp_path / "ev.jsonl", min_interval_s=0.0, clock=clock
        ) as e:
            telemetry.progress("stage", 3, 9)
            assert active_emitter() is e
            assert e.n_events == 1
        assert active_emitter() is None
        (rec,) = read_events(tmp_path / "ev.jsonl")
        assert rec["done"] == 3 and rec["total"] == 9

    def test_double_install_raises(self, tmp_path, clock):
        with emitter_session(tmp_path / "a.jsonl", clock=clock):
            with pytest.raises(RuntimeError, match="already installed"):
                install_emitter(
                    ProgressEmitter(tmp_path / "b.jsonl", clock=clock)
                )

    def test_uninstall_closes(self, tmp_path, clock):
        e = install_emitter(
            ProgressEmitter(tmp_path / "ev.jsonl", clock=clock)
        )
        assert uninstall_emitter() is e
        assert e.closed

    def test_uninstall_when_disabled_is_noop(self):
        assert uninstall_emitter() is None


class TestInstrumentedLoops:
    def test_batched_sweep_emits_progress(self, tmp_path, clock):
        from repro.core import aro_design, make_batch_study

        with emitter_session(
            tmp_path / "ev.jsonl", min_interval_s=0.0, clock=clock
        ) as e:
            batch = make_batch_study(aro_design(16), n_chips=3, rng=1)
            batch.responses(t_years=10.0)
            assert e.n_events > 0
        stages = {r["stage"] for r in read_events(tmp_path / "ev.jsonl")}
        assert "batch.frequencies" in stages

    def test_aging_sampling_emits_progress(self, tmp_path, clock):
        from repro.core import aro_design, make_batch_study

        with emitter_session(
            tmp_path / "ev.jsonl", min_interval_s=0.0, clock=clock
        ) as e:
            # the RAM source draws prefactors on the first aged corner
            make_batch_study(aro_design(16), n_chips=3, rng=1).responses(
                t_years=10.0
            )
            assert e.n_events > 0
        recs = read_events(tmp_path / "ev.jsonl")
        aging = [r for r in recs if r["stage"] == "aging.sample_prefactors"]
        assert aging and aging[-1]["done"] == aging[-1]["total"] == 3


class TestSessionExceptionSafety:
    """emitter_session must flush and uninstall when the body raises."""

    def test_body_exception_uninstalls_and_closes(self, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with emitter_session(path) as emitter:
                emitter.lifecycle("run.start")
                raise RuntimeError("boom")
        assert active_emitter() is None
        assert emitter.closed
        # every event written before the crash is on disk (per-write flush)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["run.start"]

    def test_slot_reusable_after_crash(self, tmp_path):
        with pytest.raises(ValueError):
            with emitter_session(tmp_path / "a.jsonl"):
                raise ValueError
        with emitter_session(tmp_path / "b.jsonl") as emitter:
            assert active_emitter() is emitter
