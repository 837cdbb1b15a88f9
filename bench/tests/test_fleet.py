"""The load generator's latency accounting and the failure-counting rules."""

import json
import socket
import threading
import time

import fleet
import proc
import workloads

STALL_S = 0.08
STALLED = 5


class InOrderServer:
    """Replies ``ok`` to each line in order, stalling before one reply,
    as the service's per-connection loop would behind a slow request."""

    def __init__(self, stall_at=None, outcomes=None):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.stall_at = stall_at
        self.outcomes = outcomes or {}
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as lines:
            for index, _ in enumerate(lines):
                if index == self.stall_at:
                    time.sleep(STALL_S)
                outcome = self.outcomes.get(index, "ok")
                if outcome is not None:
                    conn.sendall(json.dumps({"outcome": outcome}).encode() + b"\n")

    def connect(self):
        return socket.create_connection(("127.0.0.1", self.port), timeout=10.0)

    def close(self):
        self.listener.close()


def items(n, kind="auth"):
    return [(0, b'{"op": "auth"}\n', kind) for _ in range(n)]


def test_a_stalled_reply_raises_the_latency_of_requests_queued_behind_it():
    server = InOrderServer(stall_at=STALLED)
    with server.connect() as sock:
        gap = 0.005
        phase = fleet.run_phase([sock], items(20), "r200", offsets=[i * gap for i in range(20)])
    server.close()
    latencies = phase.latencies_ms(("auth",))
    assert len(latencies) == 20 and phase.failures() == 0
    # requests due during the stall wait for it, counted from their due time
    for i in range(STALLED, STALLED + 10):
        due_into_stall = (i - STALLED) * gap
        assert latencies[i] >= (STALL_S - due_into_stall) * 1e3 - 5.0
    assert max(latencies[:STALLED]) < STALL_S * 1e3 / 2
    # the sender itself kept to the schedule: the wait is the server's
    assert max(phase.lateness_ms()) < STALL_S * 1e3 / 2


def test_phase_failures_count_missing_and_unexpected_replies():
    phase = fleet.Phase("r500", ["auth", "impostor", "key", "key", "enroll", "auth"])
    phase.due = phase.sent = [0.0] * 6
    phase.recv = [0.001] * 5 + [None]
    phase.replies = [
        b'{"outcome": "ok"}',
        b'{"outcome": "ok"}',  # an impostor must be rejected
        b'{"outcome": "key_recovery"}',  # allowed for key regeneration
        b'{"outcome": "internal"}',
        b"not json",
        None,  # no reply
    ]
    assert phase.failures() == 4
    assert fleet.outcome_string(phase) == "ookxxx"


def test_rate_check_marks_late_or_lagging_phases_invalid():
    good = fleet.RateCheck(2000, 4.0, 0.999, 0, 0.2, False)
    assert good.valid and good.meets_slo
    assert not fleet.RateCheck(2000, 4.0, 0.999, 0, 1.5, False).valid
    assert not fleet.RateCheck(2000, 4.0, 0.95, 0, 0.2, False).valid
    slow = fleet.RateCheck(2000, 12.0, 0.999, 0, 0.2, False)
    assert slow.valid and not slow.meets_slo
    assert not fleet.RateCheck(2000, 4.0, 0.999, 1, 0.2, False).meets_slo


def test_bisection_converges_on_the_highest_passing_rate():
    def probe(rate):
        return fleet.RateCheck(rate, 5.0 if rate <= 3000 else 20.0, 1.0, 0, 0.1, False)

    rate, checks = fleet.bisect_capacity(probe, saturated=4000.0, steps=8)
    assert len(checks) == 8
    assert 2900 < rate <= 3000


def invocation(returncode=0, timed_out=False, stdout=b"same\n"):
    return proc.Invocation(["python", "-m", "repro.cli"], 1.0, 1.0, 100.0, returncode, timed_out, stdout, "")


def test_cli_failures_are_nonzero_exits_timeouts_and_mismatches():
    result = workloads.Result("anchors", 1, 10.0, 0)
    settled = workloads.check_invocations(
        result,
        [
            invocation(returncode=1),
            invocation(),
            invocation(timed_out=True, returncode=-9),
            invocation(stdout=b"different\n"),
            invocation(),
        ],
        expected=None,
    )
    assert settled == b"same\n"
    assert result.attempted == 5
    assert result.failed == 3
    assert not result.correct


def test_cli_output_must_match_the_golden():
    result = workloads.Result("anchors", proc.DEFAULT_SEED, 10.0, 0)
    workloads.check_invocations(result, [invocation()], expected=b"golden\n")
    assert result.failed == 1


def test_fleet_outcomes_must_agree_across_rungs():
    def phase(letters):
        p = fleet.Phase("r", ["auth"] * len(letters))
        names = {"o": "ok", "r": "rejected", "k": "key_recovery"}
        p.sent = [0.0] * len(letters)
        p.replies = [json.dumps({"outcome": names[c]}).encode() for c in letters]
        return p

    result = workloads.Result("fleet_tcp", 7, 10.0, 0)
    workloads.check_outcomes(result, [phase("oor"), phase("oorko")], golden=None)
    assert result.correct
    workloads.check_outcomes(result, [phase("oro"), phase("oorko")], golden=None)
    assert not result.correct
    golden = workloads.Result("fleet_tcp", proc.DEFAULT_SEED, 10.0, 0)
    workloads.check_outcomes(golden, [phase("oor")], golden="ooro")
    assert golden.correct
    workloads.check_outcomes(golden, [phase("oor")], golden="ork")
    assert not golden.correct


def test_a_shorter_request_pool_is_a_prefix_of_a_longer_one():
    import fleetgen

    short, long = fleetgen.build(11, 60), fleetgen.build(11, 150)
    assert short["preenroll"] == long["preenroll"]
    assert short["pool"] == long["pool"][:60]
    assert short["gaps"] == long["gaps"][:60]
    assert {p["kind"] for p in long["pool"]} <= set(fleet.EXPECTED)
    assert all(p["conn"] == 0 for p in long["pool"] if p["kind"] == "enroll")
