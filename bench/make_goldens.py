"""Regenerate ``bench/golden/`` from the current code at the default seed.

    python3 bench/make_goldens.py

Writes the default-seed stdout of the three CLI workloads, and the
outcome of every request in the fleet's default-seed request pool (all
``ok`` except the listed ``rejected`` and ``key_recovery`` indices).
Run it only when a change is meant to alter the program's results.
"""

from __future__ import annotations

import json
import os
import sys

import fleet
import proc
import workloads


def main() -> int:
    with open(os.path.join(proc.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    ctx = workloads.Context.create()
    try:
        env = proc.program_env(ctx.tmp)
        for workload in workloads.CLI.values():
            inv = proc.run_process(workload.argv(proc.DEFAULT_SEED), env, ctx.tmp, workload.timeout_s, workload.name)
            if inv.returncode != 0:
                print(f"{workload.name}: exit {inv.returncode}\n{inv.stderr}", file=sys.stderr)
                return 1
            with open(workloads.golden_path(workload.name, ".txt"), "wb") as fh:
                fh.write(inv.stdout)
            print(f"{workload.name}: {len(inv.stdout)} bytes")

        reqs = workloads.fleet_requests(ctx, proc.DEFAULT_SEED, workloads.pool_size(seconds))
        result = workloads.Result("fleet_tcp", proc.DEFAULT_SEED, seconds, 0)
        with workloads.Pinning() as pin:
            session = workloads.FleetSession(ctx, result, pin, "golden")
            try:
                session.enroll(reqs)
                phase = session.record(
                    fleet.run_phase(
                        session.socks, reqs.items(len(reqs.pool), "golden"), "golden",
                        window=fleet.SATURATION_WINDOW, duration=600.0,
                    ),
                    all_sent=True,
                )
            finally:
                session.close()
        letters = fleet.outcome_string(phase)
        if not result.correct:
            print(f"fleet: {result.problems}", file=sys.stderr)
            return 1
        golden = {
            "seed": proc.DEFAULT_SEED,
            "requests": len(letters),
            "rejected": [i for i, c in enumerate(letters) if c == "r"],
            "key_recovery": [i for i, c in enumerate(letters) if c == "k"],
        }
        with open(workloads.golden_path("fleet_tcp", ".json"), "w") as fh:
            json.dump(golden, fh)
            fh.write("\n")
        print(f"fleet_tcp: {len(letters)} outcomes")
        return 0
    finally:
        ctx.close()


if __name__ == "__main__":
    sys.exit(main())
