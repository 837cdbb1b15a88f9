"""Build the fleet workload's requests from a seed, before any timing.

Run with the program's ``src`` on ``PYTHONPATH``::

    python bench/fleetgen.py --seed 20140324 --requests 20000 --out reqs.json

The output holds the newline-JSON wire requests that pre-enroll the
fleet, a pool of timed requests and the unit-mean exponential gaps of a
Poisson arrival process.  A phase at rate ``R`` sends the first ``n``
pool requests with gaps ``gap / R``, so every phase is a prefix of the
same pool and its outcomes depend on the seed and ``n`` alone.

Mix: 89 % genuine auth, 5 % impostor auth, 5 % key regeneration and
1 % enrollment of new chip ids.  The mix and the fleet size are an
assumption, not measured verifier traffic; the 0-10 year ages and the 5
enrollment votes are ``repro loadgen``'s defaults.  Enrollments go on
connection 0 only, so the service draws its enrollment randomness in
schedule order; the rest alternate between the two connections.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.service import FleetSpec, SyntheticFleet, default_extractor
from repro.service.server import _pack_bits

N_CHIPS = 64
VOTES = 5
YEARS = 10.0
MIX = (("auth", 0.89), ("impostor", 0.05), ("key", 0.05), ("enroll", 0.01))


def enroll_request(chip_id: int, measurements) -> dict:
    return {
        "op": "enroll",
        "chip_id": chip_id,
        "bits": int(measurements[0].size),
        "measurements": [_pack_bits(m) for m in measurements],
    }


def build(seed: int, n_requests: int) -> dict:
    """The requests for ``seed``; a shorter pool is a prefix of a longer
    one, because each stream below draws one request at a time."""
    response_bits = default_extractor().response_bits
    fleet = SyntheticFleet(FleetSpec(n_chips=N_CHIPS, seed=seed), response_bits)
    kind_rng, rng, gap_rng = (np.random.default_rng([seed, k]) for k in (1, 2, 3))
    preenroll = [
        json.dumps(enroll_request(chip, fleet.measurements(chip, VOTES)))
        for chip in range(N_CHIPS)
    ]
    cumulative = np.cumsum([p for _, p in MIX])
    kinds = [MIX[i][0] for i in np.searchsorted(cumulative, kind_rng.random(n_requests) * cumulative[-1], side="right")]
    pool = []
    next_new_chip = N_CHIPS
    turn = 0
    for kind in kinds:
        if kind == "enroll":
            request = enroll_request(next_new_chip, fleet.measurements(next_new_chip % N_CHIPS, VOTES))
            next_new_chip += 1
            conn = 0
        else:
            chip = int(rng.integers(N_CHIPS))
            years = float(rng.uniform(0.0, YEARS))
            bits = fleet.impostor_read(chip, years) if kind == "impostor" else fleet.read(chip, years)
            request = {
                "op": "key" if kind == "key" else "auth",
                "chip_id": chip,
                "bits": response_bits,
                "response": _pack_bits(bits),
            }
            conn = turn % 2
            turn += 1
        pool.append({"kind": kind, "conn": conn, "line": json.dumps(request)})
    return {
        "seed": seed,
        "response_bits": response_bits,
        "preenroll": preenroll,
        "pool": pool,
        "gaps": gap_rng.exponential(1.0, n_requests).tolist(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w") as fh:
        json.dump(build(args.seed, args.requests), fh)


if __name__ == "__main__":
    main()
