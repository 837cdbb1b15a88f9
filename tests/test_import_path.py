"""The CLI's import path and the served request path stay free of scipy.

Only the ECC design search (E6), the sorting attack's binomial tails and
the randomness battery need scipy, and they import it on first use.
Importing ``repro.cli`` therefore loads no ``scipy`` module, and neither
does a ``FleetService`` answering enroll, auth and key requests.  Each
check runs in a fresh interpreter so ``sys.modules`` starts clean; it
asserts on loaded modules rather than on wall time, which is too noisy
to gate.
"""

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _run(script: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    loaded = _run(
        f"""
        import sys
        import repro.cli
        print({SCIPY_LOADED})
        """
    )
    assert loaded == "[]"


def test_service_requests_load_no_scipy():
    outcomes = _run(
        f"""
        import asyncio, sys
        import numpy as np
        from repro.service import FleetService

        service = FleetService(seed=0)
        rng = np.random.default_rng(7)
        bits = [rng.integers(0, 2, service.response_bits, dtype=np.uint8)
                for _ in range(2)]

        async def flow():
            return [
                (await service.enroll(0, [bits[0]] * 3))["outcome"],
                (await service.auth(0, bits[0]))["outcome"],
                (await service.auth(0, bits[1]))["outcome"],
                (await service.key(0, bits[0]))["outcome"],
            ]

        print(asyncio.run(flow()), {SCIPY_LOADED})
        """
    )
    assert outcomes == "['ok', 'ok', 'rejected', 'ok'] []"
