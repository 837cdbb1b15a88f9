"""The CLI loads only what the command it runs needs.

``import repro.cli`` loads no ``scipy`` module, and none of the serving
and parallel machinery either (``asyncio``, ``ssl``,
``concurrent.futures``, ``multiprocessing``, ``repro.service``): ``serve``,
``loadgen``, ``--jobs`` and ``--cache`` import it when they run.  The
out-of-core store (``repro.store``) loads no ``repro.parallel`` module.  The
randomness battery computes its p-values in closed form, so a whole
``check-anchors`` run loads no ``scipy`` module, and neither does a
``FleetService`` answering enroll, auth and key requests.  The binomial
tails of the ECC design search (E6) and the key-failure model are numpy
too, so a whole ``run all`` loads no ``scipy`` module either: scipy is a
test-only oracle.  ``repro.telemetry`` exports only the instrumentation
hooks, so ``import repro.cli`` and a ``check-anchors`` run load none of
the ledger-trend and dashboard modules, ``statistics`` or ``html``.  Each check runs in a fresh interpreter so
``sys.modules`` starts clean; it asserts on loaded modules rather than on
wall time, which is too noisy to gate.
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


def test_cli_import_loads_no_serving_or_parallel_machinery():
    loaded = _run(
        """
        import sys
        import repro.cli
        heavy = ("asyncio", "ssl", "concurrent.futures", "multiprocessing",
                 "repro.service")
        print(sorted(m for m in sys.modules
                     if any(m == h or m.startswith(h + ".") for h in heavy)))
        """
    )
    assert loaded == "[]"


TREND_OR_HTML = (
    "repro.telemetry.history", "repro.telemetry.changepoint",
    "repro.telemetry.monitor", "statistics", "html",
)
TREND_OR_HTML_LOADED = (
    f"sorted(m for m in sys.modules if any(m == h or m.startswith(h + '.') "
    f"for h in {TREND_OR_HTML!r}))"
)


def test_cli_loads_no_ledger_trend_or_html_code():
    """``repro.telemetry`` exports only the hooks: ``history``, ``monitor``
    and ``perf`` import the trend machinery when they run, and nothing a
    ``check-anchors`` run does pulls in ``statistics`` or ``html``."""
    loaded = _run(
        f"""
        import contextlib, io, sys
        import repro.cli
        print({TREND_OR_HTML_LOADED})
        with contextlib.redirect_stdout(io.StringIO()):
            repro.cli.main(["check-anchors", "--chips", "8", "--ros", "32"])
        print({TREND_OR_HTML_LOADED})
        """
    )
    assert loaded == "[]\n[]"


def test_store_import_loads_no_parallel_machinery():
    loaded = _run(
        """
        import sys
        import repro.store
        print(sorted(m for m in sys.modules
                     if m == "repro.parallel" or m.startswith("repro.parallel.")))
        """
    )
    assert loaded == "[]"


def test_check_anchors_loads_no_scipy():
    loaded = _run(
        f"""
        import contextlib, io, sys
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            main(["check-anchors", "--chips", "8", "--ros", "32"])
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


def test_run_all_and_required_correction_load_no_scipy():
    """The binomial tails of E6 and of the key-failure model are numpy
    (``repro.ecc.repetition.binom_sf``): scipy is a test-only oracle."""
    loaded = _run(
        f"""
        import contextlib, io, sys
        from repro.cli import main
        from repro.keygen import required_correction

        with contextlib.redirect_stdout(io.StringIO()):
            main(["run", "all", "--chips", "8", "--ros", "32"])
        assert required_correction(0.05, 127, 1e-6) > 0
        print({SCIPY_LOADED})
        """
    )
    assert loaded == "[]"
