"""Benchmark import hook, loaded by every Python process that has this
directory first on ``PYTHONPATH``.

It does nothing unless ``BENCH_TRACE_DIR`` names a directory; then it
installs :mod:`benchtrace`, which traces the program's layer entry
points and writes ``layers-<pid>.json`` and ``trace-<pid>.json`` there
at exit.
"""

import os

if os.environ.get("BENCH_TRACE_DIR"):
    import benchtrace

    benchtrace.install(os.environ["BENCH_TRACE_DIR"])
