"""Command-line front-end: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli run e2 --chips 50 --ros 256
    python -m repro.cli run e6
    python -m repro.cli run all --chips 25 --out results.txt
    python -m repro.cli run e2 --trace
    python -m repro.cli run e2 --metrics-out metrics.json
    python -m repro.cli run e2 --ledger runs/ledger.jsonl --events runs/events.jsonl
    python -m repro.cli run e2 --jobs 4 --trace-out run.trace.json --sample-rss 10
    python -m repro.cli monitor --events runs/events.jsonl --follow
    python -m repro.cli run e2 --jobs 4
    python -m repro.cli run e2 --chips 1000000 --ros 128 --store mmap
    python -m repro.cli run all --cache runs/cache
    python -m repro.cli history --ledger runs/ledger.jsonl
    python -m repro.cli check-anchors --chips 25 --ros 128
    python -m repro.cli explain --chip 3 --top 16
    python -m repro.cli explain --json explain.json --heatmap margins.ppm

``explain`` runs the margin-forensics capture (experiment E13's
machinery) and prints per-design margin summaries plus a per-chip
thinnest-margins bit table: fresh vs aged signed margins, the NBTI/HCI
split of each shift, and whether the enrolment-time forecast called the
bit.  ``--json`` writes the schema-checked payload, ``--heatmap`` a
chips-by-bits oriented-margin PPM (blue = holding, red = flipped).

``run`` executes the experiment(s) at the requested Monte-Carlo scale and
prints the paper-style tables.  At the default scale, ``run all`` prints
the tables EXPERIMENTS.md quotes, and ``report`` writes the same tables
into REPORT.md.

Telemetry flags (``run``, ``report``, ``check-anchors``, ``explain``,
``serve`` and ``loadgen``):

* ``--trace`` prints the nested span tree (wall time per engine stage)
  and the kernel counters after the tables;
* ``--metrics-out PATH`` writes spans + counters + a complete
  :class:`~repro.telemetry.manifest.RunManifest` (seed, git SHA,
  numpy/platform versions) as JSON, the artefact CI's smoke step
  validates;
* ``--ledger PATH`` appends each experiment's headline scalars (plus the
  manifest) to an append-only JSONL run ledger — the longitudinal record
  ``history`` renders and ``check-anchors --from-ledger`` gates on;
* ``--events PATH`` streams throttled JSONL progress heartbeats (stage,
  chips done, ETA) from the batched kernels while the run is in flight;
  ``--events-max-bytes N`` rotates that file to ``<name>.1`` before it
  exceeds N bytes and lifts the per-run event cap, for long-lived runs
  such as ``serve``;
* ``--trace-out PATH`` writes the run as Chrome ``trace_event`` JSON —
  open it in Perfetto (ui.perfetto.dev) or speedscope for a flame
  chart; a ``--jobs N`` run renders as one timeline with a lane per
  worker shard, clock-aligned against the coordinator;
* ``--sample-rss HZ`` samples process RSS and registered probes (e.g.
  the store's materialised-block count) on a background thread; the
  series lands in ``--metrics-out`` and as Perfetto counter tracks.

``monitor`` renders a dashboard over an ``--events`` file — per-stage
progress bars with rolling rate and ETA, the open span, an RSS
sparkline — either post-hoc or live with ``--follow``.

Execution flags:

* ``--jobs N`` shards the batched engine's chip axis over N worker
  processes (E1 to E5, E10, E13); results are bit-identical for any N;
* ``--store mmap`` evaluates out-of-core: the population lives in lazily
  fabricated memory-mapped column segments and is streamed block by
  block, bounding peak RSS at any chip count (million-chip sweeps in a
  few GB); responses are bit-identical to the in-RAM default.
  ``--store-dir DIR`` keeps each design's segments in ``DIR/<design>``
  after the run, and a later run of the same population re-attaches them;
* ``--block-size CHIPS`` sets the chip block the population is
  fabricated (``mmap``) and streamed through the kernel in, for either
  store; block boundaries never change a result;
* ``--cache DIR`` (``run`` / ``check-anchors``) reuses stored results
  when the content-addressed (experiment, config, code) key matches,
  printing an explicit ``cache hit:`` marker and recording hits/misses
  in the run manifest.

``run``, ``check-anchors`` and ``report`` share one runner, which runs
each experiment once (or fetches it) and ledgers every result under the
invocation's one manifest; the registry lives in :mod:`repro.analysis.render`.

``history`` renders per-metric trends over a ledger (sparkline, latest
value, median+MAD movement verdict), and ``perf history`` / ``perf gate``
do the same for the perf entries; ``check-anchors`` measures the paper's
anchor experiments fresh (or judges an existing ledger via
``--from-ledger``) and exits non-zero when any anchor lands outside its
fail band.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import telemetry
from .aging.schedule import MissionProfile
from .analysis import experiments as exp
from .analysis.render import EXPERIMENTS, ExperimentSpec  # noqa: F401 (re-export)
from .telemetry.anchors import (
    ANCHOR_EXPERIMENTS,
    DESIGN_FLIPS_10Y,
    check_anchors,
    latest_scalars,
    render_verdicts,
    worst_status,
)
from .telemetry.events import (
    ProgressEmitter,
    active_emitter,
    install_emitter,
    uninstall_emitter,
)
from .telemetry.ledger import (
    PERF_LEDGER_ENV,
    Ledger,
    LedgerEntry,
    entry_from_bench_payload,
)
from .telemetry.manifest import (
    RunManifest,
    execution_fields,
    host_fingerprint,
    package_version,
)
from .telemetry.tracer import peak_rss_bytes

def _positive_int(text: str) -> int:
    """argparse type for counts: a helpful error beats a traceback."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type for rates and fractions (``--sample-rss HZ``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _years(text: str) -> float:
    """argparse type for a time horizon: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative, got {value}"
        )
    return value


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chips", type=int, default=50, help="Monte-Carlo chips (default 50)"
    )
    parser.add_argument(
        "--ros", type=int, default=256, help="oscillators per chip (default 256)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="root RNG seed (default: fixed)"
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for the batched engine (default 1 = serial; "
        "results are bit-identical for any N)",
    )
    parser.add_argument(
        "--store",
        choices=["ram", "mmap"],
        default="ram",
        help="population storage: 'ram' holds the dense tensors in memory "
        "(default, the bit-identity reference); 'mmap' streams lazily "
        "fabricated memory-mapped column segments, bounding peak RSS at "
        "any chip count (bit-identical to 'ram')",
    )
    parser.add_argument(
        "--block-size",
        type=_positive_int,
        default=None,
        metavar="CHIPS",
        help="chips per population block, for either --store: the unit "
        "in which rows are fabricated (mmap) and streamed through the "
        "kernel, which never works on more at once; results are "
        "identical for any value (default: ~2M elements per column "
        "block with mmap, the whole population with ram)",
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="directory for --store mmap segments (default: a temporary "
        "directory, removed when the run ends); a named directory keeps "
        "each design's segments in DIR/<design> after the run, a later run "
        "with the same chips, ROs, seed and mission re-attaches them, and "
        "any other population there is refused",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARO-PUF (DATE 2014) reproduction: run paper experiments.",
    )
    execution = execution_fields()
    parser.add_argument(
        "--version",
        action="version",
        # package version first (scripted consumers split on it), then
        # the perf-ledger host identity so "which machine produced this
        # number" is answerable from the version string alone
        version=(
            f"%(prog)s {package_version()} "
            f"(numpy {execution['numpy_version']}, "
            f"{execution['platform_triple']}, "
            f"host {execution['host_fingerprint']})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    telemetry_args = argparse.ArgumentParser(add_help=False)
    tgroup = telemetry_args.add_argument_group("telemetry")
    tgroup.add_argument(
        "--trace",
        action="store_true",
        help="print the nested span tree and kernel counters after the run",
    )
    tgroup.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write spans + counters + run manifest to PATH as JSON",
    )
    tgroup.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the run as Chrome trace_event JSON (open in Perfetto: "
        "ui.perfetto.dev); parallel runs get one lane per worker shard",
    )
    tgroup.add_argument(
        "--sample-rss",
        type=_positive_float,
        metavar="HZ",
        default=None,
        help="sample process RSS (and registered probes) HZ times per "
        "second on a background thread; the series lands in --metrics-out "
        "and as counter tracks in --trace-out",
    )
    tgroup.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="append each experiment's headline scalars to this JSONL ledger",
    )
    tgroup.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="stream throttled JSONL progress heartbeats to PATH",
    )
    tgroup.add_argument(
        "--events-max-bytes",
        type=int,
        metavar="N",
        default=None,
        help="rotate the --events file to <name>.1 before it exceeds N "
        "bytes (min 1024) and lift the per-run event cap — bounded disk "
        "for long-lived runs like 'serve'; monitor --follow survives the "
        "rotation",
    )

    sub.add_parser("list", help="list the available experiments")

    report = sub.add_parser(
        "report",
        help="run experiments and write a Markdown report",
        parents=[telemetry_args],
    )
    report.add_argument(
        "--experiments",
        nargs="+",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="subset to include (default: all)",
    )
    _add_scale_args(report)
    report.add_argument(
        "--path", default="REPORT.md", help="output file (default REPORT.md)"
    )

    run = sub.add_parser(
        "run",
        help="run one experiment (or 'all')",
        parents=[telemetry_args],
    )
    run.add_argument(
        "experiment",
        help="experiment id from DESIGN.md section 4 (see 'list'), or 'all'",
    )
    _add_scale_args(run)
    run.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the tables to this file (parent dirs are created)",
    )
    run.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed result cache: reuse a stored result when "
        "the (experiment, config, code) key matches, store it otherwise",
    )

    history = sub.add_parser(
        "history",
        help="render per-metric trends over a run ledger",
    )
    history.add_argument(
        "--ledger",
        metavar="PATH",
        required=True,
        help="the JSONL ledger to read (as written by run/report --ledger)",
    )
    history.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="only metrics containing SUBSTR (repeatable; e.g. --metric e2)",
    )
    # None defers to history.RUN_WINDOW / RUN_THRESHOLD, so parsing
    # does not import the trend machinery
    history.add_argument(
        "--window",
        type=_positive_int,
        default=None,
        help="trailing median window in runs (default 5)",
    )
    history.add_argument(
        "--threshold",
        type=_positive_float,
        default=None,
        help="relative noise floor vs the median (default 0.1)",
    )
    history.add_argument(
        "--last",
        type=_positive_int,
        default=None,
        metavar="N",
        help="only the newest N recordings of each metric",
    )

    monitor = sub.add_parser(
        "monitor",
        help="render a dashboard over an events JSONL (post-hoc or --follow)",
    )
    monitor.add_argument(
        "--events",
        metavar="PATH",
        required=True,
        help="the events file to read (as written by run/report --events)",
    )
    monitor.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the file and redrawing until the run ends "
        "(the file may not exist yet; Ctrl-C to stop)",
    )
    monitor.add_argument(
        "--interval",
        type=_positive_float,
        default=0.5,
        metavar="S",
        help="redraw interval in seconds with --follow (default 0.5)",
    )

    perf = sub.add_parser(
        "perf",
        help="the performance observatory: perf-ledger trends and "
        "regression gating",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    perf_ledger_args = argparse.ArgumentParser(add_help=False)
    perf_ledger_args.add_argument(
        "--perf-ledger",
        metavar="PATH",
        required=True,
        help="the ledger JSONL whose perf entries to read (as appended by "
        "benchmark runs with REPRO_PERF_LEDGER set, or loadgen "
        "--perf-ledger); may be the --ledger file",
    )
    perf_ledger_args.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="only metrics containing SUBSTR (repeatable)",
    )
    perf_ledger_args.add_argument(
        "--host",
        metavar="FINGERPRINT",
        default=None,
        help="only entries from this host fingerprint ('this' = the "
        "current machine's); default: no filter",
    )

    perf_history = perf_sub.add_parser(
        "history",
        help="per-metric perf trends with robust change-point verdicts",
        parents=[perf_ledger_args],
    )
    perf_history.add_argument(
        "--last",
        type=_positive_int,
        default=None,
        metavar="N",
        help="only the newest N recordings of each metric",
    )

    perf_sub.add_parser(
        "gate",
        help="exit non-zero when any perf metric's 'perf history' verdict "
        "is regress",
        parents=[perf_ledger_args],
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the fleet enrollment/authentication service (asyncio "
        "TCP, newline-delimited JSON; Ctrl-C / SIGTERM to stop)",
        parents=[telemetry_args],
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=9750,
        help="bind port; 0 picks a free one (default %(default)s)",
    )
    serve_p.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional-HD acceptance bound for auth (default %(default)s)",
    )
    serve_p.add_argument(
        "--key-bits",
        type=int,
        default=128,
        help="extracted key width for the fuzzy-extractor endpoints "
        "(default %(default)s)",
    )
    serve_p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="enrollment masking-randomness seed (default %(default)s)",
    )
    serve_p.add_argument(
        "--audit",
        metavar="PATH",
        default=None,
        help="append one JSONL audit line per request (trace id, "
        "endpoint, chip, outcome, duration) to PATH",
    )
    serve_p.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="persist enrollment records (reference + helper data + key "
        "digest) to this append-only JSONL file, reloading it on start",
    )
    serve_p.add_argument(
        "--inject-latency-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="artificial per-request delay inside the measured window "
        "(SLO-regression test hook; default 0)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="enroll a synthetic aging fleet and hammer the service; "
        "RED metrics, SLO verdicts and a benchmark-shaped artefact out",
        parents=[telemetry_args],
    )
    loadgen.add_argument(
        "--chips",
        type=int,
        default=16,
        help="synthetic fleet size (default %(default)s)",
    )
    loadgen.add_argument(
        "--design",
        choices=sorted(DESIGN_FLIPS_10Y),
        default="aro-puf",
        help="which 10-year flip-rate curve ages the fleet "
        "(default %(default)s)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=0, help="fleet seed (default %(default)s)"
    )
    bound = loadgen.add_mutually_exclusive_group()
    bound.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="stop after N requests (default 2000 when --duration unset)",
    )
    bound.add_argument(
        "--duration",
        type=_positive_float,
        default=None,
        metavar="S",
        help="stop after S seconds of request load",
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="concurrent worker coroutines (default %(default)s)",
    )
    loadgen.add_argument(
        "--years",
        type=float,
        default=10.0,
        help="mission horizon the fleet ages over during the run "
        "(default %(default)s)",
    )
    loadgen.add_argument(
        "--votes",
        type=int,
        default=5,
        help="enrollment-time majority-vote reads per chip "
        "(default %(default)s)",
    )
    loadgen.add_argument(
        "--noise",
        type=float,
        default=1.0,
        metavar="PCT",
        help="fresh measurement-noise floor, %% of bits (default %(default)s)",
    )
    loadgen.add_argument(
        "--key-fraction",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fraction of requests hitting the fuzzy-extractor 'key' "
        "endpoint instead of 'auth' (default %(default)s)",
    )
    loadgen.add_argument(
        "--impostor-fraction",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fraction of auths answered from the wrong chip's silicon "
        "(default %(default)s)",
    )
    loadgen.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="inline service's auth threshold (default %(default)s)",
    )
    loadgen.add_argument(
        "--key-bits",
        type=int,
        default=128,
        help="inline service's key width (default %(default)s)",
    )
    loadgen.add_argument(
        "--inject-latency-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="inline service's artificial per-request delay (SLO-"
        "regression test hook; default 0)",
    )
    loadgen.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="load an already-running 'repro serve' over TCP instead of "
        "an in-process service (one connection per worker; retries "
        "until --connect-timeout)",
    )
    loadgen.add_argument(
        "--connect-timeout",
        type=_positive_float,
        default=10.0,
        metavar="S",
        help="seconds to keep retrying --connect (default %(default)s)",
    )
    loadgen.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the benchmark-shaped loadgen artefact (values + "
        "histograms + service RED/SLO sections + manifest) to PATH",
    )
    loadgen.add_argument(
        "--slo-spec",
        metavar="PATH",
        default=None,
        help="JSON SLO spec to judge instead of the built-in defaults "
        "(see docs/observability.md for the format)",
    )
    loadgen.add_argument(
        "--slo-gate",
        choices=["off", "informational", "enforce"],
        default="informational",
        help="off: skip verdicts; informational: print them; enforce: "
        "exit non-zero when any objective fails (default %(default)s)",
    )
    loadgen.add_argument(
        "--perf-ledger",
        metavar="PATH",
        default=None,
        help="append the run's throughput/quantiles to this perf ledger "
        "(REPRO_PERF_LEDGER is honoured when the flag is unset)",
    )

    anchors = sub.add_parser(
        "check-anchors",
        help="measure the paper's anchors and exit non-zero on failure",
        parents=[telemetry_args],
    )
    _add_scale_args(anchors)
    anchors.add_argument(
        "--eval-duty",
        type=float,
        default=None,
        metavar="DUTY",
        help="override the mission's evaluation duty cycle (perturbation "
        "knob: a large duty ages the ARO like a conventional PUF)",
    )
    anchors.add_argument(
        "--from-ledger",
        metavar="PATH",
        default=None,
        help="judge the latest scalars of an existing ledger instead of "
        "running the anchor experiments fresh",
    )
    anchors.add_argument(
        "--require-all",
        action="store_true",
        help="treat anchors with no recorded metric as failures",
    )
    anchors.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed result cache for the anchor experiments "
        "(same semantics as 'run --cache')",
    )

    explain = sub.add_parser(
        "explain",
        help="per-bit margin forensics: capture, attribute, forecast",
        parents=[telemetry_args],
    )
    _add_scale_args(explain)
    explain.add_argument(
        "--design",
        choices=["ro-puf", "aro-puf", "both"],
        default="both",
        help="which design to explain (default both)",
    )
    explain.add_argument(
        "--chip",
        type=int,
        default=0,
        help="chip index for the per-bit table (default 0)",
    )
    explain.add_argument(
        "--top",
        type=int,
        default=12,
        help="bits to show, thinnest fresh margins first (default 12)",
    )
    explain.add_argument(
        "--horizon",
        type=_years,
        default=None,
        metavar="YEARS",
        help="forecast horizon in years (default: the paper's 10)",
    )
    explain.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the machine-readable forensics payload to PATH",
    )
    explain.add_argument(
        "--heatmap",
        metavar="PATH",
        default=None,
        help="write a chips-by-bits oriented-margin heatmap (binary PPM); "
        "with --design both the design name is suffixed onto PATH",
    )
    return parser


def _telemetry_wanted(args: argparse.Namespace) -> bool:
    # --trace-out needs spans to export; --sample-rss needs a tracer for
    # span attribution and the perf-counter epoch the series is keyed to
    return bool(
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "sample_rss", None)
    )


def _manifest(
    args: argparse.Namespace,
    config: exp.ExperimentConfig,
    cache_summary: Optional[Dict[str, Any]] = None,
    tracer: Optional[telemetry.Tracer] = None,
) -> RunManifest:
    """The invocation's one manifest: collected on first use, which comes
    after the work, and kept on ``args`` so the ledger entries, the
    ``telemetry`` entry and ``--metrics-out`` all share it.

    ``jobs``, the store mode and the cache summary ride as top-level
    manifest fields, not inside ``config``: they change how the run
    executed, never what it measured, so the ledger's config digest must
    not see them.  Out-of-core runs additionally sample the process peak
    RSS — the number the store exists to bound — so the ledger records
    the memory high-water mark alongside the scalars it produced.
    """
    manifest = getattr(args, "manifest", None)
    if manifest is not None:
        return manifest
    peak = peak_rss_bytes() if config.store == "mmap" else None
    tracer = tracer if tracer is not None else telemetry.active()
    histograms = tracer.histogram_summaries() if tracer is not None else {}
    args.manifest = RunManifest.collect(
        seed=config.seed,
        config={
            "command": args.command,
            "n_chips": config.n_chips,
            "n_ros": config.n_ros,
            "experiment": getattr(args, "experiment", None)
            or getattr(args, "experiments", None),
        },
        argv=sys.argv,
        jobs=config.jobs,
        cache=cache_summary,
        store=config.store,
        block_size=config.block_size,
        peak_rss_bytes=peak,
        histograms=histograms or None,
    )
    return args.manifest


def _result_config(config: exp.ExperimentConfig) -> Dict[str, Any]:
    """The result-determining config dict a cache key digests.

    Everything that changes the numbers is in; ``jobs``, ``store``,
    ``block_size`` and ``store_dir`` — all bit-identical by construction
    — are excluded, so a result computed at any worker count or store
    mode satisfies a request at any other.
    """
    cfg = dataclasses.asdict(config)
    for key in ("jobs", "store", "block_size", "store_dir"):
        cfg.pop(key, None)
    return cfg


def _run_experiments(
    keys: Sequence[str], config: exp.ExperimentConfig, args: argparse.Namespace
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run each experiment in ``keys`` once, or fetch it from ``--cache``,
    then ledger every result under the invocation's manifest.

    The one runner behind ``run``, ``check-anchors`` and ``report``.
    Returns ``{key: result}`` in ``keys`` order, and the cache summary
    (``None`` without ``--cache``) that the manifest records and the
    caller's ``cache:`` line reports.
    """
    cache = None
    if getattr(args, "cache", None):
        from .parallel import ResultCache, cache_key

        cache = ResultCache(args.cache)
        cfg = _result_config(config)
    results: Dict[str, Any] = {}
    hits: List[str] = []
    misses: List[str] = []
    for key in dict.fromkeys(keys):
        spec = EXPERIMENTS[key]
        if cache is None:
            results[key] = spec.run(config)
            continue
        ck = cache_key(key, cfg)
        result = cache.get(ck)
        if result is not None:
            print(f"cache hit: {key} (key {ck[:12]})")
            emitter = active_emitter()
            if emitter is not None:
                emitter.lifecycle("cache.hit", experiment=key, key=ck)
            hits.append(key)
        else:
            result = spec.run(config)
            cache.put(ck, result, meta={"experiment": key, "config": cfg})
            misses.append(key)
        results[key] = result
    summary = None
    if cache is not None:
        summary = {"dir": str(cache.root), "hits": hits, "misses": misses}
    if args.ledger or args.metrics_out:
        # collected now, while the cache summary is at hand
        manifest = _manifest(args, config, summary)
        if args.ledger:
            ledger = Ledger(args.ledger)
            for key, result in results.items():
                ledger.record(key, result.ledger_scalars(), manifest)
    return results, summary


def _print_cache_line(summary: Optional[Dict[str, Any]]) -> None:
    if summary is not None:
        print(
            f"cache: {len(summary['hits'])} hit(s), "
            f"{len(summary['misses'])} miss(es) in {summary['dir']}"
        )


def _start_telemetry(args: argparse.Namespace) -> None:
    """Install the tracer/emitter/sampler the flags ask for.

    Every command installs the same :class:`~repro.telemetry.Tracer`:
    its context-local span slot serves a batch run and an asyncio
    server alike.
    """
    if _telemetry_wanted(args):
        telemetry.install(telemetry.Tracer())
    if getattr(args, "events", None):
        max_bytes = getattr(args, "events_max_bytes", None)
        kwargs: Dict[str, Any] = {"max_bytes": max_bytes}
        if max_bytes is not None:
            # rotation bounds the disk, so the anti-runaway event cap
            # would only truncate a deliberately long-lived run
            kwargs["max_events"] = 10**9
        emitter = install_emitter(ProgressEmitter(args.events, **kwargs))
        # a raising first heartbeat (unwritable path, closed pipe) must
        # not leave the emitter installed: main() only reaches its
        # finally-cleanup after _start_telemetry returns
        try:
            emitter.lifecycle(
                "run.start",
                command=args.command,
                experiment=getattr(args, "experiment", None),
            )
        except BaseException:
            uninstall_emitter()
            raise
    if getattr(args, "sample_rss", None):
        from .telemetry.sampler import (
            ResourceSampler,
            install_sampler,
            uninstall_sampler,
        )

        try:
            install_sampler(ResourceSampler(args.sample_rss)).start()
        except BaseException:
            uninstall_sampler()
            uninstall_emitter()
            telemetry.uninstall()
            raise


def _finish_telemetry(args: argparse.Namespace, config) -> None:
    """Uninstall tracer/emitter/sampler and emit the requested views.

    The sampler stops first (its final tick may still echo through the
    emitter and read the tracer's open span), the emitter second, the
    tracer last.
    """
    sampler = None
    if getattr(args, "sample_rss", None):
        from .telemetry.sampler import uninstall_sampler

        sampler = uninstall_sampler()
    emitter = active_emitter()
    if emitter is not None:
        # uninstall even if the final lifecycle write raises (disk full,
        # closed pipe): a stuck emitter would poison every later install
        try:
            emitter.lifecycle("run.end", n_events=emitter.n_events + 1)
        finally:
            uninstall_emitter()
    tracer = telemetry.uninstall()
    if tracer is None:
        return
    if args.trace:
        from .telemetry.export import (
            render_counters,
            render_histograms,
            render_span_tree,
        )

        print("\n── telemetry: span tree " + "─" * 40)
        print(render_span_tree(tracer))
        print("\n── telemetry: counters " + "─" * 41)
        print(render_counters(tracer))
        if tracer.histograms:
            print("\n── telemetry: histograms " + "─" * 39)
            print(render_histograms(tracer))
    if args.metrics_out:
        from .telemetry.export import write_metrics

        manifest = _manifest(args, config, tracer=tracer)
        path = write_metrics(args.metrics_out, tracer, manifest, sampler)
        print(f"metrics written to {path}")
    if getattr(args, "trace_out", None):
        from .telemetry.chrome import write_chrome_trace

        path = write_chrome_trace(args.trace_out, tracer, sampler)
        print(f"chrome trace written to {path} (open in ui.perfetto.dev)")
    if getattr(args, "ledger", None) and tracer.histograms:
        from .telemetry.histogram import flatten_summaries

        # the run's latency quantiles as ledger scalars, so histogram
        # drift is visible to `repro history`
        Ledger(args.ledger).record(
            "telemetry",
            flatten_summaries(tracer.histograms),
            _manifest(args, config, tracer=tracer),
        )


def _monitor_command(args: argparse.Namespace) -> int:
    """Render the events-file dashboard, once or in a tail loop."""
    import time as _time

    from .telemetry.monitor import MonitorState, parse_events, render_monitor

    path = pathlib.Path(args.events)
    state = MonitorState()
    if not args.follow:
        if not path.exists():
            print(f"error: no events file at {path}", file=sys.stderr)
            return 2
        with path.open() as fh:
            parse_events(fh, state)
        print(render_monitor(state))
        return 0
    # follow mode: tail new lines, redraw on change, stop at run.end.
    # The file may not exist yet (monitor started before the run).
    pos = 0
    last = None
    try:
        while True:
            if path.exists():
                if path.stat().st_size < pos:
                    # the file shrank under us.  A size-capped emitter
                    # (--events-max-bytes) rotates the full file to
                    # <name>.1 and keeps writing a fresh one: drain the
                    # lines we had not yet read from the rotated file,
                    # then restart from the new file's head.  No .1
                    # sibling means a genuine truncation — the run this
                    # dashboard was following is gone, and re-reading
                    # from `pos` would silently hang at EOF forever.
                    rotated = path.with_name(path.name + ".1")
                    if rotated.exists() and rotated.stat().st_size >= pos:
                        with rotated.open() as fh:
                            fh.seek(pos)
                            tail = fh.readlines()
                        if tail:
                            parse_events(tail, state)
                        pos = 0
                    else:
                        print(
                            f"events file {path} was truncated; stopping",
                            flush=True,
                        )
                        return 0
                with path.open() as fh:
                    fh.seek(pos)
                    lines = fh.readlines()
                    pos = fh.tell()
                if lines:
                    parse_events(lines, state)
            text = render_monitor(state)
            if text != last:
                # clear screen + home, then the fresh dashboard
                print("\x1b[2J\x1b[H" + text, flush=True)
                last = text
            if state.n_events and not state.running:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _read_ledger(path: str, kind: str) -> Tuple[List[LedgerEntry], bool]:
    """The ``kind`` entries of the ledger at ``path``, and whether the
    file has lines but none of them loads.

    Prints the number of unreadable lines whenever it is non-zero: a
    ledger that lost lines must not read as one that was never written.
    """
    ledger = Ledger(path)
    entries = ledger.entries()
    if ledger.n_skipped:
        print(f"ledger {path}: {ledger.n_skipped} unreadable line(s) skipped")
    lost = bool(ledger.n_skipped) and not entries
    return [e for e in entries if e.kind == kind], lost


def _history_command(args: argparse.Namespace) -> int:
    from .telemetry.history import render_history

    entries, _ = _read_ledger(args.ledger, "run")
    print(
        render_history(
            entries,
            metrics=args.metric,
            window=args.window,
            threshold=args.threshold,
            last=args.last,
        )
    )
    return 0


def _perf_entries(
    args: argparse.Namespace,
) -> Tuple[List[LedgerEntry], bool]:
    """The perf entries of ``--perf-ledger``, filtered by ``--host``, and
    whether the file lost every line."""
    entries, lost = _read_ledger(args.perf_ledger, "perf")
    host = args.host
    if host == "this":
        host = host_fingerprint()
    if host is not None:
        entries = [e for e in entries if e.host == host]
    return entries, lost


def _perf_history_command(args: argparse.Namespace) -> int:
    from .telemetry.history import render_history

    entries, _ = _perf_entries(args)
    print(render_history(entries, metrics=args.metric, last=args.last))
    return 0


def _perf_gate_command(args: argparse.Namespace) -> int:
    from .telemetry.history import history_rows

    entries, lost = _perf_entries(args)
    if lost:
        print(
            f"error: no line of perf ledger {args.perf_ledger} could be read",
            file=sys.stderr,
        )
        return 2
    rows = history_rows(entries, metrics=args.metric)
    if not rows:
        print("perf gate: empty perf ledger, nothing to judge")
        return 0
    regressions = []
    for row in rows:
        point = row.point
        marker = ""
        if row.verdict == "regress":
            marker = "  << REGRESSION"
            regressions.append(row.metric)
        detail = ""
        if point.moved and point.change is not None:
            detail = f" ({point.change:+.1%} vs median {point.median:.4g})"
        print(f"{row.metric}: {row.verdict}{detail}{marker}")
    if regressions:
        print(
            f"perf gate: {len(regressions)} confirmed regression(s): "
            + ", ".join(regressions)
        )
        return 1
    print("perf gate: no confirmed regressions")
    return 0


def _perf_command(args: argparse.Namespace) -> int:
    return {
        "history": _perf_history_command,
        "gate": _perf_gate_command,
    }[args.perf_command](args)


def _check_anchors_command(
    args: argparse.Namespace, config: exp.ExperimentConfig
) -> int:
    if args.from_ledger:
        if not pathlib.Path(args.from_ledger).exists():
            print(f"error: no such ledger: {args.from_ledger}", file=sys.stderr)
            return 2
        entries, _ = _read_ledger(args.from_ledger, "run")
        if not entries:
            print(
                f"error: {args.from_ledger} holds no ledger entries of kind run",
                file=sys.stderr,
            )
            return 2
        scalars = latest_scalars(entries)
        source = f"ledger {args.from_ledger} ({len(entries)} entries)"
    else:
        results, cache_summary = _run_experiments(ANCHOR_EXPERIMENTS, config, args)
        scalars = {
            f"{key}.{name}": value
            for key, result in results.items()
            for name, value in result.ledger_scalars().items()
        }
        _print_cache_line(cache_summary)
        source = (
            f"fresh run, {config.n_chips} chips x {config.n_ros} ROs, "
            f"seed {config.seed}"
        )
    verdicts = check_anchors(scalars)
    print(f"anchors vs {source}")
    print(render_verdicts(verdicts))
    worst = worst_status(
        verdicts, missing_is_fail=args.require_all or not args.from_ledger
    )
    print(f"worst status: {worst}")
    return 1 if worst == "fail" else 0


def _explain_command(
    args: argparse.Namespace, config: exp.ExperimentConfig
) -> int:
    """Run the forensics capture and render/export the requested views."""
    from contextlib import closing

    from .forensics.capture import DEFAULT_HORIZON, capture_forensics
    from .forensics.export import (
        explain_payload,
        write_explain_json,
        write_margin_heatmap,
    )
    from .forensics.report import render_bit_table, render_forensics_summary

    designs = config.designs()
    if args.design != "both":
        designs = {args.design: designs[args.design]}
    t_horizon = args.horizon if args.horizon is not None else DEFAULT_HORIZON
    reports = {}
    for name, design in designs.items():
        with closing(config.batch_study_for(design)) as study:
            reports[name] = capture_forensics(
                study, design_label=name, t_horizon=t_horizon
            )

    print(render_forensics_summary(reports))
    for rep in reports.values():
        print()
        print(render_bit_table(rep, chip=args.chip, top=args.top))

    if args.ledger:
        # the capture is E13's machinery, so the ledger entry matches a
        # `run e13` at the same scale (same keys, same scalars)
        result = exp.MarginForensicsResult(
            reports=reports,
            t_horizon=float(t_horizon),
            k=next(iter(reports.values())).forecast.k,
        )
        ledger = Ledger(args.ledger)
        ledger.record("e13", result.ledger_scalars(), _manifest(args, config))
        print(f"ledger: e13 scalars appended to {ledger.path}")
    if args.json:
        payload = explain_payload(
            reports,
            config={
                "n_chips": config.n_chips,
                "n_ros": config.n_ros,
                "seed": config.seed,
                "jobs": config.jobs,
                "t_horizon": float(t_horizon),
            },
            chip=args.chip,
            top=args.top,
        )
        path = write_explain_json(args.json, payload)
        print(f"explain payload written to {path}")
    if args.heatmap:
        base = pathlib.Path(args.heatmap)
        for name, rep in reports.items():
            path = (
                base
                if len(reports) == 1
                else base.with_name(f"{base.stem}-{name}{base.suffix or '.ppm'}")
            )
            written = write_margin_heatmap(path, rep)
            print(f"margin heatmap ({name}) written to {written}")
    return 0


async def _serve_async(args: argparse.Namespace, service) -> None:
    """Bind the service and serve until SIGINT/SIGTERM (or Ctrl-C)."""
    import asyncio
    import signal

    from .service import serve as bind_service

    server = await bind_service(service, args.host, args.port)
    host, port = server.sockets[0].getsockname()[:2]
    print(
        f"serving on {host}:{port} "
        f"({service.response_bits}-bit responses, threshold "
        f"{service.threshold}, {len(service.store)} chip(s) enrolled); "
        "Ctrl-C to stop",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, ValueError):  # pragma: no cover
            pass  # non-Unix loop: KeyboardInterrupt still unwinds us
    from .telemetry.sampler import EventLoopLagProbe

    async with EventLoopLagProbe():
        await stop.wait()
    server.close()
    await server.wait_closed()


def _serve_command(args: argparse.Namespace) -> int:
    """``repro serve``: the fleet service with full observability."""
    import asyncio

    from .service import AuditTrail, FleetService, HelperStore, default_extractor

    config = exp.ExperimentConfig(seed=args.seed)
    _start_telemetry(args)
    service = None
    try:
        service = FleetService(
            extractor=default_extractor(args.key_bits),
            threshold=args.threshold,
            seed=args.seed,
            store=HelperStore(args.store) if args.store else None,
            audit=AuditTrail(args.audit) if args.audit else None,
            inject_latency_s=args.inject_latency_ms / 1e3,
        )
        try:
            asyncio.run(_serve_async(args, service))
        except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
            pass
        metrics = service.red.metrics()
        if metrics:
            print("service RED metrics:")
            for key, value in sorted(metrics.items()):
                print(f"  {key} = {value:.6g}")
        return 0
    finally:
        if service is not None:
            tracer = telemetry.active()
            if tracer is not None:
                # fold RED counters + latency histograms into the tracer
                # so --metrics-out / --ledger / manifests carry them
                service.red.publish(tracer)
            if service.audit is not None:
                service.audit.close()
                print(
                    f"audit trail: {service.audit.n_records} request(s) "
                    f"in {service.audit.path}"
                )
        _finish_telemetry(args, config)


async def _loadgen_async(args: argparse.Namespace, n_requests: Optional[int]):
    """Build the client (inline or TCP pool) + fleet, run the load."""
    import asyncio
    import time as _time

    from .service import (
        FleetService,
        FleetSpec,
        ServiceClientPool,
        SyntheticFleet,
        default_extractor,
        run_loadgen,
    )

    close_client = None
    if args.connect:
        host, _, port_s = args.connect.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_s)
        except ValueError:
            raise SystemExit(f"error: --connect wants HOST:PORT, got {args.connect!r}")
        deadline = _time.perf_counter() + args.connect_timeout
        while True:
            try:
                client = await ServiceClientPool.connect(
                    host, port, args.concurrency
                )
                break
            except OSError:
                if _time.perf_counter() >= deadline:
                    raise
                await asyncio.sleep(0.2)
        close_client = client.close
        status = await client.status()
        response_bits = int(status["response_bits"])
    else:
        client = FleetService(
            extractor=default_extractor(args.key_bits),
            threshold=args.threshold,
            seed=args.seed,
            inject_latency_s=args.inject_latency_ms / 1e3,
        )
        response_bits = client.response_bits
    fleet = SyntheticFleet(
        FleetSpec(
            n_chips=args.chips,
            seed=args.seed,
            design=args.design,
            noise_pct=args.noise,
        ),
        response_bits,
    )
    from .telemetry.sampler import EventLoopLagProbe

    probe = EventLoopLagProbe().start()
    try:
        report = await run_loadgen(
            client,
            fleet,
            n_requests=n_requests,
            duration_s=args.duration,
            concurrency=args.concurrency,
            years=args.years,
            votes=args.votes,
            key_fraction=args.key_fraction,
            impostor_fraction=args.impostor_fraction,
        )
    finally:
        await probe.stop()
        if close_client is not None:
            await close_client()
    report.max_loop_lag_ms = probe.max_lag_ms if probe.n_ticks else None
    return report


def _loadgen_command(args: argparse.Namespace) -> int:
    """``repro loadgen``: synthetic aging fleet + SLO-gated verdicts."""
    import asyncio
    import json as _json
    import os

    from .service import (
        DEFAULT_SLOS,
        check_slos,
        load_slo_spec,
        loadgen_payload,
        render_slo_verdicts,
    )

    try:
        slos = load_slo_spec(args.slo_spec) if args.slo_spec else DEFAULT_SLOS
    except (OSError, ValueError) as exc:
        print(f"error: bad SLO spec {args.slo_spec}: {exc}", file=sys.stderr)
        return 2
    n_requests = args.requests
    if n_requests is None and args.duration is None:
        n_requests = 2000
    config = exp.ExperimentConfig(n_chips=args.chips, seed=args.seed)
    _start_telemetry(args)
    try:
        report = asyncio.run(_loadgen_async(args, n_requests))
        tracer = telemetry.active()
        if tracer is not None:
            report.red.publish(tracer)
        manifest = _manifest(args, config).to_dict()
        payload = loadgen_payload(report, slos=slos, manifest=manifest)
        print(
            f"loadgen: {report.n_requests} requests in {report.wall_s:.2f}s "
            f"-> {report.auth_per_s:,.0f} req/s "
            f"(concurrency {report.concurrency}, fleet "
            f"{report.spec.n_chips} x {report.spec.design}, "
            f"{report.years:g}y horizon"
            + (
                f", peak loop lag {report.max_loop_lag_ms:.2f} ms)"
                if report.max_loop_lag_ms is not None
                else ")"
            )
        )
        if report.outcomes:
            print(
                "outcomes: "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(report.outcomes.items())
                )
            )
        if args.out:
            out_path = pathlib.Path(args.out)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(
                _json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print(f"loadgen artefact written to {out_path}")
        ledger_path = args.perf_ledger or os.environ.get(PERF_LEDGER_ENV)
        if ledger_path:
            Ledger(ledger_path).append(
                entry_from_bench_payload("loadgen", payload)
            )
            print(f"perf ledger: loadgen entry appended to {ledger_path}")
        if args.slo_gate != "off":
            verdicts = check_slos(report.red.metrics(), slos)
            print(render_slo_verdicts(verdicts))
            worst = worst_status(verdicts)
            print(f"slo worst status: {worst} (gate: {args.slo_gate})")
            if args.slo_gate == "enforce" and worst == "fail":
                return 1
        return 0
    finally:
        _finish_telemetry(args, config)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for key in sorted(EXPERIMENTS):
            print(f"{key.ljust(width)}  {EXPERIMENTS[key].description}")
        return 0

    if args.command == "history":
        return _history_command(args)

    if args.command == "monitor":
        return _monitor_command(args)

    if args.command == "perf":
        return _perf_command(args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "loadgen":
        return _loadgen_command(args)

    kwargs: Dict[str, Any] = {"n_chips": args.chips, "n_ros": args.ros}
    for name in ("seed", "jobs", "store", "block_size", "store_dir"):
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    if getattr(args, "eval_duty", None) is not None:
        kwargs["mission"] = MissionProfile(eval_duty=args.eval_duty)
    config = exp.ExperimentConfig(**kwargs)

    _start_telemetry(args)

    try:
        # one fabrication per population for the whole command
        with config.run_context():
            if args.command == "check-anchors":
                return _check_anchors_command(args, config)

            if args.command == "explain":
                return _explain_command(args, config)

            if args.command == "report":
                from .analysis.report import ANCHOR_TABLE_EXPERIMENTS, generate_report

                selected = args.experiments or list(EXPERIMENTS)
                results, _ = _run_experiments(
                    [*selected, *ANCHOR_TABLE_EXPERIMENTS], config, args
                )
                generate_report(config, results, selected, args.path)
                print(f"report written to {args.path}")
                return 0

            if args.experiment != "all" and args.experiment not in EXPERIMENTS:
                print(
                    f"error: unknown experiment id {args.experiment!r}\n"
                    f"valid ids: {', '.join(sorted(EXPERIMENTS))} (or 'all'); "
                    "see 'python -m repro.cli list'",
                    file=sys.stderr,
                )
                return 2
            selected = (
                sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
            )
            results, cache_summary = _run_experiments(selected, config, args)
            text = "\n\n".join(
                EXPERIMENTS[key].render(result) for key, result in results.items()
            )
            print(text)
            _print_cache_line(cache_summary)
            if args.ledger:
                print(
                    f"ledger: {len(results)} entries appended to "
                    f"{pathlib.Path(args.ledger)}"
                )
            if args.out is not None:
                out_path = pathlib.Path(args.out)
                out_path.parent.mkdir(parents=True, exist_ok=True)
                out_path.write_text(text + "\n")
            return 0
    except ValueError as exc:
        # a damaged or foreign --store-dir is a usage error, like a bad
        # --slo-spec: one line naming the file, not a traceback
        from .store.store import StoreError

        if not isinstance(exc, StoreError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _finish_telemetry(args, config)


if __name__ == "__main__":
    sys.exit(main())
