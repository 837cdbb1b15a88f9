#!/usr/bin/env python
"""Validate observability artefacts: CI's telemetry smoke check.

Usage::

    python -m repro.cli run e2 --chips 4 --ros 16 --metrics-out /tmp/m.json
    python tools/validate_metrics.py /tmp/m.json
    python tools/validate_metrics.py --ledger runs/ledger.jsonl
    python tools/validate_metrics.py --explain explain.json
    python tools/validate_metrics.py --trace run.trace.json
    python tools/validate_metrics.py --service loadgen.json

Default mode checks a ``--metrics-out`` payload: valid JSON, the
expected top-level sections (``format``, ``version``, ``spans``,
``counters``, ``histograms``), well-formed span subtrees (name +
non-negative duration), well-formed histogram states (matching growth
factor, integer bucket counts summing to ``count``), and a manifest
satisfying :data:`repro.telemetry.manifest.MANIFEST_SCHEMA`.  The format
is ``METRICS_FORMAT`` (4); a format-3 payload, which differs only by
an always-empty ``gauges`` section, still validates.

``--trace`` checks a ``--trace-out`` Chrome ``trace_event`` artefact:
a non-empty ``traceEvents`` list whose events carry name/phase/pid/tid,
with non-negative durations on complete (``X``) events — the shape
Perfetto's importer requires.

``--ledger`` checks a ledger JSONL file (run and perf lines, format 1
or 2): every recorded scalar must be finite (the ledger silently drops
NaN/inf at write time, so a *missing* required field is how a poisoned
scalar manifests) and every ``e13`` run entry must carry the full
margin-forensics field set per design.

``--explain`` checks a ``repro explain --json`` payload against the
schema CI's explain smoke job relies on.

``--service`` checks a ``repro loadgen --out`` artefact's ``service``
section: per-endpoint RED blocks (request counts, availability in
[0, 1], error taxonomy), full duration-histogram states under
``durations_ms``, a finite flat metrics map, SLO verdicts with a legal
status and band, and well-formed request-log samples (finite
non-negative ``duration_ms``, integer-or-null ``trace_id``).

Exit status 0 on success, 1 on any violation — wired into CI so a
regression in the observability pipeline fails the build, not a user's
measurement campaign.

Needs the package importable (run with ``PYTHONPATH=src`` from the repo
root, or after ``pip install -e .``).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys


def _check_span(span, problems, path="spans"):
    if not isinstance(span, dict):
        problems.append(f"{path}: span is not an object")
        return
    name = span.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{path}: span has no name")
        name = "?"
    duration = span.get("duration_ns")
    if not isinstance(duration, int) or duration < 0:
        problems.append(f"{path}/{name}: missing or negative duration_ns")
    for i, child in enumerate(span.get("children", [])):
        _check_span(child, problems, f"{path}/{name}[{i}]")


def validate_payload(payload) -> list:
    """All problems found in one ``--metrics-out`` payload (empty = ok)."""
    from repro.telemetry.export import METRICS_FORMAT
    from repro.telemetry.manifest import validate_manifest

    problems = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("format") not in (3, METRICS_FORMAT):
        problems.append(
            f"format is {payload.get('format')!r}, expected {METRICS_FORMAT}"
        )
    version = payload.get("version")
    if not isinstance(version, str) or not version:
        problems.append("missing or non-string top-level 'version' (format 2)")
    for section in ("spans", "counters", "histograms"):
        if section not in payload:
            problems.append(f"missing section {section!r}")
    for i, span in enumerate(payload.get("spans", [])):
        _check_span(span, problems, f"spans[{i}]")
    for key, value in (payload.get("counters") or {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"counters[{key!r}] is not numeric")
    for name, hist in (payload.get("histograms") or {}).items():
        problems.extend(_check_histogram(name, hist))
    if "manifest" not in payload:
        problems.append("missing section 'manifest'")
    else:
        try:
            validate_manifest(payload["manifest"])
        except ValueError as exc:
            problems.append(str(exc))
        else:
            problems.extend(_check_execution_fields(payload["manifest"]))
    return problems


def _check_histogram(name, hist) -> list:
    """Shape checks for one serialised Histogram state.

    A metrics payload's histograms are full mergeable bucket states, so
    the invariants are structural: the growth factor must match this
    build's bucket layout (mergeability), counts must be non-negative
    integers, and the zero bucket plus the log buckets must account for
    every observation.
    """
    from repro.telemetry.histogram import GROWTH

    where = f"histograms[{name!r}]"
    if not isinstance(hist, dict):
        return [f"{where}: not an object"]
    problems = []
    growth = hist.get("growth")
    if not _finite_number(growth) or abs(growth - GROWTH) > 1e-9:
        problems.append(
            f"{where}: growth {growth!r} does not match the bucket "
            f"layout {GROWTH}"
        )
    count = hist.get("count")
    zero = hist.get("zero")
    buckets = hist.get("buckets")
    for field, value in (("count", count), ("zero", zero)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{where}: {field} must be a non-negative integer")
    if not isinstance(buckets, dict):
        problems.append(f"{where}: missing 'buckets' object")
        return problems
    total = 0
    for idx, n in buckets.items():
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            problems.append(
                f"{where}: bucket[{idx!r}] must be a positive integer"
            )
            return problems
        total += n
    if isinstance(count, int) and isinstance(zero, int) and zero + total != count:
        problems.append(
            f"{where}: zero ({zero}) + bucket total ({total}) != count ({count})"
        )
    return problems


def validate_trace_events(payload) -> list:
    """All problems in a ``--trace-out`` Chrome-trace artefact (empty = ok)."""
    problems = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["missing or empty 'traceEvents' list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "ph"):
            if not isinstance(event.get(field), str) or not event[field]:
                problems.append(f"{where}: missing string field {field!r}")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer field {field!r}")
        if event.get("ph") in ("X", "C") and not _finite_number(
            event.get("ts")
        ):
            problems.append(f"{where}: missing numeric 'ts'")
        if event.get("ph") == "X":
            dur = event.get("dur")
            if not _finite_number(dur) or dur < 0:
                problems.append(f"{where}: 'X' event needs non-negative 'dur'")
    return problems


def _trace_lanes(payload) -> int:
    """Distinct (pid, tid) lanes carrying real (non-metadata) events."""
    lanes = set()
    for event in payload.get("traceEvents", []):
        if isinstance(event, dict) and event.get("ph") != "M":
            lanes.add((event.get("pid"), event.get("tid")))
    return len(lanes)


def _check_execution_fields(manifest) -> list:
    """Shape checks for the optional execution manifest fields.

    ``validate_manifest`` only type-checks ``jobs`` / ``cache`` /
    ``store`` / ``block_size`` / ``peak_rss_bytes``; this enforces the
    semantics the engines promise: a recorded worker count is positive, a
    cache summary names its directory and lists hit/miss experiment ids,
    a store mode is one the config accepts, and recorded block sizes /
    RSS high-water marks are positive finite numbers.
    """
    problems = []
    jobs = manifest.get("jobs")
    if jobs is not None and jobs < 1:
        problems.append(f"manifest 'jobs' must be >= 1 when set, got {jobs}")
    store = manifest.get("store")
    if store is not None and store not in ("ram", "mmap"):
        problems.append(
            f"manifest 'store' must be 'ram' or 'mmap' when set, got {store!r}"
        )
    block_size = manifest.get("block_size")
    if block_size is not None and block_size < 1:
        problems.append(
            f"manifest 'block_size' must be >= 1 when set, got {block_size}"
        )
    peak = manifest.get("peak_rss_bytes")
    if peak is not None and (not _finite_number(peak) or peak < 0):
        problems.append(
            f"manifest 'peak_rss_bytes' must be a non-negative finite "
            f"number when set, got {peak!r}"
        )
    cache = manifest.get("cache")
    if cache is not None:
        if not isinstance(cache.get("dir"), str) or not cache["dir"]:
            problems.append("manifest cache summary has no 'dir' string")
        for field in ("hits", "misses"):
            ids = cache.get(field)
            if not isinstance(ids, list) or not all(
                isinstance(x, str) for x in ids
            ):
                problems.append(
                    f"manifest cache summary field {field!r} must be a "
                    "list of experiment id strings"
                )
    return problems


#: scalar fields every design block of an e13 ledger entry must carry.
#: Because the ledger drops non-finite values on write, "present" is the
#: proof that the experiment produced a real number for each of these.
E13_REQUIRED_FIELDS = (
    "margin_p5_pct",
    "margin_p50_pct",
    "drift_rms_pct",
    "at_risk_pct",
    "flipped_pct",
    "forecast_recall",
    "forecast_precision",
)

#: fields whose values are probabilities/rates bounded to [0, 1]
_UNIT_INTERVAL_FIELDS = ("forecast_recall", "forecast_precision")


def _finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _ledger_kind_name_scalars(entry):
    """``(kind, name, scalars)`` of a format-1 or format-2 ledger line.

    Format 2 carries ``kind``/``name``/``scalars``.  Format 1 had two
    layouts: run lines (``experiment``/``scalars``) and perf lines
    (``bench``/``values``/``quantiles``, merged here as one scalar map).
    """
    if "kind" in entry:
        return entry.get("kind"), entry.get("name"), entry.get("scalars")
    if "bench" in entry:
        values, quantiles = entry.get("values"), entry.get("quantiles") or {}
        if not isinstance(values, dict) or not isinstance(quantiles, dict):
            return "perf", entry.get("bench"), None
        return "perf", entry.get("bench"), {**values, **quantiles}
    return "run", entry.get("experiment"), entry.get("scalars")


def validate_ledger_entries(entries) -> list:
    """All problems in a ledger's parsed JSONL entries (empty = ok).

    Run and perf lines, in format 1 or 2, are all checked: every scalar
    of every entry must be a finite number; ``e13`` run entries must
    additionally carry the complete margin-forensics field set for each
    design they mention (a missing field means the experiment produced
    NaN/inf and the ledger writer discarded it).
    """
    problems = []
    for i, entry in enumerate(entries):
        where = f"entry[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not a JSON object")
            continue
        kind, experiment, scalars = _ledger_kind_name_scalars(entry)
        if isinstance(experiment, str) and experiment:
            where = f"entry[{i}] ({experiment})"
        if not isinstance(scalars, dict):
            problems.append(f"{where}: missing 'scalars' object")
            continue
        for key, value in scalars.items():
            if not _finite_number(value):
                problems.append(f"{where}: scalar {key!r} is not finite: {value!r}")
        if kind != "run" or experiment != "e13":
            continue
        designs = sorted({k.split(".")[0] for k in scalars if "." in k})
        if not designs:
            problems.append(f"{where}: e13 entry carries no per-design scalars")
        for design in designs:
            for field in E13_REQUIRED_FIELDS:
                key = f"{design}.{field}"
                if key not in scalars:
                    problems.append(
                        f"{where}: missing {key!r} (forensics produced a "
                        "non-finite value, or the field set changed)"
                    )
            for field in _UNIT_INTERVAL_FIELDS:
                value = scalars.get(f"{design}.{field}")
                if value is not None and not 0.0 <= value <= 1.0:
                    problems.append(
                        f"{where}: {design}.{field} = {value!r} outside [0, 1]"
                    )
    return problems


#: legal SLO verdict statuses (see repro.service.slo.SloVerdict)
_SLO_STATUSES = ("pass", "warn", "fail", "missing")


def validate_service_payload(payload) -> list:
    """All problems in a ``repro loadgen --out`` artefact (empty = ok).

    Checks the ``service`` section a load-generation run appends to the
    benchmark-shaped payload: the RED per-endpoint blocks, the full
    duration-histogram states (reusing the metrics-payload histogram
    checks — the states must stay mergeable), the flat SLO-gateable
    metrics map, the verdict list, and the request-log tail CI's smoke
    job asserts trace ids against.
    """
    from repro.service.loadgen import SERVICE_SECTION_FORMAT
    from repro.telemetry.red import RED_FORMAT

    problems = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    service = payload.get("service")
    if not isinstance(service, dict):
        return ["missing 'service' section (not a loadgen artefact?)"]
    if service.get("format") != SERVICE_SECTION_FORMAT:
        problems.append(
            f"service.format is {service.get('format')!r}, "
            f"expected {SERVICE_SECTION_FORMAT}"
        )

    # ---- RED state ---------------------------------------------------
    red = service.get("red")
    if not isinstance(red, dict):
        problems.append("missing 'service.red' section")
        red = {}
    elif red.get("format") != RED_FORMAT:
        problems.append(
            f"service.red.format is {red.get('format')!r}, expected {RED_FORMAT}"
        )
    endpoints = red.get("endpoints")
    if not isinstance(endpoints, dict) or not endpoints:
        problems.append("service.red.endpoints is missing or empty")
        endpoints = {}
    for endpoint, block in endpoints.items():
        where = f"service.red.endpoints[{endpoint!r}]"
        if not isinstance(block, dict):
            problems.append(f"{where}: not an object")
            continue
        requests = block.get("requests")
        if not isinstance(requests, int) or isinstance(requests, bool) or requests < 1:
            problems.append(f"{where}: 'requests' must be a positive integer")
        availability = block.get("availability")
        if not _finite_number(availability) or not 0.0 <= availability <= 1.0:
            problems.append(f"{where}: 'availability' outside [0, 1]")
        rate = block.get("rate_per_s")
        if not _finite_number(rate) or rate < 0.0:
            problems.append(f"{where}: 'rate_per_s' must be finite and >= 0")
        errors = block.get("errors")
        if not isinstance(errors, dict):
            problems.append(f"{where}: missing 'errors' taxonomy object")
            errors = {}
        for cls, n in errors.items():
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                problems.append(
                    f"{where}: errors[{cls!r}] must be a positive integer"
                )
        outcomes = block.get("outcomes")
        if not isinstance(outcomes, dict) or not outcomes:
            problems.append(f"{where}: missing or empty 'outcomes' object")
        elif any(
            not isinstance(n, int) or isinstance(n, bool) or n < 1
            for n in outcomes.values()
        ):
            problems.append(
                f"{where}: outcome counts must be positive integers"
            )
        elif isinstance(requests, int) and sum(outcomes.values()) != requests:
            problems.append(
                f"{where}: outcome counts sum to {sum(outcomes.values())}, "
                f"but 'requests' is {requests}"
            )
    durations = red.get("durations_ms")
    if not isinstance(durations, dict):
        problems.append("service.red.durations_ms is missing")
    else:
        for site, hist in durations.items():
            problems.extend(_check_histogram(f"service:{site}", hist))

    # ---- flat metrics + SLO verdicts ----------------------------------
    metrics = service.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("service.metrics is missing or empty")
        metrics = {}
    for key, value in metrics.items():
        if not _finite_number(value):
            problems.append(f"service.metrics[{key!r}] is not finite: {value!r}")
    verdicts = service.get("slo")
    if not isinstance(verdicts, list) or not verdicts:
        problems.append("service.slo verdict list is missing or empty")
        verdicts = []
    for i, verdict in enumerate(verdicts):
        where = f"service.slo[{i}]"
        if not isinstance(verdict, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "metric"):
            if not isinstance(verdict.get(field), str) or not verdict[field]:
                problems.append(f"{where}: missing string field {field!r}")
        if verdict.get("status") not in _SLO_STATUSES:
            problems.append(
                f"{where}: status {verdict.get('status')!r} is not one of "
                f"{list(_SLO_STATUSES)}"
            )
        if verdict.get("bound") not in ("upper", "lower"):
            problems.append(
                f"{where}: bound {verdict.get('bound')!r} is not "
                "'upper' or 'lower'"
            )
        for field in ("pass_at", "fail_at"):
            if not _finite_number(verdict.get(field)):
                problems.append(f"{where}: {field} is not finite")
        measured = verdict.get("measured")
        if measured is not None and not _finite_number(measured):
            problems.append(f"{where}: measured is neither null nor finite")
        if verdict.get("status") == "missing" and measured is not None:
            problems.append(f"{where}: status 'missing' but measured is set")

    # ---- request-log tail ---------------------------------------------
    samples = service.get("requests")
    if not isinstance(samples, list):
        problems.append("service.requests sample list is missing")
        samples = []
    for i, sample in enumerate(samples):
        where = f"service.requests[{i}]"
        if not isinstance(sample, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("endpoint", "outcome"):
            if not isinstance(sample.get(field), str) or not sample[field]:
                problems.append(f"{where}: missing string field {field!r}")
        duration = sample.get("duration_ms")
        if not _finite_number(duration) or duration < 0:
            problems.append(
                f"{where}: 'duration_ms' must be finite and non-negative"
            )
        trace_id = sample.get("trace_id")
        if trace_id is not None and (
            not isinstance(trace_id, int) or isinstance(trace_id, bool)
        ):
            problems.append(f"{where}: 'trace_id' must be an integer or null")
    return problems


def validate_explain_payload(payload) -> list:
    """All problems in a ``repro explain --json`` payload (empty = ok)."""
    from repro.forensics.export import EXPLAIN_FORMAT

    problems = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("format") != EXPLAIN_FORMAT:
        problems.append(
            f"format is {payload.get('format')!r}, expected {EXPLAIN_FORMAT}"
        )
    if payload.get("kind") != "explain":
        problems.append(f"kind is {payload.get('kind')!r}, expected 'explain'")
    if not isinstance(payload.get("config"), dict):
        problems.append("missing 'config' object")
    designs = payload.get("designs")
    if not isinstance(designs, dict) or not designs:
        problems.append("missing or empty 'designs' object")
        return problems
    for name, block in designs.items():
        where = f"designs[{name!r}]"
        if not isinstance(block, dict):
            problems.append(f"{where}: not an object")
            continue
        for section in ("margin_summary", "forecast", "histogram", "chip"):
            if not isinstance(block.get(section), dict):
                problems.append(f"{where}: missing section {section!r}")
        forecast = block.get("forecast") or {}
        for field in ("k", "drift_scale", "threshold", "precision", "recall"):
            if not _finite_number(forecast.get(field)):
                problems.append(f"{where}: forecast.{field} is not finite")
        for field in ("precision", "recall"):
            value = forecast.get(field)
            if _finite_number(value) and not 0.0 <= value <= 1.0:
                problems.append(f"{where}: forecast.{field} outside [0, 1]")
        hist = block.get("histogram") or {}
        edges = hist.get("edges")
        counts = hist.get("counts")
        if not isinstance(edges, list) or len(edges) < 3:
            problems.append(f"{where}: histogram.edges must list >= 3 edges")
        elif not isinstance(counts, dict) or not counts:
            problems.append(f"{where}: histogram.counts is missing or empty")
        else:
            for year, row in counts.items():
                if not isinstance(row, list) or len(row) != len(edges) - 1:
                    problems.append(
                        f"{where}: histogram.counts[{year!r}] must have "
                        f"{len(edges) - 1} bins"
                    )
                elif any(not isinstance(c, int) or c < 0 for c in row):
                    problems.append(
                        f"{where}: histogram.counts[{year!r}] has "
                        "non-integer or negative counts"
                    )
        chip = block.get("chip") or {}
        bits = chip.get("bits")
        if not isinstance(bits, list) or not bits:
            problems.append(f"{where}: chip.bits is missing or empty")
        else:
            required = (
                "bit",
                "ro_a",
                "ro_b",
                "fresh_margin",
                "horizon_margin",
                "bti_shift",
                "hci_shift",
                "status",
            )
            for j, row in enumerate(bits):
                missing = [f for f in required if f not in row]
                if missing:
                    problems.append(
                        f"{where}: chip.bits[{j}] missing fields {missing}"
                    )
                    break
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate repro observability artefacts"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--ledger",
        action="store_true",
        help="treat PATH as a ledger JSONL file (run and perf entries)",
    )
    mode.add_argument(
        "--explain",
        action="store_true",
        help="treat PATH as a 'repro explain --json' payload",
    )
    mode.add_argument(
        "--trace",
        action="store_true",
        help="treat PATH as a '--trace-out' Chrome trace_event artefact",
    )
    mode.add_argument(
        "--service",
        action="store_true",
        help="treat PATH as a 'repro loadgen --out' service artefact",
    )
    parser.add_argument("path", type=pathlib.Path, help="artefact to validate")
    args = parser.parse_args(argv)

    try:
        text = args.path.read_text()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1

    try:
        if args.ledger:
            entries = [
                json.loads(line) for line in text.splitlines() if line.strip()
            ]
        else:
            payload = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 1

    if args.ledger:
        problems = validate_ledger_entries(entries)
        summary = f"{len(entries)} ledger entr(ies), all scalars finite"
    elif args.explain:
        problems = validate_explain_payload(payload)
        summary = (
            f"explain payload, {len(payload.get('designs') or {})} design(s)"
        )
    elif args.trace:
        problems = validate_trace_events(payload)
        if not problems:
            summary = (
                f"{len(payload['traceEvents'])} trace event(s) across "
                f"{_trace_lanes(payload)} lane(s)"
            )
        else:
            summary = ""
    elif args.service:
        problems = validate_service_payload(payload)
        if not problems:
            service = payload["service"]
            endpoints = service["red"]["endpoints"]
            total = sum(block["requests"] for block in endpoints.values())
            statuses = [v["status"] for v in service["slo"]]
            worst = next(
                (s for s in ("fail", "missing", "warn") if s in statuses),
                "pass",
            )
            summary = (
                f"{len(endpoints)} endpoint(s), {total} request(s), "
                f"slo worst status {worst}, "
                f"{len(service['requests'])} request-log sample(s)"
            )
        else:
            summary = ""
    else:
        problems = validate_payload(payload)
        summary = ""
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    if summary:
        print(f"ok: {args.path} — {summary}")
        return 0
    counters = payload.get("counters") or {}
    manifest = payload["manifest"]
    execution = f"jobs={manifest.get('jobs')}"
    if manifest.get("store") is not None:
        execution += f", store={manifest['store']}"
        if manifest.get("block_size") is not None:
            execution += f", block_size={manifest['block_size']}"
        if manifest.get("peak_rss_bytes") is not None:
            execution += (
                f", peak_rss={manifest['peak_rss_bytes'] / 2**20:.0f}MiB"
            )
    cache = manifest.get("cache")
    if cache is not None:
        execution += (
            f", cache {len(cache.get('hits', []))} hit(s) / "
            f"{len(cache.get('misses', []))} miss(es)"
        )
    print(
        f"ok: {args.path} — {len(payload.get('spans', []))} root span(s), "
        f"{len(counters)} counter(s), "
        f"{len(payload.get('histograms') or {})} histogram(s), "
        f"manifest valid (git {str(manifest.get('git_sha'))[:8]}, {execution})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
