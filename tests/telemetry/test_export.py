"""Trace export: span-tree rendering and the --metrics-out payload."""

import json

import pytest

from repro import telemetry
from repro.telemetry import Tracer
from repro.telemetry.export import (
    METRICS_FORMAT,
    render_counters,
    render_span_tree,
    trace_to_dict,
    write_metrics,
)
from repro.telemetry.manifest import RunManifest, validate_manifest


@pytest.fixture
def traced():
    tr = Tracer()
    with tr.span("experiment.e2"):
        with tr.span("fabricate", n_chips=4):
            pass
        with tr.span("sweep"):
            pass
    tr.count("batch.corner_memo_hits", 3)
    return tr


class TestRenderTree:
    def test_contains_every_span_name(self, traced):
        text = render_span_tree(traced)
        for name in ("experiment.e2", "fabricate", "sweep"):
            assert name in text

    def test_children_indented_under_parent(self, traced):
        lines = render_span_tree(traced).splitlines()
        root_line = next(l for l in lines if "experiment.e2" in l)
        child_line = next(l for l in lines if "fabricate" in l)
        assert child_line.index("fabricate") > root_line.index("experiment.e2")

    def test_attrs_rendered(self, traced):
        assert "n_chips=4" in render_span_tree(traced)

    def test_child_share_of_parent_rendered(self, traced):
        assert "%" in render_span_tree(traced)

    def test_empty_tracer(self):
        assert "no spans" in render_span_tree(Tracer())

    def test_counters_rendered(self, traced):
        text = render_counters(traced)
        assert "batch.corner_memo_hits" in text
        assert "no counters" in render_counters(Tracer())


class TestTraceToDict:
    def test_payload_sections(self, traced):
        payload = trace_to_dict(traced)
        assert payload["format"] == METRICS_FORMAT
        assert payload["counters"] == {"batch.corner_memo_hits": 3.0}
        assert "gauges" not in payload
        assert [s["name"] for s in payload["spans"]] == ["experiment.e2"]

    def test_manifest_embedded_when_given(self, traced):
        manifest = RunManifest.collect(seed=7)
        payload = trace_to_dict(traced, manifest)
        assert payload["manifest"]["seed"] == 7
        validate_manifest(payload["manifest"])

    def test_payload_is_json_ready(self, traced):
        json.dumps(trace_to_dict(traced, RunManifest.collect()))


class TestWriteMetrics:
    def test_writes_valid_json(self, traced, tmp_path):
        out = tmp_path / "sub" / "metrics.json"
        written = write_metrics(out, traced, RunManifest.collect(seed=1))
        assert written == out
        payload = json.loads(out.read_text())
        assert payload["format"] == METRICS_FORMAT
        validate_manifest(payload["manifest"])

    def test_manifest_optional(self, traced, tmp_path):
        payload = json.loads(
            write_metrics(tmp_path / "m.json", traced).read_text()
        )
        assert "manifest" not in payload


class TestHistogramSections:
    def test_format_is_four(self):
        assert METRICS_FORMAT == 4

    def test_histograms_always_present_and_sorted(self, traced):
        payload = trace_to_dict(traced)
        assert payload["histograms"] == {}
        traced.observe("z.metric", 1.0)
        traced.observe("a.metric", 2.0)
        payload = trace_to_dict(traced)
        assert list(payload["histograms"]) == ["a.metric", "z.metric"]
        assert payload["histograms"]["a.metric"]["count"] == 1

    def test_resource_samples_when_sampler_given(self, traced, tmp_path):
        from repro.telemetry.sampler import ResourceSampler

        sampler = ResourceSampler()
        sampler.sample_once()
        payload = json.loads(
            write_metrics(tmp_path / "m.json", traced, None, sampler).read_text()
        )
        assert len(payload["resource_samples"]) == 1
        assert "rss_bytes" in payload["resource_samples"][0]
        payload = trace_to_dict(traced)
        assert "resource_samples" not in payload

    def test_render_histograms_table(self, traced):
        from repro.telemetry.export import render_histograms

        assert "no histograms" in render_histograms(traced)
        traced.observe("batch.block_s", 0.002)
        traced.observe("batch.block_s", 0.004)
        text = render_histograms(traced)
        assert "batch.block_s" in text
        assert "p99" in text.splitlines()[0]
