"""The single-file HTML perf report."""

from repro.telemetry import (
    LedgerEntry,
    Span,
    history_rows,
    host_fingerprint,
    package_version,
    platform_triple,
    render_perf_report,
    write_perf_report,
)
from repro.telemetry.changepoint import DEFAULT_WINDOW, MIN_HISTORY

STABLE = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1]


def rows_for(values, name="b:wall_s"):
    """The perf trend rows of one ``bench:metric`` series."""
    bench, metric = name.split(":")
    return history_rows([LedgerEntry.perf(bench, {metric: v}) for v in values])


def make_lane():
    inner = Span("kernel")
    inner.start_ns, inner.end_ns = 2_000_000, 8_000_000
    root = Span("sweep")
    root.start_ns, root.end_ns = 0, 10_000_000
    root.children.append(inner)
    inner.parent = root
    return {"coordinator": [root]}


class TestRenderPerfReport:
    def test_self_contained_html_with_provenance(self):
        html_text = render_perf_report(rows_for(STABLE))
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<script" not in html_text  # no JS, survives mail/CI
        assert package_version() in html_text
        assert platform_triple() in html_text
        assert host_fingerprint() in html_text

    def test_regression_marked_with_verdict_class(self):
        # wall_s rising 20% -> regress for a lower-is-better metric
        html_text = render_perf_report(rows_for(STABLE + [120.0]))
        assert '<td class="regress">regress</td>' in html_text
        assert "svg" in html_text  # sparkline rendered

    def test_quiet_series_is_stable(self):
        html_text = render_perf_report(rows_for(STABLE + [100.2]))
        assert ">stable<" in html_text
        # CSS may mention the class; the verdict table must not
        assert '<td class="regress">' not in html_text

    def test_empty_series(self):
        assert "(empty perf ledger)" in render_perf_report([])

    def test_metric_names_escaped(self):
        html_text = render_perf_report(rows_for(STABLE, "b<script>:wall_s"))
        assert "b<script>:wall_s" not in html_text
        assert "b&lt;script&gt;:wall_s" in html_text

    def test_attribution_sections_from_lanes(self):
        html_text = render_perf_report([], lanes=make_lane())
        assert "Self-time attribution" in html_text
        assert "Critical path" in html_text
        assert "kernel" in html_text and "sweep" in html_text

    def test_footer_documents_detector(self):
        html_text = render_perf_report([])
        assert "median+MAD" in html_text
        assert f"window {DEFAULT_WINDOW}," in html_text
        assert f"warm-up {MIN_HISTORY} runs" in html_text


class TestWritePerfReport:
    def test_writes_file_creating_parents(self, tmp_path):
        path = write_perf_report(
            tmp_path / "deep" / "report.html", rows_for(STABLE)
        )
        assert path.exists()
        assert "<!DOCTYPE html>" in path.read_text()
