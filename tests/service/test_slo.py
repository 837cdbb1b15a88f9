"""SLO spec: band validation, judging, rendering, JSON loading."""

import json
import math

import pytest

from repro.service import (
    DEFAULT_SLOS,
    Slo,
    check_slos,
    load_slo_spec,
    render_slo_verdicts,
    slo_verdicts_payload,
)
from repro.telemetry.anchors import worst_status


class TestBands:
    def test_upper_bound_pass_warn_fail(self):
        slo = Slo(name="lat", metric="auth.p99_ms", bound="upper", pass_at=10, fail_at=50)
        assert slo.judge(10.0) == "pass"
        assert slo.judge(30.0) == "warn"
        assert slo.judge(50.0) == "warn"
        assert slo.judge(50.1) == "fail"

    def test_lower_bound_pass_warn_fail(self):
        slo = Slo(
            name="avail", metric="auth.availability", bound="lower",
            pass_at=0.999, fail_at=0.99,
        )
        assert slo.judge(1.0) == "pass"
        assert slo.judge(0.995) == "warn"
        assert slo.judge(0.98) == "fail"

    def test_non_finite_measurement_fails(self):
        slo = Slo(name="lat", metric="m", bound="upper", pass_at=1, fail_at=2)
        assert slo.judge(math.nan) == "fail"
        assert slo.judge(math.inf) == "fail"

    def test_inverted_bands_rejected(self):
        with pytest.raises(ValueError, match="fail_at >= pass_at"):
            Slo(name="x", metric="m", bound="upper", pass_at=50, fail_at=10)
        with pytest.raises(ValueError, match="fail_at <= pass_at"):
            Slo(name="x", metric="m", bound="lower", pass_at=0.9, fail_at=0.99)

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            Slo(name="x", metric="m", bound="sideways", pass_at=1, fail_at=2)


class TestCheckSlos:
    def test_missing_metric_is_missing_status(self):
        verdicts = check_slos({}, DEFAULT_SLOS)
        assert all(v.status == "missing" for v in verdicts)
        assert all(v.measured is None for v in verdicts)

    def test_verdicts_feed_worst_status(self):
        """SloVerdict duck-types .status — the anchor aggregator works."""
        metrics = {
            "auth.availability": 1.0,
            "auth.p99_ms": 30.0,   # warn
            "auth.p999_ms": 40.0,  # pass
        }
        verdicts = check_slos(metrics, DEFAULT_SLOS)
        assert worst_status(verdicts) == "warn"
        metrics["auth.p99_ms"] = 500.0
        assert worst_status(check_slos(metrics, DEFAULT_SLOS)) == "fail"

    def test_payload_shape(self):
        verdicts = check_slos({"auth.availability": 1.0}, DEFAULT_SLOS[:1])
        (entry,) = slo_verdicts_payload(verdicts)
        assert entry == {
            "name": "auth-availability",
            "metric": "auth.availability",
            "bound": "lower",
            "pass_at": 0.999,
            "fail_at": 0.99,
            "unit": "",
            "measured": 1.0,
            "status": "pass",
        }


class TestRender:
    def test_marks_and_alignment(self):
        metrics = {"auth.availability": 0.5, "auth.p99_ms": 1.0}
        text = render_slo_verdicts(check_slos(metrics, DEFAULT_SLOS))
        lines = text.splitlines()
        assert len(lines) == len(DEFAULT_SLOS)
        assert lines[0].startswith("FAIL")
        assert lines[1].startswith("ok")
        assert lines[2].startswith("----")  # p999 missing

    def test_empty_verdicts(self):
        assert render_slo_verdicts([]) == "(no SLOs checked)"


class TestLoadSpec:
    def _write(self, tmp_path, payload):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(payload))
        return path

    def test_roundtrip(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "format": 1,
                "slos": [
                    {
                        "name": "tight-p99",
                        "metric": "auth.p99_ms",
                        "bound": "upper",
                        "pass_at": 2.0,
                        "fail_at": 5.0,
                        "unit": "ms",
                    }
                ],
            },
        )
        (slo,) = load_slo_spec(path)
        assert slo.name == "tight-p99"
        assert slo.judge(1.0) == "pass"
        assert slo.judge(9.0) == "fail"

    def test_bad_format_rejected(self, tmp_path):
        path = self._write(tmp_path, {"format": 99, "slos": [{}]})
        with pytest.raises(ValueError, match="format"):
            load_slo_spec(path)

    def test_unknown_keys_rejected(self, tmp_path):
        """A typo'd band name must not silently disable an objective."""
        path = self._write(
            tmp_path,
            {
                "format": 1,
                "slos": [
                    {
                        "name": "x",
                        "metric": "m",
                        "bound": "upper",
                        "pass_at": 1,
                        "fail_at": 2,
                        "fial_at": 3,
                    }
                ],
            },
        )
        with pytest.raises(ValueError, match="unknown keys"):
            load_slo_spec(path)

    def test_missing_key_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            {"format": 1, "slos": [{"name": "x", "metric": "m", "bound": "upper"}]},
        )
        with pytest.raises(ValueError, match="missing required key"):
            load_slo_spec(path)

    def test_empty_list_rejected(self, tmp_path):
        path = self._write(tmp_path, {"format": 1, "slos": []})
        with pytest.raises(ValueError, match="non-empty"):
            load_slo_spec(path)

    BANDS = {
        "nan": "NaN",
        "inf": "Infinity",
        "overflow": "1e999",
        "huge-int": "1" + "0" * 400,
        "true": "true",
        "list": "[1]",
        "string": '"x"',
        "null": "null",
    }

    def _spec_text(self, pass_at):
        return (
            '{"format": 1, "slos": [{"name": "ok", "metric": "m", '
            '"bound": "upper", "pass_at": 1, "fail_at": 2}, {"name": "bad", '
            '"metric": "m", "bound": "upper", "pass_at": ' + pass_at + ', '
            '"fail_at": 5}]}'
        )

    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_non_finite_or_non_number_band_rejected(self, tmp_path, band):
        path = tmp_path / "slo.json"
        path.write_text(self._spec_text(self.BANDS[band]))
        with pytest.raises(ValueError) as info:
            load_slo_spec(path)
        message = str(info.value)
        assert str(path) in message
        assert "slos[1]" in message and "pass_at" in message

    def test_bad_bound_names_the_file_and_entry(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "format": 1,
                "slos": [
                    {"name": "x", "metric": "m", "bound": "up",
                     "pass_at": 1, "fail_at": 2}
                ],
            },
        )
        with pytest.raises(ValueError, match=r"slo\.json: slos\[0\]: slo 'x'"):
            load_slo_spec(path)

    @pytest.mark.parametrize(
        "text", ["[" * 20000, '{"format": 1, "slos": [', "[]"],
        ids=["deep", "truncated", "not-an-object"],
    )
    def test_malformed_json_names_the_file(self, tmp_path, text):
        path = tmp_path / "slo.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_slo_spec(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("band", ["[1]", "NaN", "true"])
    def test_loadgen_exits_2_on_a_bad_band(self, tmp_path, capsys, band):
        from repro.cli import main

        path = tmp_path / "slo.json"
        path.write_text(self._spec_text(band))
        assert main(["loadgen", "--slo-spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad SLO spec" in err and "slos[1]" in err
