"""CSV export of experiment results (for external plotting tools).

``repro run`` prints human-readable tables; this module writes
machine-readable CSVs with one row per data point, so the paper's figures
can be replotted with any toolchain.  Every exporter returns the list of
files it wrote.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Dict, List, Sequence, Union

from .experiments import (
    AreaResult,
    BitflipResult,
    DutyAblationResult,
    EnvironmentalResult,
    FrequencyDegradationResult,
    LayoutAblationResult,
    MaskingAblationResult,
    StageAblationResult,
    UniquenessResult,
)
from .sweep import Series

PathLike = Union[str, pathlib.Path]


def _write_csv(path: pathlib.Path, headers: Sequence[str], rows) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
    return path


def export_series(
    series_by_name: Dict[str, Series],
    path: PathLike,
    x_label: str = "x",
) -> pathlib.Path:
    """Write aligned series as one CSV (shared x column)."""
    items = list(series_by_name.items())
    if not items:
        raise ValueError("nothing to export")
    xs = items[0][1].x
    for name, series in items[1:]:
        if series.x != xs:
            raise ValueError(f"series {name!r} has a different x axis")
    headers = [x_label] + [name for name, _ in items]
    rows = [
        [x] + [series.y[i] for _, series in items]
        for i, x in enumerate(xs)
    ]
    return _write_csv(pathlib.Path(path), headers, rows)


def export_e1(res: FrequencyDegradationResult, directory: PathLike) -> List[pathlib.Path]:
    return [
        export_series(
            res.series, pathlib.Path(directory) / "e1_freq_degradation.csv", "years"
        )
    ]


def export_e2(res: BitflipResult, directory: PathLike) -> List[pathlib.Path]:
    return [
        export_series(
            res.series, pathlib.Path(directory) / "e2_bitflips.csv", "years"
        )
    ]


def export_e3(res: UniquenessResult, directory: PathLike) -> List[pathlib.Path]:
    directory = pathlib.Path(directory)
    files = []
    stats_rows = [
        [name, rep.mean, rep.std, rep.minimum, rep.maximum, rep.n_pairs]
        for name, rep in res.reports.items()
    ]
    files.append(
        _write_csv(
            directory / "e3_uniqueness_stats.csv",
            ["design", "mean_hd", "std", "min", "max", "n_pairs"],
            stats_rows,
        )
    )
    hist_rows = []
    for name, (centers, counts) in res.histograms.items():
        for c, n in zip(centers, counts):
            hist_rows.append([name, float(c), int(n)])
    files.append(
        _write_csv(
            directory / "e3_uniqueness_histogram.csv",
            ["design", "hd_bin_center", "pair_count"],
            hist_rows,
        )
    )
    return files


def export_e5(res: EnvironmentalResult, directory: PathLike) -> List[pathlib.Path]:
    directory = pathlib.Path(directory)
    return [
        export_series(
            res.temperature_series, directory / "e5_temperature.csv", "temp_c"
        ),
        export_series(res.voltage_series, directory / "e5_voltage.csv", "vdd_rel"),
    ]


def export_e6(res: AreaResult, directory: PathLike) -> List[pathlib.Path]:
    rows = []
    for row in res.rows:
        for name, point in (("ro-puf", row.conv), ("aro-puf", row.aro)):
            if point is None:
                rows.append([row.policy, name, "", "", "", "", ""])
                continue
            rows.append(
                [
                    row.policy,
                    name,
                    str(point.codec),
                    point.raw_bits,
                    point.n_ros,
                    point.puf_area,
                    point.ecc_area,
                ]
            )
    return [
        _write_csv(
            pathlib.Path(directory) / "e6_ecc_area.csv",
            [
                "policy",
                "design",
                "codec",
                "raw_bits",
                "n_ros",
                "puf_area_um2",
                "ecc_area_um2",
            ],
            rows,
        )
    ]


def export_e7(res: DutyAblationResult, directory: PathLike) -> List[pathlib.Path]:
    directory = pathlib.Path(directory)
    files = [
        export_series(
            {"aro-puf": res.duty_series}, directory / "e7_duty_sweep.csv", "eval_duty"
        )
    ]
    files.append(
        _write_csv(
            directory / "e7_policies.csv",
            ["policy", "flips_percent"],
            res.policy_rows,
        )
    )
    return files


def export_e8(res: LayoutAblationResult, directory: PathLike) -> List[pathlib.Path]:
    directory = pathlib.Path(directory)
    files = [
        export_series(
            res.systematic_series,
            directory / "e8_systematic_sweep.csv",
            "sigma_multiplier",
        )
    ]
    files.append(
        _write_csv(
            directory / "e8_pairing.csv",
            ["configuration", "hd_percent"],
            res.pairing_rows,
        )
    )
    return files


def export_e9(res: MaskingAblationResult, directory: PathLike) -> List[pathlib.Path]:
    rows = [
        [
            row.label,
            row.ros_per_bit,
            row.n_bits,
            row.mean_margin_percent,
            row.noise_flips_percent,
            row.aging_flips_percent,
        ]
        for row in res.rows
    ]
    return [
        _write_csv(
            pathlib.Path(directory) / "e9_masking.csv",
            [
                "configuration",
                "ros_per_bit",
                "n_bits",
                "margin_percent",
                "noise_flips_percent",
                "aging_flips_percent",
            ],
            rows,
        )
    ]


def export_e12(res: StageAblationResult, directory: PathLike) -> List[pathlib.Path]:
    rows = [
        [
            row.design,
            row.n_stages,
            row.frequency_ghz,
            row.uniqueness_percent,
            row.flips_percent,
            row.cell_area_um2,
        ]
        for row in res.rows
    ]
    return [
        _write_csv(
            pathlib.Path(directory) / "e12_stages.csv",
            [
                "design",
                "n_stages",
                "frequency_ghz",
                "uniqueness_percent",
                "flips_percent",
                "cell_area_um2",
            ],
            rows,
        )
    ]
