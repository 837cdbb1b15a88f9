"""Paper-style text rendering for each experiment's result object, and
the registry of runnable experiments.

One ``render_*`` function per experiment (E1 .. E13), shared by
``repro run`` and ``repro report`` so the tables look the same
everywhere.  :data:`EXPERIMENTS` pairs each renderer with the function
that computes its result.  Paper reference numbers are embedded in the
titles where the abstract pins them; they come from the anchor registry
(:mod:`repro.telemetry.anchors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from ..telemetry.anchors import DESIGN_FLIPS_10Y, DESIGN_UNIQUENESS
from . import experiments as exp
from .experiments import (
    AreaResult,
    BitflipResult,
    DutyAblationResult,
    EnvironmentalResult,
    FrequencyDegradationResult,
    LayoutAblationResult,
    MaskingAblationResult,
    RandomnessResult,
    UniquenessResult,
)
from .tables import format_series, format_table

#: anchors from the paper's abstract (the registry's), plus the area
#: ratio the registry does not gate
PAPER = {
    "conv_flips_10y": DESIGN_FLIPS_10Y["ro-puf"],
    "aro_flips_10y": DESIGN_FLIPS_10Y["aro-puf"],
    "conv_hd": DESIGN_UNIQUENESS["ro-puf"],
    "aro_hd": DESIGN_UNIQUENESS["aro-puf"],
    "area_ratio": 24.0,
}


def render_e1(res: FrequencyDegradationResult) -> str:
    return format_series(
        [res.series["ro-puf"], res.series["aro-puf"]],
        x_label="years",
        y_label="mean freq loss %",
        title=(
            "E1: RO frequency degradation vs field years "
            f"(fresh: {res.fresh_frequency_ghz['ro-puf']:.2f} GHz conv / "
            f"{res.fresh_frequency_ghz['aro-puf']:.2f} GHz aro)"
        ),
    )


def render_e2(res: BitflipResult) -> str:
    final = res.at_ten_years()
    return format_series(
        [res.series["ro-puf"], res.series["aro-puf"]],
        x_label="years",
        y_label="bits flipped %",
        title=(
            "E2: response bit flips vs field years — 10y endpoints: "
            f"conv {final['ro-puf']:.2f} % (paper {PAPER['conv_flips_10y']} %), "
            f"aro {final['aro-puf']:.2f} % (paper {PAPER['aro_flips_10y']} %)"
        ),
    )


def render_e3(res: UniquenessResult) -> str:
    rows = []
    for name, paper in (("ro-puf", PAPER["conv_hd"]), ("aro-puf", PAPER["aro_hd"])):
        rep = res.reports[name]
        rows.append(
            [
                name,
                f"{rep.percent():.2f}",
                f"{paper:.2f}",
                f"{100 * rep.std:.2f}",
                f"{100 * rep.minimum:.2f}",
                f"{100 * rep.maximum:.2f}",
                rep.n_pairs,
            ]
        )
    text = format_table(
        ["design", "mean HD %", "paper %", "std %", "min %", "max %", "chip pairs"],
        rows,
        title="E3: inter-chip Hamming distance (ideal 50 %)",
    )
    hist_rows = []
    centers, conv_counts = res.histograms["ro-puf"]
    _, aro_counts = res.histograms["aro-puf"]
    for c, cc, ac in zip(centers, conv_counts, aro_counts):
        if cc or ac:
            hist_rows.append([f"{c:.2f}", int(cc), int(ac)])
    return (
        text
        + "\n\n"
        + format_table(
            ["HD bin", "ro-puf pairs", "aro-puf pairs"],
            hist_rows,
            title="E3 (cont.): HD distribution histogram",
        )
    )


def render_e4(res: RandomnessResult) -> str:
    rows = []
    for name in ("ro-puf", "aro-puf"):
        rows.append(
            [
                name,
                f"{res.uniformity[name].percent():.2f}",
                f"{100 * res.uniformity[name].std:.2f}",
                f"{res.aliasing[name].percent():.2f}",
                f"{100 * res.aliasing[name].worst_bias:.1f}",
            ]
        )
    text = format_table(
        [
            "design",
            "uniformity % (ideal 50)",
            "std %",
            "bit-aliasing % (ideal 50)",
            "worst bias pp",
        ],
        rows,
        title="E4: response balance across the chip population",
    )
    entropy_rows = [
        [
            name,
            f"{res.entropy[name].shannon_per_bit:.3f}",
            f"{res.entropy[name].min_entropy_per_bit:.3f}",
            f"{res.entropy[name].total_min_entropy:.1f}",
        ]
        for name in ("ro-puf", "aro-puf")
    ]
    text += "\n\n" + format_table(
        ["design", "Shannon/bit", "min-entropy/bit", "total min-entropy (bits)"],
        entropy_rows,
        title="E4 (cont.): key-material entropy (ideal 1.0 per bit)",
    )
    battery_rows = [
        [
            test_name,
            f"{res.battery['ro-puf'].p_values[test_name]:.4f}",
            f"{res.battery['aro-puf'].p_values[test_name]:.4f}",
        ]
        for test_name in res.battery["ro-puf"].p_values
    ]
    return (
        text
        + "\n\n"
        + format_table(
            ["NIST-style test", "ro-puf p-value", "aro-puf p-value"],
            battery_rows,
            title="E4 (cont.): randomness battery (pass: p >= 0.01)",
        )
    )


def render_e5(res: EnvironmentalResult) -> str:
    text = format_series(
        [res.temperature_series["ro-puf"], res.temperature_series["aro-puf"]],
        x_label="temp C",
        y_label="flips %",
        title="E5: intra-chip HD vs temperature (golden at 25 C, nominal Vdd)",
    )
    return (
        text
        + "\n\n"
        + format_series(
            [res.voltage_series["ro-puf"], res.voltage_series["aro-puf"]],
            x_label="Vdd / nominal",
            y_label="flips %",
            title="E5 (cont.): intra-chip HD vs supply voltage (golden at nominal)",
        )
    )


def render_e6(res: AreaResult) -> str:
    rows = []
    for row in res.rows:
        for name, point in (("ro-puf", row.conv), ("aro-puf", row.aro)):
            if point is None:
                rows.append([row.policy, name, "infeasible", "-", "-", "-", "-"])
                continue
            rows.append(
                [
                    row.policy,
                    name,
                    str(point.codec),
                    point.raw_bits,
                    point.n_ros,
                    f"{point.total_area / 1e3:.0f}",
                    f"{row.ratio:.1f}x" if name == "aro-puf" and row.ratio else "",
                ]
            )
    return format_table(
        [
            "margin policy",
            "design",
            "key codec",
            "raw bits",
            "ROs",
            "area (1e3 um^2)",
            "conv/aro",
        ],
        rows,
        title=(
            f"E6: minimum-area {res.key_bits}-bit key generator, "
            f"P_fail <= {res.failure_target:g} "
            f"(paper: ~{PAPER['area_ratio']:.0f}x reduction)"
        ),
    )


def render_e7(res: DutyAblationResult) -> str:
    duty_rows = [
        [f"{x:.0e}", f"{y:.2f}"]
        for x, y in zip(res.duty_series.x, res.duty_series.y)
    ]
    text = format_table(
        ["eval duty", "aro-puf flips @10y %"],
        duty_rows,
        title="E7: ARO-PUF 10-year flips vs evaluation duty",
    )
    policy_rows = [[label, f"{value:.2f}"] for label, value in res.policy_rows]
    return (
        text
        + "\n\n"
        + format_table(
            ["cell / idle policy", "flips @10y %"],
            policy_rows,
            title="E7 (cont.): idle-policy ablation (same mission otherwise)",
        )
    )


def render_e8(res: LayoutAblationResult) -> str:
    conv = res.systematic_series["ro-puf"]
    aro = res.systematic_series["aro-puf"]
    rows = [
        [f"{mult:.1f}x", f"{cy:.2f}", f"{ay:.2f}"]
        for mult, cy, ay in zip(conv.x, conv.y, aro.y)
    ]
    text = format_table(
        ["systematic sigma", "ro-puf HD %", "aro-puf HD %"],
        rows,
        title="E8: inter-chip HD vs systematic-variation strength (ideal 50 %)",
    )
    pairing_rows = [[label, f"{val:.2f}"] for label, val in res.pairing_rows]
    return (
        text
        + "\n\n"
        + format_table(
            ["design / pairing", "inter-chip HD %"],
            pairing_rows,
            title="E8 (cont.): pairing-distance ablation at nominal sigma",
        )
    )


def render_e9(res: MaskingAblationResult) -> str:
    rows = [
        [
            row.label,
            f"{row.ros_per_bit:.0f}",
            row.n_bits,
            f"{row.mean_margin_percent:.2f}",
            f"{row.noise_flips_percent:.2f}",
            f"{row.aging_flips_percent:.2f}",
        ]
        for row in res.rows
    ]
    return format_table(
        [
            "configuration",
            "ROs/bit",
            "bits",
            "enrol margin %",
            "noise flips %",
            f"aging flips @{res.t_years:.0f}y %",
        ],
        rows,
        title=(
            "E9 (extension): 1-out-of-k masking vs the ARO circuit fix — "
            "masking buys reliability with k oscillators per bit and "
            "helper-data leakage; the ARO gets there at 2 ROs/bit"
        ),
    )


def render_e10(res) -> str:
    """Render the authentication study (E10)."""
    rows = []
    for name in sorted(res.frr):
        for year, rate in zip(res.years, res.frr[name]):
            import numpy as _np

            genuine = float(_np.mean(res.genuine_distances[name][year]))
            rows.append(
                [name, f"{year:.0f}", f"{genuine:.3f}", f"{100 * rate:.1f}"]
            )
    text = format_table(
        ["design", "year", "mean genuine distance", f"FRR % @ thr={res.threshold}"],
        rows,
        title="E10 (extension): device authentication over the mission",
    )
    import numpy as _np

    summary = []
    last_year = res.years[-1]
    for name in sorted(res.frr):
        eer, thr = res.equal_error_rate(name, last_year)
        summary.append(
            [
                name,
                f"{float(_np.mean(res.impostor_distances[name])):.3f}",
                f"{100 * res.far[name]:.1f}",
                f"{100 * eer:.1f}",
                f"{thr:.3f}",
            ]
        )
    return (
        text
        + "\n\n"
        + format_table(
            [
                "design",
                "mean impostor distance",
                f"FAR % @ thr={res.threshold}",
                f"EER % @ {last_year:.0f}y",
                "EER threshold",
            ],
            summary,
            title=(
                "E10 (cont.): separability of genuine-aged vs impostor — an "
                "EER near 0 means a working threshold exists"
            ),
        )
    )


def render_e11(res) -> str:
    """Render the sorting-attack curve (E11)."""
    sizes = [n for n, _, _ in next(iter(res.rows.values()))]
    table_rows = []
    for i, n in enumerate(sizes):
        row = [n]
        for name in sorted(res.rows):
            _, acc, cov = res.rows[name][i]
            row.extend([f"{100 * acc:.1f}", f"{100 * cov:.1f}"])
        table_rows.append(row)
    headers = ["disclosed CRPs"]
    for name in sorted(res.rows):
        headers.extend([f"{name} acc %", f"{name} order %"])
    return format_table(
        headers,
        table_rows,
        title=(
            "E11 (extension): sorting modeling attack — response-bit "
            "prediction accuracy vs disclosed CRPs (both designs fall "
            "equally; keep responses on-chip)"
        ),
    )


def render_e12(res) -> str:
    """Render the stage-count ablation (E12)."""
    rows = [
        [
            row.design,
            row.n_stages,
            f"{row.frequency_ghz:.2f}",
            f"{row.uniqueness_percent:.2f}",
            f"{row.flips_percent:.2f}",
            f"{row.cell_area_um2:.1f}",
        ]
        for row in res.rows
    ]
    return format_table(
        [
            "design",
            "stages",
            "freq (GHz)",
            "inter-chip HD %",
            f"flips @{res.t_years:.0f}y %",
            "cell area (um^2)",
        ],
        rows,
        title=(
            "E12 (extension): ring-length design choice — the flip-rate "
            "gap is stage-count invariant (sqrt-law cancellation); length "
            "buys lower frequency at linear area"
        ),
    )


def render_e13(res) -> str:
    """Render margin forensics (E13): summary plus worst-margin exemplars.

    Delegates to :mod:`repro.forensics.report` (imported lazily there to
    keep the forensics package clear of the analysis layer at import
    time) and appends chip 0's thinnest-margin bit table per design.
    """
    from ..forensics.report import render_bit_table, render_forensics_summary

    parts = [render_forensics_summary(res.reports)]
    for rep in res.reports.values():
        parts.append("")
        parts.append(render_bit_table(rep, chip=0, top=8))
    return "\n".join(parts)


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable paper experiment: compute, render, describe.

    ``run`` returns the experiment's structured result object (which
    carries ``ledger_scalars()``); ``render`` turns that object into the
    paper-style terminal table.  Keeping the two separate is what lets
    the CLI both print the table and record the scalars from one run.
    """

    run: Callable[[exp.ExperimentConfig], Any]
    render: Callable[[Any], str]
    description: str


#: experiment id -> (run, render, one-line description), in the
#: numeric order a report lists its sections in
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "e1": ExperimentSpec(
        exp.frequency_degradation,
        render_e1,
        "RO frequency degradation vs years in the field",
    ),
    "e2": ExperimentSpec(
        exp.aging_bitflips,
        render_e2,
        "response bit flips vs years "
        f"({PAPER['conv_flips_10y']:g} % vs {PAPER['aro_flips_10y']:g} % @ 10 y)",
    ),
    "e3": ExperimentSpec(
        exp.uniqueness_experiment,
        render_e3,
        "inter-chip Hamming distance "
        f"({PAPER['conv_hd']:g} % vs {PAPER['aro_hd']:g} %)",
    ),
    "e4": ExperimentSpec(
        exp.randomness_experiment,
        render_e4,
        "uniformity, bit-aliasing, randomness battery",
    ),
    "e5": ExperimentSpec(
        exp.environmental_reliability,
        render_e5,
        "intra-chip HD at temperature / supply corners",
    ),
    "e6": ExperimentSpec(
        # E6 is policy-driven, not population-driven; config is unused but
        # the signature is kept uniform for the dispatch table
        lambda config: exp.ecc_area_experiment(),
        render_e6,
        f"PUF + ECC area for a 128-bit key (~{PAPER['area_ratio']:g}x band)",
    ),
    "e7": ExperimentSpec(
        exp.duty_ablation,
        render_e7,
        "ablation: idle policy and activity duty",
    ),
    "e8": ExperimentSpec(
        exp.layout_ablation,
        render_e8,
        "ablation: layout systematics and pairing",
    ),
    "e9": ExperimentSpec(
        exp.masking_ablation,
        render_e9,
        "extension: 1-out-of-k masking vs the ARO fix",
    ),
    "e10": ExperimentSpec(
        exp.authentication_experiment,
        render_e10,
        "extension: lifetime device authentication",
    ),
    "e11": ExperimentSpec(
        exp.attack_experiment,
        render_e11,
        "extension: sorting modeling attack on CRPs",
    ),
    "e12": ExperimentSpec(
        exp.stage_ablation,
        render_e12,
        "extension: ring-length design-choice study",
    ),
    "e13": ExperimentSpec(
        exp.margin_forensics,
        render_e13,
        "forensics: per-bit margins, NBTI/HCI attribution, at-risk forecast",
    ),
}
