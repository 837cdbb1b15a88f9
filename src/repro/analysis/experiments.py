"""The paper's evaluation, experiment by experiment (E1 .. E13).

Each function regenerates the data behind one table or figure of the
paper's evaluation section (DESIGN.md §4 maps IDs to paper artefacts) and
returns a structured result object; ``repro run eN`` calls these and
prints the rows (``repro.analysis.render``), and EXPERIMENTS.md quotes
that output as paper-vs-measured numbers.

Everything is seeded: the same config reproduces the same tables.
"""

from __future__ import annotations

import functools
import re
from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from .._rng import DEFAULT_SEED
from ..aging.schedule import IdlePolicy, MissionProfile
from ..core.aro_puf import aro_design
from ..core.base import PufDesign
from ..core.pairing import DistantPairing, NeighborPairing
from ..core.population import BatchStudy, make_batch_study
from ..core.readout import compare_pairs, voted_response
from ..core.ro_puf import conventional_design
from ..core.selection import select_stable_pairs, selection_margins
from ..environment.conditions import OperatingConditions, celsius
from ..forensics.capture import (
    DEFAULT_FORENSICS_YEARS,
    DEFAULT_HORIZON,
    DesignForensics,
    capture_forensics,
)
from ..forensics.forecast import K_DEFAULT
from ..keygen.design import KeygenDesignPoint, _PricedGrid
from ..metrics.aliasing import AliasingReport, bit_aliasing
from ..metrics.randomness import RandomnessReport, population_bits, randomness_battery
from ..metrics.reliability import ReliabilityReport, reliability
from ..metrics.uniformity import UniformityReport, uniformity
from ..metrics.uniqueness import UniquenessReport, hd_histogram, uniqueness
from .sweep import DEFAULT_YEARS, Series


def _slug(label: str) -> str:
    """Ledger-safe scalar key fragment from a human row label.

    ``"ro-puf / parked static"`` -> ``"ro-puf.parked_static"``: the
    design name keeps its dash (it is the namespace the anchor registry
    addresses), everything after the slash becomes one snake_case token.
    Keys must stay *stable across PRs* — the ledger correlates runs by
    exact key — so renames here are format changes, not refactors.
    """
    tokens = []
    for part in label.split("/"):
        token = re.sub(r"[^a-z0-9\-]+", "_", part.strip().lower()).strip("_")
        if token:
            tokens.append(token)
    return ".".join(tokens)


def _staged(name: str):
    """Wrap an experiment entry point in a telemetry span.

    Disabled-tracer cost is one branch per experiment call; with a tracer
    installed every experiment shows up as one top-level stage in the
    ``--trace`` tree, with the engine's fabrication/kernel spans nested
    beneath it.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = telemetry.start_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                telemetry.end_span(sp)

        return wrapper

    return decorate


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared Monte-Carlo setup for the evaluation suite.

    The defaults mirror the paper's scale: a 50-chip population of 256
    five-stage oscillators (128 response bits via neighbour pairing) on
    the 90 nm card, with the standard 10-year consumer mission.

    Every experiment that fabricates chips (all but E6 and E11) does so
    through :func:`~repro.core.population.make_batch_study`, the one
    engine.  Only :meth:`batch_study_for` (E1, E2, E3, E5, E13) takes the
    execution knobs below; :meth:`study_for` (E4, E10) and the ablations
    (E7, E8, E9, E12) build in-RAM, in-process studies.

    ``jobs`` shards the batched engine's chip axis over that many worker
    processes (``jobs=1`` stays in-process).  ``store`` selects the
    population backing: ``"ram"`` (default) holds the dense tensors in
    memory; ``"mmap"`` streams the population through the out-of-core
    :mod:`repro.store` segments with bounded RSS, under ``store_dir`` (a
    temp directory when unset).  ``block_size`` is the source block in
    chips (see :func:`~repro.core.population.make_batch_study`).  All
    four knobs change wall-clock and memory only: E1, E2, E3, E5 and E13
    return bit-identical numbers for any worker count, store backing or
    block size, so none of them is part of the result-defining config
    the ledger and cache key digest.
    """

    n_chips: int = 50
    n_ros: int = 256
    n_stages: int = 5
    seed: int = DEFAULT_SEED
    mission: MissionProfile = field(default_factory=MissionProfile)
    jobs: int = 1
    store: str = "ram"
    block_size: Optional[int] = None
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.store not in ("ram", "mmap"):
            raise ValueError(
                f"store must be 'ram' or 'mmap', got {self.store!r}"
            )
        if self.block_size is not None and self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1, got {self.block_size}"
            )

    def designs(self) -> Dict[str, PufDesign]:
        """The two contenders, keyed by their registry names."""
        return {
            "ro-puf": conventional_design(self.n_ros, self.n_stages),
            "aro-puf": aro_design(self.n_ros, self.n_stages),
        }

    def study_for(self, design: PufDesign) -> BatchStudy:
        """Fabricate + prepare aging for one design (seeded), in RAM and
        in-process whatever the execution knobs say."""
        return make_batch_study(
            design, self.n_chips, mission=self.mission, rng=self.seed
        )

    def batch_study_for(self, design: PufDesign) -> BatchStudy:
        """:meth:`study_for` built with this config's execution knobs
        (same seed, same silicon: responses are bit-identical for any
        knob setting).  Callers should
        ``closing(...)`` the returned study so worker pools and owned
        store directories are released promptly.
        """
        return make_batch_study(
            design,
            self.n_chips,
            mission=self.mission,
            rng=self.seed,
            jobs=self.jobs,
            store=self.store,
            block_size=self.block_size,
            store_dir=self.store_dir,
        )


# ----------------------------------------------------------------------
# E1 — RO frequency degradation over time
# ----------------------------------------------------------------------


@dataclass
class FrequencyDegradationResult:
    """Mean fractional RO frequency loss versus years in the field."""

    years: List[float]
    series: Dict[str, Series]
    fresh_frequency_ghz: Dict[str, float]

    def ledger_scalars(self) -> Dict[str, float]:
        """E1 headline scalars for the run ledger."""
        out: Dict[str, float] = {}
        for name, freq in self.fresh_frequency_ghz.items():
            out[f"{name}.fresh_frequency_ghz"] = freq
        for name, s in self.series.items():
            if 10.0 in s.x:
                out[f"{name}.degradation_at_10y_pct"] = s.y_at(10.0)
        return out


@_staged("experiment.e1")
def frequency_degradation(
    config: Optional[ExperimentConfig] = None,
    years: Sequence[float] = DEFAULT_YEARS,
) -> FrequencyDegradationResult:
    """E1: how much each design's oscillators slow down over the mission."""
    config = config or ExperimentConfig()
    series: Dict[str, Series] = {}
    fresh: Dict[str, float] = {}
    for name, design in config.designs().items():
        with closing(config.batch_study_for(design)) as study:
            f0 = study.frequencies()
            fresh[name] = float(f0.mean() / 1e9)
            s = Series(name=name)
            for t in years:
                ft = study.frequencies(t_years=t)
                loss = (f0 - ft) / f0
                s.add(t, 100.0 * float(loss.mean()), 100.0 * float(loss.std()))
            series[name] = s
    return FrequencyDegradationResult(
        years=list(years), series=series, fresh_frequency_ghz=fresh
    )


# ----------------------------------------------------------------------
# E2 — response bit flips versus years (the 32 % / 7.7 % figure)
# ----------------------------------------------------------------------


@dataclass
class BitflipResult:
    """Percentage of response bits flipped (vs the fresh golden response)."""

    years: List[float]
    series: Dict[str, Series]
    final_reports: Dict[str, ReliabilityReport]

    def at_ten_years(self) -> Dict[str, float]:
        """The abstract's headline numbers: mean flip % at 10 years."""
        return {name: s.y_at(10.0) for name, s in self.series.items() if 10.0 in s.x}

    def ledger_scalars(self) -> Dict[str, float]:
        """E2 headline scalars — the ledger's most anchor-laden entry."""
        out: Dict[str, float] = {}
        final = self.at_ten_years()
        for name, flips in final.items():
            out[f"{name}.flips_at_10y_pct"] = flips
        for name, report in self.final_reports.items():
            if report is not None:
                out[f"{name}.worst_chip_flips_pct"] = (
                    100.0 * report.worst_flip_fraction
                )
        conv, aro = final.get("ro-puf"), final.get("aro-puf")
        if conv is not None and aro:
            out["improvement_factor_10y"] = conv / aro
        return out


@_staged("experiment.e2")
def aging_bitflips(
    config: Optional[ExperimentConfig] = None,
    years: Sequence[float] = DEFAULT_YEARS,
) -> BitflipResult:
    """E2: aged-response bit flips for both designs over the mission."""
    config = config or ExperimentConfig()
    series: Dict[str, Series] = {}
    finals: Dict[str, ReliabilityReport] = {}
    for name, design in config.designs().items():
        with closing(config.batch_study_for(design)) as study:
            goldens, counts = study.flip_counts(years)
            s = Series(name=name)
            last_report = None
            for t, flips in zip(years, counts):
                report = ReliabilityReport.from_flip_counts(flips, goldens.shape[1])
                s.add(t, report.percent(), 100.0 * report.std_flip_fraction)
                last_report = report
            series[name] = s
            finals[name] = last_report
    return BitflipResult(years=list(years), series=series, final_reports=finals)


# ----------------------------------------------------------------------
# E3 — uniqueness (inter-chip HD distribution)
# ----------------------------------------------------------------------


@dataclass
class UniquenessResult:
    """Inter-chip HD statistics and histograms for both designs."""

    reports: Dict[str, UniquenessReport]
    histograms: Dict[str, Tuple[np.ndarray, np.ndarray]]

    def ledger_scalars(self) -> Dict[str, float]:
        """E3 headline scalars for the run ledger."""
        out: Dict[str, float] = {}
        for name, report in self.reports.items():
            out[f"{name}.uniqueness_pct"] = report.percent()
            out[f"{name}.uniqueness_std_pct"] = 100.0 * report.std
        return out


@_staged("experiment.e3")
def uniqueness_experiment(
    config: Optional[ExperimentConfig] = None, bins: int = 25
) -> UniquenessResult:
    """E3: the 49.67 % vs ~45 % inter-chip Hamming distance comparison."""
    config = config or ExperimentConfig()
    reports: Dict[str, UniquenessReport] = {}
    histograms: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name, design in config.designs().items():
        with closing(config.batch_study_for(design)) as study:
            goldens = study.responses()
        reports[name] = uniqueness(goldens)
        histograms[name] = hd_histogram(goldens, bins=bins)
    return UniquenessResult(reports=reports, histograms=histograms)


# ----------------------------------------------------------------------
# E4 — uniformity, bit-aliasing and the randomness battery
# ----------------------------------------------------------------------


@dataclass
class RandomnessResult:
    """Response-quality statistics beyond uniqueness."""

    uniformity: Dict[str, UniformityReport]
    aliasing: Dict[str, AliasingReport]
    battery: Dict[str, RandomnessReport]
    entropy: Dict[str, "EntropyReport"]

    def ledger_scalars(self) -> Dict[str, float]:
        """E4 headline scalars for the run ledger."""
        out: Dict[str, float] = {}
        for name, report in self.uniformity.items():
            out[f"{name}.uniformity_pct"] = report.percent()
        for name, report in self.aliasing.items():
            out[f"{name}.aliasing_worst_bias"] = report.worst_bias
        for name, report in self.entropy.items():
            out[f"{name}.min_entropy_per_bit"] = report.min_entropy_per_bit
        for name, report in self.battery.items():
            passed = report.passed()
            out[f"{name}.randomness_pass_fraction"] = sum(
                passed.values()
            ) / len(passed)
        return out


@_staged("experiment.e4")
def randomness_experiment(
    config: Optional[ExperimentConfig] = None,
) -> RandomnessResult:
    """E4: are the keys balanced, statistically random, and entropy-rich?"""
    from ..metrics.entropy import EntropyReport, response_entropy

    config = config or ExperimentConfig()
    unif: Dict[str, UniformityReport] = {}
    alias: Dict[str, AliasingReport] = {}
    battery: Dict[str, RandomnessReport] = {}
    entropy: Dict[str, EntropyReport] = {}
    for name, design in config.designs().items():
        study = config.study_for(design)
        goldens = study.responses()
        unif[name] = uniformity(goldens)
        alias[name] = bit_aliasing(goldens)
        battery[name] = randomness_battery(population_bits(goldens))
        entropy[name] = response_entropy(goldens)
    return RandomnessResult(
        uniformity=unif, aliasing=alias, battery=battery, entropy=entropy
    )


# ----------------------------------------------------------------------
# E5 — environmental reliability (temperature / supply corners)
# ----------------------------------------------------------------------


@dataclass
class EnvironmentalResult:
    """Intra-chip HD versus temperature and versus supply voltage."""

    temperature_series: Dict[str, Series]
    voltage_series: Dict[str, Series]

    def ledger_scalars(self) -> Dict[str, float]:
        """E5 headline scalars: the worst corner of each sweep axis."""
        out: Dict[str, float] = {}
        for name, s in self.temperature_series.items():
            if s.y:
                out[f"{name}.worst_temp_corner_flips_pct"] = max(s.y)
        for name, s in self.voltage_series.items():
            if s.y:
                out[f"{name}.worst_vdd_corner_flips_pct"] = max(s.y)
        return out


@_staged("experiment.e5")
def environmental_reliability(
    config: Optional[ExperimentConfig] = None,
    temperatures_c: Sequence[float] = (-20.0, 0.0, 25.0, 45.0, 65.0, 85.0),
    vdd_rel: Sequence[float] = (0.90, 0.95, 1.00, 1.05, 1.10),
    votes: int = 5,
) -> EnvironmentalResult:
    """E5: flips against the nominal golden response at environmental
    corners (fresh silicon; aging is E2's job).

    Golden responses are enrolled with majority voting at the nominal
    corner; regeneration is a single noisy evaluation at each corner.

    The expensive part — re-timing every oscillator of every chip at
    every corner — runs through the batched engine (one frequency tensor
    per corner); only the cheap counter-noise draws stay per chip, with
    the same per-chip seeds as the per-instance path.
    """
    config = config or ExperimentConfig()
    temp_series: Dict[str, Series] = {}
    volt_series: Dict[str, Series] = {}
    for name, design in config.designs().items():
        with closing(config.batch_study_for(design)) as study:
            pairs = design.pairing.pairs(design.n_ros)
            f_nominal = study.frequencies()
            goldens = [
                voted_response(
                    f_nominal[i],
                    pairs,
                    design.tech,
                    design.readout,
                    votes=votes,
                    rng=config.seed + i,
                )
                for i in range(study.n_chips)
            ]

            def corner_report(cond: OperatingConditions, seed_base: int):
                f_corner = study.frequencies(conditions=cond)
                observed = [
                    compare_pairs(
                        f_corner[i],
                        pairs,
                        design.tech,
                        design.readout,
                        noisy=True,
                        rng=seed_base + i,
                    )
                    for i in range(study.n_chips)
                ]
                return reliability(goldens, observed)

            s_t = Series(name=name)
            for idx, temp_c in enumerate(temperatures_c):
                cond = OperatingConditions(temperature_k=celsius(temp_c))
                report = corner_report(cond, config.seed + 1000 + 100 * idx)
                s_t.add(temp_c, report.percent(), 100.0 * report.std_flip_fraction)
            temp_series[name] = s_t

            s_v = Series(name=name)
            for idx, rel in enumerate(vdd_rel):
                cond = OperatingConditions(vdd=design.tech.vdd * rel)
                report = corner_report(cond, config.seed + 5000 + 100 * idx)
                s_v.add(rel, report.percent(), 100.0 * report.std_flip_fraction)
            volt_series[name] = s_v
    return EnvironmentalResult(
        temperature_series=temp_series, voltage_series=volt_series
    )


# ----------------------------------------------------------------------
# E6 — ECC + PUF area for a 128-bit key (the ~24x figure)
# ----------------------------------------------------------------------


@dataclass
class AreaRow:
    """One margin policy's outcome for both designs."""

    policy: str
    p_conv: float
    p_aro: float
    conv: Optional[KeygenDesignPoint]
    aro: Optional[KeygenDesignPoint]

    @property
    def ratio(self) -> Optional[float]:
        if self.conv is None or self.aro is None:
            return None
        return self.conv.total_area / self.aro.total_area


@dataclass
class AreaResult:
    """E6 rows, one per error-margin policy."""

    key_bits: int
    failure_target: float
    rows: List[AreaRow]

    def ledger_scalars(self) -> Dict[str, float]:
        """E6 headline scalars: area ratios and ECC decode-failure rates.

        The decode-failure rate is the analytic key-failure probability
        of each design's minimum-area point at the worst-case margin
        policy (the policy behind the paper's ~24x figure).
        """
        out: Dict[str, float] = {}
        for row in self.rows:
            slug = _slug(row.policy)
            if row.ratio is not None:
                out[f"area_ratio.{slug}"] = row.ratio
        if self.rows:
            worst = self.rows[-1]
            if worst.conv is not None:
                out["ro-puf.decode_failure_worst_case"] = worst.conv.key_failure
            if worst.aro is not None:
                out["aro-puf.decode_failure_worst_case"] = worst.aro.key_failure
        return out


#: repetition palette wide enough to reach the conventional PUF's
#: worst-case corner (it needs three-digit repetition factors there)
WIDE_REPETITIONS = tuple(list(range(1, 160, 2)) + list(range(161, 640, 10)))


@_staged("experiment.e6")
def ecc_area_experiment(
    policies: Sequence[Tuple[str, float, float]] = (
        ("mean 10-year aging", 0.32, 0.077),
        ("worst chip, 10 years", 0.41, 0.125),
        ("worst chip + env corner", 0.45, 0.16),
    ),
    *,
    key_bits: int = 128,
    failure_target: float = 1.0e-6,
    bch_palette=None,
) -> AreaResult:
    """E6: minimum-area 128-bit key generators under margin policies.

    Each policy fixes the raw bit-error probability the ECC must survive
    (conventional, ARO); the defaults are the measured E2/E5 figures.  The
    paper's single ~24x number corresponds to sizing for the worst case —
    ``run e6`` prints all three policies so the dependence is explicit.
    """
    from ..ecc.bch import standard_codes
    from ..ecc.golay import GolayCode

    palette = (
        bch_palette
        if bch_palette is not None
        else standard_codes() + [GolayCode()]
    )
    search = dict(
        key_bits=key_bits,
        failure_target=failure_target,
        repetitions=WIDE_REPETITIONS,
        bch_palette=palette,
        max_raw_bits=5_000_000,
    )
    rows: List[AreaRow] = []
    for label, p_conv, p_aro in policies:
        rows.append(
            AreaRow(
                policy=label,
                p_conv=p_conv,
                p_aro=p_aro,
                conv=_PricedGrid(p_conv, conventional_design(), **search).cheapest(),
                aro=_PricedGrid(p_aro, aro_design(), **search).cheapest(),
            )
        )
    return AreaResult(key_bits=key_bits, failure_target=failure_target, rows=rows)


# ----------------------------------------------------------------------
# E7 — ablation: why the ARO works (idle duty / idle policy)
# ----------------------------------------------------------------------


@dataclass
class DutyAblationResult:
    """10-year flip rate versus evaluation duty and idle policy."""

    duty_series: Series
    policy_rows: List[Tuple[str, float]]

    def ledger_scalars(self) -> Dict[str, float]:
        """E7 headline scalars: 10-year flips per idle policy."""
        return {
            f"{_slug(label)}.flips_pct": flips
            for label, flips in self.policy_rows
        }


@_staged("experiment.e7")
def duty_ablation(
    config: Optional[ExperimentConfig] = None,
    duties: Sequence[float] = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2),
    t_years: float = 10.0,
) -> DutyAblationResult:
    """E7: sweep the ARO's activity duty, and compare idle policies.

    The duty sweep shows the ``duty**n`` leverage the recovery gating
    exploits; the policy rows pin each cell to its alternatives
    (conventional parked-static, conventional free-running, ARO recovery).
    """
    config = config or ExperimentConfig()
    duty_series = Series(name="aro-puf flips vs eval duty")
    base = aro_design(config.n_ros, config.n_stages)
    for duty in duties:
        mission = MissionProfile(
            eval_duty=duty, temperature_k=config.mission.temperature_k
        )
        study = make_batch_study(
            base, config.n_chips, mission=mission, rng=config.seed
        )
        goldens = study.responses()
        aged = study.responses(t_years=t_years)
        duty_series.add(duty, reliability(goldens, aged).percent())

    policy_rows: List[Tuple[str, float]] = []
    conv = conventional_design(config.n_ros, config.n_stages)
    cases = [
        ("ro-puf / parked static", conv, IdlePolicy.PARKED_STATIC),
        ("ro-puf / parked toggling", conv, IdlePolicy.PARKED_TOGGLING),
        ("ro-puf / free running", conv, IdlePolicy.FREE_RUNNING),
        ("aro-puf / recovery", base, IdlePolicy.RECOVERY),
        ("aro-puf / free running", base, IdlePolicy.FREE_RUNNING),
    ]
    for label, design, policy in cases:
        study = make_batch_study(
            design,
            config.n_chips,
            mission=config.mission,
            idle_policy=policy,
            rng=config.seed,
        )
        goldens = study.responses()
        aged = study.responses(t_years=t_years)
        policy_rows.append((label, reliability(goldens, aged).percent()))
    return DutyAblationResult(duty_series=duty_series, policy_rows=policy_rows)


# ----------------------------------------------------------------------
# E8 — ablation: layout symmetrisation and pairing distance
# ----------------------------------------------------------------------


@dataclass
class LayoutAblationResult:
    """Uniqueness versus systematic-variation strength and pairing."""

    systematic_series: Dict[str, Series]
    pairing_rows: List[Tuple[str, float]]

    def ledger_scalars(self) -> Dict[str, float]:
        """E8 headline scalars: uniqueness per pairing and at nominal
        systematic-variation strength (multiplier 1.0)."""
        out: Dict[str, float] = {}
        for label, uniq in self.pairing_rows:
            out[f"{_slug(label)}.uniqueness_pct"] = uniq
        for name, s in self.systematic_series.items():
            if 1.0 in s.x:
                out[f"{name}.uniqueness_at_nominal_sys_pct"] = s.y_at(1.0)
        return out


@_staged("experiment.e8")
def layout_ablation(
    config: Optional[ExperimentConfig] = None,
    sys_multipliers: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 3.0),
) -> LayoutAblationResult:
    """E8: how the systematic layout component depresses uniqueness.

    Sweeps the systematic sigma for both layout styles (the ARO's symmetric
    cell should stay flat near 50 %), then contrasts neighbour versus
    maximally distant pairing at the nominal sigma.
    """
    import dataclasses as _dc

    config = config or ExperimentConfig()
    systematic_series: Dict[str, Series] = {}
    base_designs = config.designs()
    for name, design in base_designs.items():
        s = Series(name=name)
        for mult in sys_multipliers:
            var = _dc.replace(
                design.tech.variation,
                sigma_systematic=design.tech.variation.sigma_systematic * mult,
            )
            tech = design.tech.replace(variation=var)
            scaled = _dc.replace(design, tech=tech)
            study = make_batch_study(
                scaled, config.n_chips, mission=config.mission, rng=config.seed
            )
            s.add(mult, uniqueness(study.responses()).percent())
        systematic_series[name] = s

    pairing_rows: List[Tuple[str, float]] = []
    for name, design in base_designs.items():
        for pairing, pname in (
            (NeighborPairing(), "neighbour"),
            (DistantPairing(), "distant"),
        ):
            d = _dc.replace(design, pairing=pairing)
            study = make_batch_study(
                d, config.n_chips, mission=config.mission, rng=config.seed
            )
            pairing_rows.append(
                (f"{name} / {pname}", uniqueness(study.responses()).percent())
            )
    return LayoutAblationResult(
        systematic_series=systematic_series, pairing_rows=pairing_rows
    )


# ----------------------------------------------------------------------
# E9 — extension: 1-out-of-k masking versus the ARO approach
# ----------------------------------------------------------------------


@dataclass
class MaskingRow:
    """One masking configuration's outcome."""

    label: str
    ros_per_bit: float
    n_bits: int
    mean_margin_percent: float
    noise_flips_percent: float
    aging_flips_percent: float


@dataclass
class MaskingAblationResult:
    """E9 rows: enrolment-time masking vs the ARO's circuit fix."""

    rows: List[MaskingRow]
    t_years: float

    def ledger_scalars(self) -> Dict[str, float]:
        """E9 headline scalars: aging/noise flips per masking config."""
        out: Dict[str, float] = {}
        for row in self.rows:
            slug = _slug(row.label)
            out[f"{slug}.aging_flips_pct"] = row.aging_flips_percent
            out[f"{slug}.noise_flips_pct"] = row.noise_flips_percent
        return out


@_staged("experiment.e9")
def masking_ablation(
    config: Optional[ExperimentConfig] = None,
    ks: Sequence[int] = (2, 4, 8, 16),
    t_years: float = 10.0,
) -> MaskingAblationResult:
    """E9: does 1-out-of-k pair selection rescue the conventional RO-PUF?

    For each group size ``k`` the conventional chips are enrolled with the
    classic widest-margin-pair selection; the table reports the margin the
    selection buys, how completely it suppresses *measurement-noise* flips
    (single noisy re-read at the enrolment corner), and how much of the
    *aging* flip rate survives after ``t_years``.  The ARO-PUF with plain
    neighbour pairing is the reference row.

    The punchline the ablation exists for: masking's margin is static
    while the aging differential grows without bound, and every masked bit
    costs ``k`` oscillators — the circuit-level fix dominates it.
    """
    import dataclasses as _dc

    config = config or ExperimentConfig()
    rows: List[MaskingRow] = []

    conv = conventional_design(config.n_ros, config.n_stages)
    study = make_batch_study(
        conv, config.n_chips, mission=config.mission, rng=config.seed
    )

    for k in ks:
        margins = []
        noise_flips = []
        aging_flips = []
        for idx, (inst, aging) in enumerate(zip(study.instances, study.agings)):
            freqs = inst.frequencies()
            pairing = select_stable_pairs(freqs, k)
            margins.append(float(selection_margins(freqs, pairing).mean()))
            masked = _dc.replace(inst.design, pairing=pairing)
            fresh_inst = masked.instantiate(inst.chip)
            golden = fresh_inst.golden_response()
            noisy = fresh_inst.evaluate(noisy=True, rng=config.seed + idx)
            aged = masked.instantiate(aging.aged(t_years)).golden_response()
            n_bits = golden.size
            noise_flips.append(float(np.count_nonzero(golden != noisy)) / n_bits)
            aging_flips.append(float(np.count_nonzero(golden != aged)) / n_bits)
        rows.append(
            MaskingRow(
                label=f"ro-puf / 1-of-{k} masking" if k > 2 else "ro-puf / neighbour (k=2)",
                ros_per_bit=float(k),
                n_bits=config.n_ros // k,
                mean_margin_percent=100.0 * float(np.mean(margins)),
                noise_flips_percent=100.0 * float(np.mean(noise_flips)),
                aging_flips_percent=100.0 * float(np.mean(aging_flips)),
            )
        )

    # the ARO reference: plain neighbour pairing, no helper-data selection
    aro = aro_design(config.n_ros, config.n_stages)
    aro_study = make_batch_study(
        aro, config.n_chips, mission=config.mission, rng=config.seed
    )
    goldens = aro_study.responses()
    aged = aro_study.responses(t_years=t_years)
    noise = [
        inst.evaluate(noisy=True, rng=config.seed + 500 + i)
        for i, inst in enumerate(aro_study.instances)
    ]
    freqs0 = aro_study.instances[0].frequencies()
    neighbour_margin = 100.0 * float(
        np.abs(freqs0[0::2][: len(freqs0) // 2] - freqs0[1::2][: len(freqs0) // 2]).mean()
        / freqs0.mean()
    )
    from ..metrics.reliability import reliability as _rel

    rows.append(
        MaskingRow(
            label="aro-puf / neighbour (reference)",
            ros_per_bit=2.0,
            n_bits=aro.n_bits,
            mean_margin_percent=neighbour_margin,
            noise_flips_percent=_rel(goldens, noise).percent(),
            aging_flips_percent=_rel(goldens, aged).percent(),
        )
    )
    return MaskingAblationResult(rows=rows, t_years=t_years)


# ----------------------------------------------------------------------
# E10 — extension: lifetime device authentication
# ----------------------------------------------------------------------


@_staged("experiment.e10")
def authentication_experiment(
    config: Optional[ExperimentConfig] = None,
    years: Sequence[float] = (0.0, 2.0, 5.0, 10.0),
    threshold: float = 0.25,
):
    """E10: CRP authentication error rates over the mission.

    Enrols every chip fresh, authenticates the aged silicon at each
    mission point against the stored tables, and pits impostor chips
    against each other's tables.  Returns the
    :class:`repro.protocol.AuthenticationStudyResult`, including the
    equal-error-rate analysis that shows whether *any* threshold still
    separates genuine-aged from impostor at end of life.
    """
    from ..protocol.authentication import authentication_study

    config = config or ExperimentConfig()
    studies = {
        name: config.study_for(design)
        for name, design in config.designs().items()
    }
    batch = 16
    n_challenges = batch * (len(years) + 1)
    return authentication_study(
        studies,
        years=years,
        threshold=threshold,
        batch_size=batch,
        n_challenges=n_challenges,
        rng=config.seed,
    )


# ----------------------------------------------------------------------
# E11 — extension: sorting modeling attack on exposed CRPs
# ----------------------------------------------------------------------


@dataclass
class AttackResult:
    """E11 rows: prediction accuracy vs disclosed CRPs, per design."""

    rows: Dict[str, List[Tuple[int, float, float]]]
    n_ros: int

    def ledger_scalars(self) -> Dict[str, float]:
        """E11 headline scalars: attack accuracy at max disclosed CRPs."""
        out: Dict[str, float] = {}
        for name, series in self.rows.items():
            if series:
                n_train, accuracy, coverage = series[-1]
                out[f"{name}.attack_accuracy_at_{n_train}_crps"] = accuracy
                out[f"{name}.attack_order_coverage"] = coverage
        return out


@_staged("experiment.e11")
def attack_experiment(
    config: Optional[ExperimentConfig] = None,
    train_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    n_test: int = 32,
) -> AttackResult:
    """E11: how fast the sorting attack learns each PUF's responses.

    Aging resistance is orthogonal to modeling resistance: both designs
    fall at the same rate, which is why the key-generation mode (responses
    never exposed) carries the paper's security story.
    """
    from ..protocol.attacks import attack_curve

    config = config or ExperimentConfig()
    rows: Dict[str, List[Tuple[int, float, float]]] = {}
    for name, design in config.designs().items():
        inst = design.sample_instances(1, rng=config.seed)[0]
        rows[name] = attack_curve(
            inst, train_sizes=train_sizes, n_test=n_test, rng=config.seed
        )
    return AttackResult(rows=rows, n_ros=config.n_ros)


# ----------------------------------------------------------------------
# E12 — extension: ring-length (stage-count) design choice
# ----------------------------------------------------------------------


@dataclass
class StageRow:
    """One (design, stage count) evaluation."""

    design: str
    n_stages: int
    frequency_ghz: float
    uniqueness_percent: float
    flips_percent: float
    cell_area_um2: float


@dataclass
class StageAblationResult:
    """E12 rows across ring lengths."""

    rows: List[StageRow]
    t_years: float

    def ledger_scalars(self) -> Dict[str, float]:
        """E12 headline scalars: the paper's 5-stage design point."""
        out: Dict[str, float] = {}
        for row in self.rows:
            if row.n_stages == 5:
                out[f"{row.design}.flips_at_5_stages_pct"] = row.flips_percent
                out[f"{row.design}.uniqueness_at_5_stages_pct"] = (
                    row.uniqueness_percent
                )
        return out


@_staged("experiment.e12")
def stage_ablation(
    config: Optional[ExperimentConfig] = None,
    stage_counts: Sequence[int] = (3, 5, 7, 9, 13),
    t_years: float = 10.0,
) -> StageAblationResult:
    """E12: does the choice of ring length change the paper's story?

    Longer rings average device mismatch over more stages, shrinking both
    the process margin and the aging differential by the same sqrt-law —
    the flip rate is nearly ring-length invariant, so the ARO's advantage
    is a property of the stress policy, not of the 5-stage choice.  What
    ring length *does* buy is lower frequency (easier counters) at linear
    area cost.
    """
    config = config or ExperimentConfig()
    rows: List[StageRow] = []
    for n_stages in stage_counts:
        for name, factory in (
            ("ro-puf", conventional_design),
            ("aro-puf", aro_design),
        ):
            design = factory(config.n_ros, n_stages)
            study = make_batch_study(
                design, config.n_chips, mission=config.mission, rng=config.seed
            )
            fresh = study.responses()
            aged = study.responses(t_years=t_years)
            freq = float(study.instances[0].frequencies().mean() / 1e9)
            rows.append(
                StageRow(
                    design=name,
                    n_stages=n_stages,
                    frequency_ghz=freq,
                    uniqueness_percent=uniqueness(fresh).percent(),
                    flips_percent=reliability(fresh, aged).percent(),
                    cell_area_um2=design.cell.cell_area(design.tech),
                )
            )
    return StageAblationResult(rows=rows, t_years=t_years)


# ----------------------------------------------------------------------
# E13 — margin forensics (per-bit provenance of the 32 % / 7.7 % story)
# ----------------------------------------------------------------------


@dataclass
class MarginForensicsResult:
    """E13: per-bit margin provenance for both designs.

    Carries the full :class:`~repro.forensics.DesignForensics` records
    (margins per year, mechanism-attributed shifts, forecast masks); the
    ledger sees the headline distribution and forecast-quality scalars.
    """

    reports: Dict[str, DesignForensics]
    t_horizon: float
    k: float

    def ledger_scalars(self) -> Dict[str, float]:
        """E13 headline scalars: margin percentiles + forecast quality.

        ``<design>.forecast_recall`` is the anchors layer's warn-band
        metric (recall >= 0.8 of actual 10-year flips); ``flipped_pct``
        must agree with E2's 10-year flip figures — same seed, same
        silicon — which ties the forensics view back to the headline
        experiment.
        """
        out: Dict[str, float] = {}
        for name, rep in self.reports.items():
            fresh = rep.summary(0.0)
            out[f"{name}.margin_p5_pct"] = 100.0 * fresh.percentile(5)
            out[f"{name}.margin_p50_pct"] = 100.0 * fresh.percentile(50)
            out[f"{name}.drift_rms_pct"] = 100.0 * rep.forecast.drift_scale
            out[f"{name}.at_risk_pct"] = 100.0 * rep.forecast.at_risk_fraction
            out[f"{name}.flipped_pct"] = 100.0 * rep.flipped_fraction
            out[f"{name}.forecast_recall"] = rep.outcome.recall
            out[f"{name}.forecast_precision"] = rep.outcome.precision
        return out


@_staged("experiment.e13")
def margin_forensics(
    config: Optional[ExperimentConfig] = None,
    years: Sequence[float] = DEFAULT_FORENSICS_YEARS,
    t_horizon: float = DEFAULT_HORIZON,
    k: float = K_DEFAULT,
) -> MarginForensicsResult:
    """E13: which bits flip, and which mechanism ate their margins?

    Runs both designs through the forensics capture: signed comparison
    margins per (chip, bit, year), NBTI-vs-HCI attribution of the margin
    shift at the horizon, and the enrolment-time at-risk forecast scored
    against the actual flips.  The paper's population-average claim
    (32 % vs 7.7 % at 10 years) decomposes here into *which* comparisons
    started life on a knife edge and whose margin the stress policy
    preserved.  (ISSUE 5 numbered this experiment E9; E9 was already the
    masking ablation, so the registry continues at E13.)
    """
    config = config or ExperimentConfig()
    reports: Dict[str, DesignForensics] = {}
    for name, design in config.designs().items():
        with closing(config.batch_study_for(design)) as study:
            reports[name] = capture_forensics(
                study,
                design_label=name,
                years=years,
                t_horizon=t_horizon,
                k=k,
            )
    return MarginForensicsResult(
        reports=reports, t_horizon=float(t_horizon), k=float(k)
    )
