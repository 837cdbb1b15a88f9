"""Convenience factory tying designs, fabrication and aging together.

Most experiments need the same bundle: a design, a population of chips,
and each chip's aging trajectory under a mission.  :func:`make_study`
builds all three with one seeded call so that callers stay thin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .._rng import RngLike, spawn
from ..aging.schedule import IdlePolicy, MissionProfile
from ..aging.simulator import AgingSimulator, ChipAging
from ..environment.conditions import OperatingConditions
from .aro_puf import aro_design
from .base import PufDesign, RoPufInstance
from .ro_puf import conventional_design

#: design factories by name, for CLI/benchmark parameterisation
DESIGNS = {
    "ro-puf": conventional_design,
    "aro-puf": aro_design,
}


def design_by_name(name: str, n_ros: int = 256, n_stages: int = 5) -> PufDesign:
    """Look up and build a design by its registry name."""
    try:
        factory = DESIGNS[name]
    except KeyError:
        known = ", ".join(sorted(DESIGNS))
        raise KeyError(f"unknown design {name!r}; known: {known}") from None
    return factory(n_ros=n_ros, n_stages=n_stages)


@dataclass
class Study:
    """A fabricated, aging-ready population of one design.

    The per-chip reference for
    :class:`~repro.core.population.BatchStudy`: both answer ``design``,
    ``n_chips``, :meth:`frequencies` and :meth:`responses` from the same
    seed.
    """

    design: PufDesign
    instances: List[RoPufInstance]
    agings: List[ChipAging]
    mission: MissionProfile

    @property
    def n_chips(self) -> int:
        return len(self.instances)

    def aged_instances(self, t_years: float) -> List[RoPufInstance]:
        """Every instance rebound to its chip aged by ``t_years``."""
        return [
            inst.with_chip(aging.aged(t_years))
            for inst, aging in zip(self.instances, self.agings)
        ]

    def _at(self, t_years: float) -> List[RoPufInstance]:
        return self.instances if t_years == 0 else self.aged_instances(t_years)

    def frequencies(
        self,
        t_years: float = 0.0,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """``(n_chips, n_ros)`` frequencies after ``t_years`` (hertz).

        One :meth:`PufDesign.frequencies` call over the (aged) instances'
        stacked thresholds, so row ``i`` is chip ``i``'s own
        :meth:`~repro.core.base.RoPufInstance.frequencies` word for word.
        """
        insts = self._at(t_years)
        return self.design.frequencies(
            np.stack([inst.chip.vth for inst in insts]),
            np.stack([inst.chip.tc_scale for inst in insts]),
            conditions,
        )

    def responses(self, challenge: Optional[int] = None, t_years: float = 0.0):
        """Golden responses of every chip at ``t_years`` (list of arrays)."""
        return [inst.golden_response(challenge) for inst in self._at(t_years)]


def make_study(
    design: PufDesign,
    n_chips: int,
    *,
    mission: Optional[MissionProfile] = None,
    idle_policy: Optional[IdlePolicy] = None,
    rng: RngLike = None,
) -> Study:
    """Fabricate ``n_chips`` of ``design`` and prepare aging trajectories.

    ``idle_policy=None`` uses the policy the cell was designed for
    (conventional → parked static, ARO → recovery); the ablation
    experiments override it.
    """
    fab_rng, aging_rng = spawn(rng, 2)
    mission = mission or MissionProfile()
    instances = design.sample_instances(n_chips, fab_rng)
    simulator = AgingSimulator(
        design.tech, design.cell, mission, idle_policy=idle_policy
    )
    aging_children = spawn(aging_rng, n_chips)
    agings = [
        simulator.for_chip(inst.chip, child)
        for inst, child in zip(instances, aging_children)
    ]
    return Study(
        design=design, instances=instances, agings=agings, mission=mission
    )
