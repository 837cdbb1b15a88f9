"""BatchStudy.mechanism_frequencies against an independent per-chip path.

The engine subtracts one mechanism's threshold shift block by block
(``CoefficientFold.subtracter``); every source (RAM, mmap store) shares
that one subtraction, so comparing configurations with each other cannot
catch a wrong closed form.  Here the reference is rebuilt per chip from
the sampled prefactors of a per-chip :class:`~repro.core.factory.Study`,
in :meth:`ChipAging.delta`'s exact grouping with the other mechanism left
out, and run through the per-chip frequency model.
"""

import numpy as np
import pytest

from repro.aging import hci, nbti
from repro.aging.simulator import ChipAging
from repro.core import aro_design, conventional_design, make_batch_study, make_study
from repro.variation.chip import NMOS, PMOS

SEED = 20140324
N_CHIPS = 4
N_ROS = 8
FACTORIES = {"ro-puf": conventional_design, "aro-puf": aro_design}


def one_mechanism_delta(aging: ChipAging, t: float, mechanism: str) -> np.ndarray:
    """``aging.delta(t)`` with only ``mechanism`` ("bti" or "hci") active."""
    stress = aging.stress
    delta = np.zeros(aging.chip.vth.shape)
    for pol, duty, pbti, pmos in (
        (PMOS, stress.nbti_duty, False, True),
        (NMOS, stress.pbti_duty, True, False),
    ):
        if mechanism == "bti":
            delta[:, :, pol] += nbti.bti_shift(
                duty[None, :, pol],
                t,
                aging.tech.nbti,
                prefactor=aging.nbti_a[:, :, pol],
                temperature_k=aging.mission.temperature_k,
                pbti=pbti,
            )
        else:
            delta[:, :, pol] += hci.hci_shift(
                stress.transitions_per_year[None, :, pol] * t,
                aging.tech.hci,
                prefactor=aging.hci_b[:, :, pol],
                pmos=pmos,
            )
    return delta


@pytest.fixture(scope="module", params=sorted(FACTORIES))
def design(request):
    return FACTORIES[request.param](n_ros=N_ROS, n_stages=5)


@pytest.fixture(scope="module")
def study(design):
    return make_study(design, N_CHIPS, rng=SEED)


@pytest.mark.parametrize("store", ["ram", "mmap"])
@pytest.mark.parametrize("mechanism", ["bti", "hci"])
@pytest.mark.parametrize("t", [0.5, 10.0])
def test_mechanism_frequencies_match_per_chip_reference(
    design, study, store, mechanism, t
):
    with make_batch_study(
        design, N_CHIPS, rng=SEED, store=store, block_size=3
    ) as batch:
        freqs = np.asarray(batch.mechanism_frequencies(t, mechanism))
    for i, aging in enumerate(study.agings):
        chip = aging.chip.with_delta(one_mechanism_delta(aging, t, mechanism))
        reference = design.instantiate(chip).frequencies()
        np.testing.assert_allclose(freqs[i], reference, rtol=1e-11)


def test_reference_mechanisms_add_up_to_chip_delta(study):
    """The reference split is the per-chip closed form, term for term."""
    for aging in study.agings:
        for t in (0.5, 10.0):
            total = one_mechanism_delta(aging, t, "bti") + one_mechanism_delta(
                aging, t, "hci"
            )
            np.testing.assert_array_equal(total, aging.delta(t))

