from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab.errors import DuplicateJumpSize, NonpositiveIntensity, ZeroJumpSize
from levylab.levy import LevySpec
from levylab.teugels import basis_for
from teugels_reference import mean_l1


def test_poisson_case_valid():
    spec = LevySpec(atoms=((1.0, 1.0),))
    assert spec.m_atoms == 1
    assert not spec.continuous_part


def test_empty_spec_valid_degenerate():
    spec = LevySpec()
    assert spec.m_atoms == 0
    assert spec.jump_sizes.shape == spec.intensities.shape == (0,)
    assert spec.total_intensity == 0.0
    assert spec.drift_b == 0.0


def test_duplicate_jump_size_rejected():
    with pytest.raises(DuplicateJumpSize):
        LevySpec(atoms=((1.0, 1.0), (1.0, 2.0)))


def test_zero_jump_size_rejected():
    with pytest.raises(ZeroJumpSize):
        LevySpec(atoms=((0.0, 1.0),))
    # a spec derived from a valid one is checked too
    with pytest.raises(ZeroJumpSize):
        replace(LevySpec(atoms=((1.0, 1.0),)), atoms=((0.0, 1.0),))


def test_nonpositive_intensity_rejected():
    with pytest.raises(NonpositiveIntensity):
        LevySpec(atoms=((1.0, 0.0),))
    with pytest.raises(NonpositiveIntensity):
        LevySpec(atoms=((1.0, -2.0),))


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        LevySpec(sigma=-1.0)
    with pytest.raises(ValueError):
        replace(LevySpec(atoms=((1.0, 1.0),)), sigma=-1.0)


def test_continuous_part_flag():
    assert LevySpec(sigma=0.5).continuous_part
    assert not LevySpec(sigma=0.0).continuous_part


def test_mean_l1_uncompensated():
    # E[L_1] is the slope between jumps plus the full jump mean
    spec = LevySpec(drift_b=0.7, atoms=((0.5, 2.0), (2.0, 0.25)))
    assert spec.drift_b == 0.7
    assert mean_l1(spec) == pytest.approx(0.7 + 2.0 * 0.5 + 0.25 * 2.0)


@st.composite
def atom_lists(draw, max_atoms=4):
    slots = draw(
        st.lists(st.integers(min_value=-8, max_value=8).filter(lambda v: v != 0),
                 min_size=0, max_size=max_atoms, unique=True)
    )
    atoms = []
    for s in slots:
        alpha = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        atoms.append((s / 2.0, alpha))
    return tuple(atoms)


@given(atom_lists(), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_validate_moments_roundtrip_pure(atoms, drift):
    """Normalization is idempotent, and building the basis leaves the spec unchanged."""
    spec = LevySpec(drift_b=drift, atoms=atoms)
    before = replace(spec)
    basis_for(spec)
    assert spec == before and replace(spec) == spec
