import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab.errors import EmptyMeasure, RankMismatch
from levylab.levy import LevySpec, levy_moments
from levylab.paths import TimeGrid, derived_rng, simulate_jump_counts, assemble_levy_paths
from levylab.teugels import (
    AtomicMeasure,
    basis_for,
    build_mu,
    orthonormal_basis,
    teugels_increments,
)


def spec_of(*atoms, sigma=0.0, drift=0.0):
    return LevySpec(drift_b=drift, sigma=sigma, atoms=tuple(atoms))


class TestBuildMu:
    def test_poisson_mass_at_one(self):
        mu = build_mu(spec_of((1.0, 1.0)))
        assert mu.locations.tolist() == [1.0]
        assert mu.weights.tolist() == [1.0]

    def test_pure_brownian_mass_at_zero(self):
        mu = build_mu(LevySpec(sigma=1.0))
        assert mu.locations.tolist() == [0.0]
        assert mu.weights.tolist() == [1.0]

    def test_weight_is_alpha_beta_squared(self):
        mu = build_mu(spec_of((2.0, 3.0)))
        assert mu.weights.tolist() == [12.0]


class TestOrthonormalBasis:
    def test_poisson_rank_one_rows_zero(self):
        basis = orthonormal_basis(build_mu(spec_of((1.0, 1.0))), 3)
        assert basis.rank == 1
        assert basis.coeffs[0, 0] == 1.0
        assert np.all(basis.coeffs[1:] == 0.0)
        assert basis.degenerate_from == 2

    def test_symmetric_two_atoms(self):
        # by hand: <x, 1>_mu = 0 and |x|_mu = 1, so q0 = 1 and q1 = x
        basis = orthonormal_basis(build_mu(spec_of((1.0, 0.5), (-1.0, 0.5))), 2)
        assert basis.rank == 2
        assert basis.coeffs[0].tolist() == [1.0, 0.0]
        assert basis.coeffs[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert basis.coeffs[1, 0] == pytest.approx(0.0, abs=1e-14)
        assert basis.degenerate_from is None

    def test_empty_measure_raises(self):
        with pytest.raises(EmptyMeasure):
            orthonormal_basis(_empty_measure(), 1)

    def test_leading_coefficients_positive(self):
        basis = orthonormal_basis(build_mu(spec_of((0.5, 1.0), (1.5, 0.8), (-0.75, 1.2))), 3)
        for i in range(basis.rank):
            assert basis.coeffs[i, i] > 0.0


def _empty_measure():
    m = object.__new__(AtomicMeasure)
    object.__setattr__(m, "locations", np.zeros(0))
    object.__setattr__(m, "weights", np.zeros(0))
    return m


@st.composite
def measures(draw):
    slots = draw(
        st.lists(st.integers(min_value=-8, max_value=8).filter(lambda v: v != 0),
                 min_size=1, max_size=5, unique=True)
    )
    atoms = tuple((s / 2.0, draw(st.floats(0.1, 5.0))) for s in slots)
    sigma = draw(st.sampled_from([0.0, 0.0, 0.7]))
    return LevySpec(sigma=sigma, atoms=atoms)


@given(measures(), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_orthonormality_and_rank_properties(spec, requested):
    mu = build_mu(spec)
    basis = orthonormal_basis(mu, requested)
    assert basis.rank == min(requested, mu.n_atoms)
    assert basis.gram_defect(mu) < 1e-10
    assert np.all(basis.coeffs[basis.rank:] == 0.0)
    if basis.rank < requested:
        assert basis.degenerate_from == basis.rank + 1


class TestIncrements:
    def test_poisson_increments_are_compensated_counts(self):
        # c_{1,1} = 1 under unit mu mass, so dH1 = dN - dt exactly
        spec = spec_of((1.0, 1.0))
        basis = basis_for(spec, 3)
        grid = TimeGrid(1.0, 4)
        counts = np.array([[1], [0], [2], [0]])  # one jump in step 0, two in step 2
        dH = teugels_increments(counts, grid, spec, basis)
        assert dH[:, 0].tolist() == [0.75, -0.25, 1.75, -0.25]
        assert np.all(dH[:, 1:] == 0.0)

    def test_no_jump_step_is_pure_compensator(self):
        spec = spec_of((0.5, 2.0), (-1.5, 1.0))
        basis = basis_for(spec)
        grid = TimeGrid(1.0, 2)
        dH = teugels_increments(np.zeros((2, 2), dtype=np.int64), grid, spec, basis)
        # dY_k = -dt * m_k; check via power sums directly
        m1 = 2.0 * 0.5 - 1.0 * 1.5
        m2 = 2.0 * 0.25 + 1.0 * 2.25
        dY = np.array([-0.5 * m1, -0.5 * m2])
        expected = basis.coeffs[:2, :2] @ dY
        assert dH[0, :2] == pytest.approx(expected.tolist(), abs=1e-14)

    def test_counts_record_and_path_agree(self):
        # the drift in dL cancels against the drift in E[L_1], so the
        # path-based and count-based order-1 increments must match; the
        # 2d counts of one path are its jump record
        spec = spec_of((0.5, 2.0), (-0.25, 3.0), drift=0.8)
        basis = basis_for(spec)
        grid = TimeGrid(2.0, 8)
        rng = derived_rng(5, 0)
        counts = simulate_jump_counts(spec, grid, rng, 1)
        L = assemble_levy_paths(spec, grid, counts)
        dh_counts = teugels_increments(counts[0], grid, spec, basis)
        dh_path = teugels_increments(counts, grid, spec, basis, levy_path=L)[0]
        assert np.allclose(dh_counts, dh_path, atol=1e-12)

    def test_rank_mismatch(self):
        spec = spec_of((0.5, 2.0))
        basis = basis_for(spec)
        grid = TimeGrid(1.0, 2)
        with pytest.raises(RankMismatch):
            teugels_increments(np.zeros((2, 3), dtype=np.int64), grid, spec, basis)

    def test_degenerate_components_bitwise_zero(self):
        spec = spec_of((1.0, 1.0))
        basis = basis_for(spec, 4)
        grid = TimeGrid(1.0, 16)
        rng = derived_rng(9, 0)
        counts = simulate_jump_counts(spec, grid, rng, 256)
        dH = teugels_increments(counts, grid, spec, basis)
        assert dH.shape == (256, 16, 4)
        assert np.all(dH[:, :, 1:] == 0.0)

    def test_continuous_part_requires_path(self):
        spec = spec_of((1.0, 1.0), sigma=0.5)
        basis = basis_for(spec)
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            teugels_increments(np.zeros((4, 1), dtype=np.int64), grid, spec, basis)


def test_ensemble_increments_match_per_path_and_power_sum_reference():
    # three atoms, so the rank-3 basis uses power sums up to order 3; 300
    # paths span more than one block of the step-major sums
    spec = spec_of((0.5, 2.0), (-0.25, 3.0), (1.5, 0.5), drift=0.8)
    basis = basis_for(spec, 5)
    assert basis.rank == 3
    grid = TimeGrid(2.0, 12)
    counts = simulate_jump_counts(spec, grid, derived_rng(12, 0), 300)
    dH = teugels_increments(counts, grid, spec, basis)
    assert dH.shape == (300, 12, 5)
    assert dH.transpose(1, 2, 0).flags.c_contiguous

    per_path = np.stack([teugels_increments(counts[p], grid, spec, basis) for p in range(300)])
    np.testing.assert_allclose(dH, per_path, rtol=0.0, atol=1e-14)

    # reference: power sums as one matmul per order, basis applied path-major
    moments = levy_moments(spec, 3)
    beta = spec.jump_sizes
    dY = np.stack(
        [counts @ beta**k - grid.dt * moments.raw_moments[k] for k in range(1, 4)], axis=-1
    )
    np.testing.assert_allclose(dH[:, :, :3], dY @ basis.coeffs[:3, :3].T, rtol=0.0, atol=1e-14)
    assert np.all(dH[:, :, 3:] == 0.0)


def test_empirical_strong_orthonormality_and_zero_mean():
    # moderate-size version of the martingale moment checks
    spec = spec_of((0.3, 2.0), (-0.2, 1.0), drift=0.4)
    basis = basis_for(spec)
    grid = TimeGrid(1.0, 32)
    n_paths = 20000
    rng = derived_rng(31, 0)
    counts = simulate_jump_counts(spec, grid, rng, n_paths)
    L = assemble_levy_paths(spec, grid, counts, rng)
    dH = teugels_increments(counts, grid, spec, basis, levy_path=L)
    H_T = dH.sum(axis=1)
    for i in range(basis.rank):
        se = np.std(H_T[:, i], ddof=1) / math.sqrt(n_paths)
        assert abs(np.mean(H_T[:, i])) <= 4.0 * se
        for j in range(i, basis.rank):
            prod = H_T[:, i] * H_T[:, j]
            target = grid.horizon if i == j else 0.0
            se = np.std(prod, ddof=1) / math.sqrt(n_paths)
            assert abs(np.mean(prod) - target) <= 4.0 * se


def test_empirical_orthonormality_with_continuous_part():
    # sigma > 0 adds one basis row; degeneracy starts at m_atoms + 2
    spec = spec_of((1.0, 0.8), sigma=0.6)
    basis = basis_for(spec, 4)
    assert basis.rank == 2
    grid = TimeGrid(1.0, 32)
    n_paths = 20000
    rng = derived_rng(77, 0)
    counts = simulate_jump_counts(spec, grid, rng, n_paths)
    L = assemble_levy_paths(spec, grid, counts, rng)
    dH = teugels_increments(counts, grid, spec, basis, levy_path=L)
    assert np.all(dH[:, :, 2:] == 0.0)
    H_T = dH.sum(axis=1)
    for i in range(2):
        for j in range(i, 2):
            prod = H_T[:, i] * H_T[:, j]
            target = 1.0 if i == j else 0.0
            se = np.std(prod, ddof=1) / math.sqrt(n_paths)
            assert abs(np.mean(prod) - target) <= 4.0 * se
