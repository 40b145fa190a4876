import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab.config import DEFAULTS
from levylab.errors import RankMismatch, SingularRegressionWarning
from levylab.levy import LevySpec
from levylab.paths import TimeGrid, derived_rng, simulate_brownian, simulate_jump_counts
from levylab.pdie import JumpOperator, component_functionals
from levylab.solver import solve_penalized
from levylab.suites import terminal_martingales
from levylab.teugels import basis_for, teugels_increments
from teugels_reference import gram_schmidt_coeffs, mu_atoms, p_values, power_sum_increments, qr_basis_reference


def spec_of(*atoms, sigma=0.0, drift=0.0):
    return LevySpec(drift_b=drift, sigma=sigma, atoms=tuple(atoms))


class TestBuildMu:
    # basis_for's mu = x^2 nu + sigma^2 delta_0, read through the rank-1
    # basis: one atom of weight w at y gives q_0 = 1 / sqrt(w), so
    # p_1(y) = y / sqrt(w)
    def test_poisson_mass_at_one(self):
        basis = basis_for(spec_of((1.0, 1.0)))
        assert basis.jump_weights.tolist() == [[1.0]]
        assert basis.q_zero.tolist() == [0.0]

    def test_pure_brownian_mass_at_zero(self):
        basis = basis_for(LevySpec(sigma=1.0))
        assert basis.rank == 1
        assert basis.jump_weights.shape == (1, 0)
        assert basis.q_zero.tolist() == [1.0]

    def test_weight_is_alpha_beta_squared(self):
        basis = basis_for(spec_of((2.0, 3.0)))
        assert basis.jump_weights.tolist() == [[2.0 / math.sqrt(12.0)]]


class TestOrthonormalBasis:
    def test_poisson_basis_is_one_unit_weight(self):
        # unit mu mass at 1: q_0 = 1, so p_1(1) = 1, and there is no
        # continuous part for q_0(0) to weigh
        spec = spec_of((1.0, 1.0))
        basis = basis_for(spec)
        assert basis.rank == 1
        assert basis.jump_weights.tolist() == [[1.0]]
        assert basis.q_zero.tolist() == [0.0]
        assert basis.gram_defect(spec) == 0.0

    def test_symmetric_two_atoms(self):
        # by hand: <x, 1>_mu = 0 and |x|_mu = 1, so q0 = 1 and q1 = x, and
        # the jump weights y q_i(y) at y = 1, -1 are (1, -1) and (1, 1)
        basis = basis_for(spec_of((1.0, 0.5), (-1.0, 0.5)))
        assert basis.rank == 2
        np.testing.assert_allclose(basis.jump_weights, [[1.0, -1.0], [1.0, 1.0]], rtol=0.0, atol=1e-15)

    def test_leading_coefficients_positive(self):
        # with as many rows as atoms, q_i at the atoms fixes its monomial
        # coefficients through the Vandermonde matrix
        spec = spec_of((0.5, 1.0), (1.5, 0.8), (-0.75, 1.2))
        basis = basis_for(spec)
        beta = spec.jump_sizes
        coeffs = np.linalg.solve(np.vander(beta, 3, increasing=True), (basis.jump_weights / beta).T)
        for i in range(basis.rank):
            assert coeffs[i, i] > 0.0
            assert np.all(np.abs(coeffs[i + 1 :, i]) < 1e-12)  # degree i

    def test_jump_free_driver_has_the_rank_zero_basis(self):
        spec = LevySpec(drift_b=0.4)
        basis = basis_for(spec)
        assert basis.rank == 0
        assert basis.jump_weights.shape == (0, 0)
        assert basis.q_zero.shape == (0,)
        assert basis.gram_defect(spec) == 0.0


@st.composite
def measures(draw):
    slots = draw(
        st.lists(st.integers(min_value=-8, max_value=8).filter(lambda v: v != 0),
                 min_size=1, max_size=5, unique=True)
    )
    atoms = tuple((s / 2.0, draw(st.floats(0.1, 5.0))) for s in slots)
    sigma = draw(st.sampled_from([0.0, 0.0, 0.7]))
    return LevySpec(sigma=sigma, atoms=atoms)


@given(measures())
@settings(max_examples=60, deadline=None)
def test_orthonormality_and_rank_properties(spec):
    basis = basis_for(spec)
    assert basis.rank == spec.m_atoms + spec.continuous_part
    assert basis.jump_weights.shape == (basis.rank, spec.m_atoms)
    assert basis.q_zero.shape == (basis.rank,)
    assert basis.gram_defect(spec) < 1e-14


@given(measures())
@settings(max_examples=60, deadline=None)
def test_basis_is_the_qr_reference_bit_for_bit(spec):
    basis = basis_for(spec)
    reference = qr_basis_reference(spec)
    assert np.array_equal(basis.jump_weights, reference.jump_weights)
    assert np.array_equal(basis.q_zero, reference.q_zero)


@pytest.mark.parametrize("n_atoms", [12, 16, 20, 24])
def test_many_atom_basis_is_full_rank_and_orthonormal(n_atoms):
    # Gram-Schmidt on the monomials lost two live rows at 16 such atoms and
    # its Gram defect grew to 1e-9; the QR basis keeps both at rounding
    spec = LevySpec(atoms=tuple((float(b), 0.5) for b in np.linspace(-1.5, 2.5, n_atoms)))
    basis = basis_for(spec)
    assert basis.rank == n_atoms
    assert basis.gram_defect(spec) <= 1e-15


@pytest.mark.parametrize(
    "spec",
    [
        spec_of((0.3, 2.0), (-0.2, 1.0), drift=0.4),
        spec_of((0.3, 2.0), (-0.2, 1.0), sigma=0.4),
        spec_of((0.3, 2.0), (-0.2, 1.0), (1.5, 0.5), drift=-0.3),
        spec_of((0.5, 1.0), (1.5, 0.8), (-0.75, 1.2)),
    ],
    ids=["two-atom", "sigma", "three-atom-drift", "three-atom"],
)
def test_weights_match_the_gram_schmidt_reference(spec):
    basis = basis_for(spec)
    coeffs, rank = gram_schmidt_coeffs(spec, 5)
    assert basis.rank == rank
    expected = p_values(coeffs, spec.jump_sizes)[:rank]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(basis.jump_weights - expected)) <= 1e-14 * scale
    if spec.continuous_part:
        q0 = coeffs[:rank, 0]  # q_i(0) is the constant coefficient
        assert np.max(np.abs(basis.q_zero - q0)) <= 1e-14 * np.max(np.abs(q0))


class TestIncrements:
    def test_poisson_increments_are_compensated_counts(self):
        # c_{1,1} = 1 under unit mu mass, so dH1 = dN - dt exactly
        spec = spec_of((1.0, 1.0))
        basis = basis_for(spec)
        grid = TimeGrid(1.0, 4)
        counts = np.array([[[1], [0], [2], [0]]])  # one jump in step 0, two in step 2
        dH = teugels_increments(counts, grid, spec, basis)[0]
        assert dH.tolist() == [[0.75], [-0.25], [1.75], [-0.25]]

    def test_simulated_poisson_increments_are_compensated_counts(self):
        # one atom, one column: dH = 1.0 * (dN - dt) bit for bit
        spec = spec_of((1.0, 1.0))
        grid = TimeGrid(1.0, 16)
        counts = simulate_jump_counts(spec, grid, derived_rng(9, 0), 256)
        dH = teugels_increments(counts, grid, spec, basis_for(spec))
        assert dH.shape == (256, 16, 1)
        assert np.array_equal(dH[:, :, 0], counts[:, :, 0] - grid.dt)

    def test_no_jump_step_is_pure_compensator(self):
        spec = spec_of((0.5, 2.0), (-1.5, 1.0))
        basis = basis_for(spec)
        grid = TimeGrid(1.0, 2)
        dH = teugels_increments(np.zeros((1, 2, 2), dtype=np.int64), grid, spec, basis)[0]
        # dY_k = -dt * m_k; check via power sums and the monomial coefficients
        m1 = 2.0 * 0.5 - 1.0 * 1.5
        m2 = 2.0 * 0.25 + 1.0 * 2.25
        dY = np.array([-0.5 * m1, -0.5 * m2])
        expected = gram_schmidt_coeffs(spec, 2)[0] @ dY
        assert dH[0, :2] == pytest.approx(expected.tolist(), abs=1e-14)

    def test_counts_record_and_path_agree(self):
        # without a continuous part the Brownian path W is not read, so
        # the increments from the counts alone and with any W are the same
        spec = spec_of((0.5, 2.0), (-0.25, 3.0), drift=0.8)
        basis = basis_for(spec)
        grid = TimeGrid(2.0, 8)
        counts = simulate_jump_counts(spec, grid, derived_rng(5, 0), 1)
        dh_counts = teugels_increments(counts, grid, spec, basis)
        dh_path = teugels_increments(counts, grid, spec, basis, W=np.full((1, 9), np.nan))
        assert np.any(counts) and np.array_equal(dh_counts, dh_path)

    def test_rank_mismatch(self):
        spec = spec_of((0.5, 2.0))
        basis = basis_for(spec)
        grid = TimeGrid(1.0, 2)
        with pytest.raises(RankMismatch):
            teugels_increments(np.zeros((1, 2, 3), dtype=np.int64), grid, spec, basis)

    def test_counts_of_one_path_need_the_path_axis(self):
        spec = spec_of((0.5, 2.0))
        with pytest.raises(ValueError, match=r"\[path, step, atom\]"):
            teugels_increments(np.zeros((2, 1), dtype=np.int64), TimeGrid(1.0, 2), spec, basis_for(spec))

    def test_continuous_part_requires_path(self):
        spec = spec_of((1.0, 1.0), sigma=0.5)
        basis = basis_for(spec)
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            teugels_increments(np.zeros((1, 4, 1), dtype=np.int64), grid, spec, basis)


def test_ensemble_increments_match_per_path_and_power_sum_reference():
    # three atoms, so the rank-3 basis matches power sums up to order 3
    spec = spec_of((0.5, 2.0), (-0.25, 3.0), (1.5, 0.5), drift=0.8)
    basis = basis_for(spec)
    assert basis.rank == 3
    grid = TimeGrid(2.0, 12)
    counts = simulate_jump_counts(spec, grid, derived_rng(12, 0), 300)
    dH = teugels_increments(counts, grid, spec, basis)
    assert dH.shape == (300, 12, 3)
    assert dH.transpose(1, 2, 0).flags.c_contiguous

    per_path = np.stack([teugels_increments(counts[p : p + 1], grid, spec, basis)[0] for p in range(300)])
    np.testing.assert_allclose(dH, per_path, rtol=0.0, atol=1e-14)

    # reference: power sums as one matmul per order, Gram-Schmidt
    # coefficients applied path-major
    reference = power_sum_increments(counts, grid, spec, basis.rank)
    atol = 1e-12 * max(1.0, float(np.max(np.abs(reference))))
    np.testing.assert_allclose(dH, reference, rtol=0.0, atol=atol)


def test_empirical_strong_orthonormality_and_zero_mean():
    # moderate-size version of the martingale moment checks
    spec = spec_of((0.3, 2.0), (-0.2, 1.0), drift=0.4)
    basis = basis_for(spec)
    grid = TimeGrid(1.0, 32)
    n_paths = 20000
    counts = simulate_jump_counts(spec, grid, derived_rng(31, 0), n_paths)
    dH = teugels_increments(counts, grid, spec, basis)
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
    # sigma > 0 adds one basis row, for mu's atom at 0
    spec = spec_of((1.0, 0.8), sigma=0.6)
    basis = basis_for(spec)
    assert basis.rank == 2
    grid = TimeGrid(1.0, 32)
    n_paths = 20000
    rng = derived_rng(77, 0)
    counts = simulate_jump_counts(spec, grid, rng, n_paths)
    W = simulate_brownian(grid, rng, n_paths)
    dH = teugels_increments(counts, grid, spec, basis, W=W)
    H_T = dH.sum(axis=1)
    for i in range(2):
        for j in range(i, 2):
            prod = H_T[:, i] * H_T[:, j]
            target = 1.0 if i == j else 0.0
            se = np.std(prod, ddof=1) / math.sqrt(n_paths)
            assert abs(np.mean(prod) - target) <= 4.0 * se


@pytest.mark.parametrize(
    "spec",
    [
        LevySpec(drift_b=0.4),
        spec_of((1.0, 1.0)),
        spec_of((0.3, 2.0), (-0.2, 1.0), (1.5, 0.5)),
        spec_of((0.3, 2.0), (-0.2, 1.0), sigma=0.4),
        LevySpec(sigma=0.5),
    ],
    ids=["jump-free", "one-atom", "three-atom", "sigma", "pure-brownian"],
)
def test_every_martingale_width_is_the_atom_count_of_mu(spec):
    # the basis, dH, the sweep's Z, the oracle's Z and H(T) share one width
    n_atoms = len(mu_atoms(spec)[0])
    cfg = replace(DEFAULTS, levy=spec, grid=TimeGrid(1.0, 10), n_paths=200, seed=3)
    basis = basis_for(spec)
    ens = cfg.build_ensemble()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularRegressionWarning)
        sol = solve_penalized(cfg.build_problem(), ens)
    assert basis.rank == ens.basis.rank == n_atoms
    assert ens.dH.shape[2] == sol.Z.shape[2] == n_atoms
    assert terminal_martingales(cfg, basis).shape[0] == n_atoms
    if not spec.continuous_part:
        x = np.linspace(-1.0, 1.0, 21)
        op = JumpOperator.build(x, spec, ens.sigma_x)
        assert op.p_at_beta.shape[1] == n_atoms
        assert component_functionals(x, np.ones_like(x), op)[1].shape == (21, n_atoms)
