import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab.config import DEFAULTS, load_config
from levylab.errors import InitialPointOutsideDomain, InvalidClock, LevyLabError
from levylab.levy import LevySpec
from levylab.paths import (
    STREAM_LEVY,
    ClockEvents,
    DriverNodes,
    TimeGrid,
    assemble_levy_paths,
    boundary_direction,
    derived_rng,
    simulate_brownian,
    simulate_ensemble,
    simulate_jump_counts,
    simulate_reflected_x,
    skorokhod_minimality_gap,
)
from levylab import suites
from levylab.suites import measure_orthonormality, terminal_martingales
from levylab.teugels import basis_for, step_increments, teugels_increments
from teugels_reference import mean_l1, power_sum_increments, stored_increments_reference

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TWO_ATOM = LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0)), drift_b=0.4)
SIGMA_X = DEFAULTS.build_sigma_x()  # the default config's sigma_x = 1


def reflect_one(sigma_x, theta, x0, L):
    """One path [node] through the ensemble reflection as [node, 1] rows."""
    X, clock = simulate_reflected_x(sigma_x, theta, x0, np.asarray(L, dtype=float)[:, None])
    return X[0], clock.dense()[0]


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    grid = TimeGrid(1.0, 4)
    assert grid.dt == 0.25
    assert grid.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestBrownian:
    def test_starts_at_zero_and_deterministic(self):
        grid = TimeGrid(1.0, 16)
        b1 = simulate_brownian(grid, derived_rng(3, 0))
        b2 = simulate_brownian(grid, derived_rng(3, 0))
        assert b1[0] == 0.0
        assert np.array_equal(b1, b2)

    def test_terminal_variance(self):
        grid = TimeGrid(2.0, 8)
        B = simulate_brownian(grid, derived_rng(4, 0), n_paths=40000)
        var = np.var(B[:, -1], ddof=1)
        se = 2.0 * math.sqrt(2.0 / (40000 - 1))  # sd of a variance estimate ~ var*sqrt(2/(n-1))
        assert abs(var - 2.0) <= 3.0 * se

    def test_single_step_variance_over_seeds(self):
        grid = TimeGrid(0.5, 1)
        n_seeds = 10000
        draws = np.array([simulate_brownian(grid, derived_rng(s, 0))[-1] for s in range(n_seeds)])
        var = np.var(draws, ddof=1)
        se = 0.5 * math.sqrt(2.0 / (n_seeds - 1))
        assert abs(var - 0.5) <= 3.0 * se


class TestLevy:
    def test_no_atoms_is_pure_drift(self):
        spec = LevySpec(drift_b=0.7)
        grid = TimeGrid(2.0, 8)
        rng = derived_rng(5, 0)
        counts = simulate_jump_counts(spec, grid, rng, 1)
        assert counts.shape == (1, 8, 0)
        L = assemble_levy_paths(spec, grid, counts)[0]
        assert np.allclose(L, 0.7 * grid.nodes, atol=1e-15)

    def test_brownian_path_given_exactly_with_a_continuous_part(self):
        # L without W would drop sigma W with no error, and a W of a pure-jump
        # driver has nowhere to go
        grid = TimeGrid(1.0, 4)
        counts = np.zeros((3, 4, 2), dtype=np.uint8)
        W = simulate_brownian(grid, derived_rng(5, 0), 3)
        with pytest.raises(ValueError, match="given exactly when sigma > 0"):
            assemble_levy_paths(replace(TWO_ATOM, sigma=0.3), grid, counts)
        with pytest.raises(ValueError, match="given exactly when sigma > 0"):
            assemble_levy_paths(TWO_ATOM, grid, counts, W)

    def test_poisson_count_mean(self):
        spec = LevySpec(atoms=((1.0, 1.0),))
        grid = TimeGrid(1.0, 10)
        counts = simulate_jump_counts(spec, grid, derived_rng(6, 0), 100000)
        totals = counts.sum(axis=(1, 2))
        assert abs(np.mean(totals) - 1.0) <= 4.0 * math.sqrt(1.0 / 100000)

    def test_counts_are_independent_poisson_per_step(self):
        # given a Poisson(alpha T) total with uniform jump times, every cell
        # is Poisson(alpha dt), independent across steps; each check is
        # within 4 standard errors of the exact value
        grid = TimeGrid(1.0, 10)
        n_paths = 20000
        counts = simulate_jump_counts(TWO_ATOM, grid, derived_rng(15, 0), n_paths)
        for a, (_, alpha) in enumerate(TWO_ATOM.atoms):
            c = counts[:, :, a].astype(float)  # [path, step]
            lam = alpha * grid.dt
            mean_se = math.sqrt(lam / n_paths)
            var_se = math.sqrt((lam + 2.0 * lam**2) / n_paths)  # Poisson mu_4 - sigma^4
            assert np.all(np.abs(c.mean(axis=0) - lam) <= 4.0 * mean_se), c.mean(axis=0)
            assert np.all(np.abs(c.var(axis=0, ddof=1) - lam) <= 4.0 * var_se), c.var(axis=0)
            # per-path mean lag-1 product of centred counts: i.i.d. over paths
            lag = ((c[:, :-1] - lam) * (c[:, 1:] - lam)).mean(axis=1)
            assert abs(lag.mean()) <= 4.0 * lag.std(ddof=1) / math.sqrt(n_paths), lag.mean()
            totals = c.sum(axis=1)
            total = alpha * grid.horizon
            assert abs(totals.mean() - total) <= 4.0 * math.sqrt(total / n_paths)
            total_var_se = math.sqrt((total + 2.0 * total**2) / n_paths)
            assert abs(totals.var(ddof=1) - total) <= 4.0 * total_var_se

    def test_terminal_mean_matches_moment_table(self):
        grid = TimeGrid(1.0, 20)
        rng = derived_rng(7, 0)
        counts = simulate_jump_counts(TWO_ATOM, grid, rng, 50000)
        L = assemble_levy_paths(TWO_ATOM, grid, counts)
        se = np.std(L[:, -1], ddof=1) / math.sqrt(50000)
        assert abs(np.mean(L[:, -1]) - mean_l1(TWO_ATOM) * grid.horizon) <= 4.0 * se

    def test_jump_record_reconstructs_path(self):
        # every jump of the count array, added one at a time, plus the drift
        grid = TimeGrid(1.0, 16)
        rng = derived_rng(8, 0)
        counts = simulate_jump_counts(TWO_ATOM, grid, rng, 1)
        L = assemble_levy_paths(TWO_ATOM, grid, counts)[0]
        assert counts.sum() > 0
        rebuilt = np.zeros(17)
        for step, atom in zip(*np.nonzero(counts[0])):
            for _ in range(counts[0, step, atom]):
                rebuilt[step + 1 :] += TWO_ATOM.jump_sizes[atom]
        rebuilt += TWO_ATOM.drift_b * grid.nodes
        assert np.allclose(L, rebuilt, atol=1e-12)


# Test-only references: path-major int64 counts binned one path at a time,
# every step's sums formed at once, and the orthonormality measurement from
# a stored dH.  The node-major counts and L, which scatter the jumps and
# walk the steps one at a time, must match them bit for bit.  dH, from the
# per-atom weights and compensated counts, matches the power-sum reference
# (Gram-Schmidt coefficients, see teugels_reference.py) to rounding, and so
# does the closed-form H(T) of the measurement.


def simulate_jump_counts_reference(spec, grid, rng, n_paths):
    """[path, step, atom] int64 counts from the same ``poisson`` and
    ``integers`` draws, each path's slice of steps binned by ``bincount``."""
    n = grid.n_steps
    counts = np.zeros((n_paths, n, spec.m_atoms), dtype=np.int64)
    for a in range(spec.m_atoms):
        totals = rng.poisson(spec.atoms[a][1] * grid.horizon, size=n_paths)
        steps = rng.integers(0, n, size=totals.sum())
        ends = np.cumsum(totals)
        for p in range(n_paths):
            counts[p, :, a] = np.bincount(steps[ends[p] - totals[p] : ends[p]], minlength=n)
    return counts


def step_jump_sums_reference(counts, weights, block=256):
    """Every step's ``counts @ weights`` as [step, path] or [step, K, path]."""
    n_paths, n_steps = counts.shape[:2]
    out = np.empty((n_steps,) + weights.shape[1:] + (n_paths,))
    for start in range(0, n_paths, block):
        out[..., start : start + block] = np.moveaxis(counts[start : start + block] @ weights, 0, -1)
    return out


def brownian_reference(grid, rng, n_paths):
    """[path, node] Brownian paths, path-major: the increments drawn whole,
    then summed along each path."""
    inc = rng.normal(0.0, np.sqrt(grid.dt), size=(n_paths, grid.n_steps))
    out = np.zeros((n_paths, grid.n_steps + 1))
    out[:, 1:] = np.cumsum(inc, axis=-1)
    return out


def assemble_levy_paths_reference(spec, grid, counts, rng):
    """[path, node] driver paths; with a continuous part, its Brownian path
    is drawn from ``rng`` after the counts."""
    L = np.zeros((grid.n_steps + 1, counts.shape[0]))
    np.cumsum(step_jump_sums_reference(counts, spec.jump_sizes), axis=0, out=L[1:])
    L += spec.drift_b * grid.nodes[:, None]
    if spec.continuous_part:
        L += spec.sigma * brownian_reference(grid, rng, counts.shape[0]).T
    return L.T


def measure_orthonormality_reference(cfg, basis, dH):
    """The measured values from a stored [path, step, m] dH: H(T) as its
    step sum, and the standardized moments."""
    spec = cfg.build_levy()
    H_T = dH.sum(axis=1)  # [paths, m]
    T = cfg.grid.horizon
    prod_dev = 0.0
    mean_dev = 0.0
    for i in range(basis.rank):
        mean_i = float(np.mean(H_T[:, i]))
        se_i = float(np.std(H_T[:, i], ddof=1) / math.sqrt(cfg.n_paths))
        mean_dev = max(mean_dev, abs(mean_i) / se_i)
        for j in range(i, basis.rank):
            prod = H_T[:, i] * H_T[:, j]
            target = T if i == j else 0.0
            se = float(np.std(prod, ddof=1) / math.sqrt(cfg.n_paths))
            prod_dev = max(prod_dev, abs(float(np.mean(prod)) - target) / se)
    return {
        "gram_defect": basis.gram_defect(spec),
        "product_moment_stddevs": prod_dev,
        "mean_stddevs": mean_dev,
    }


def ensemble_drivers(test):
    """Parametrize ``test`` over three drivers, each at seeds 1 and 7."""
    drivers = pytest.mark.parametrize(
        "spec, sigma_x",
        [
            (TWO_ATOM, SIGMA_X),
            # with a drift, which sigma dW must not pick up
            (LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0)), sigma=0.4, drift_b=0.4), lambda x: 1.0 + 0.2 * x),
            (LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0), (1.5, 0.5)), drift_b=-0.3), SIGMA_X),
        ],
        ids=["two-atom", "sigma-affine", "three-atom-drift"],
    )
    return pytest.mark.parametrize("seed", [1, 7])(drivers(test))


class TestCompactCounts:
    """Node-major compact counts and L built one step at a time, against
    the path-major int64 references bit for bit; dH and the orthonormality
    measurement's closed-form H(T) against the power-sum reference to
    rounding."""

    @pytest.mark.parametrize(
        "spec, grid, n_paths, dtype",
        [
            # rare jumps, so many paths have a total of 0 for one atom and
            # some for both
            (
                LevySpec(atoms=((0.3, 0.5), (-0.2, 0.2)), drift_b=0.4),
                TimeGrid(1.0, 20),
                2000,
                np.uint8,
            ),
            # a step holds about 400 jumps of the second atom, so the first
            # atom's counts are copied into a wider array before the
            # second's are written; two steps, because on a one-step grid
            # the reference's product is a BLAS dot, which may round the
            # last bit differently.  The continuous part draws its Brownian
            # path from the counts' stream after them.
            (
                LevySpec(atoms=((-0.03, 2.0), (0.01, 400.0)), sigma=0.2),
                TimeGrid(2.0, 2),
                300,
                np.uint16,
            ),
            # the shipped orthonormality driver
            (TWO_ATOM, TimeGrid(1.0, 20), 2000, np.uint8),
            # three atoms and a slope between jumps
            (
                LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0), (1.5, 0.5)), drift_b=-0.3),
                TimeGrid(0.5, 16),
                1000,
                np.uint8,
            ),
            # no atoms: rank 1, and H(T) is the Brownian part alone
            (LevySpec(sigma=0.3), TimeGrid(1.0, 20), 1000, np.uint8),
        ],
        ids=["empty-paths", "widened", "shipped", "three-atom-drift", "brownian-only"],
    )
    def test_counts_L_and_dH_match_the_path_major_references(self, spec, grid, n_paths, dtype, monkeypatch):
        cfg = replace(DEFAULTS, levy=spec, grid=grid, n_paths=n_paths, seed=17)
        basis = basis_for(spec)  # as the measurement asks
        rng, rng_ref = derived_rng(17, 0, STREAM_LEVY), derived_rng(17, 0, STREAM_LEVY)
        counts = simulate_jump_counts(spec, grid, rng, n_paths)
        ref = simulate_jump_counts_reference(spec, grid, rng_ref, n_paths)
        assert np.any(ref.sum(axis=(1, 2)) == 0) or ref.max() > 255
        assert counts.dtype == dtype
        assert counts.shape == ref.shape and counts.transpose(1, 2, 0).flags.c_contiguous
        assert np.array_equal(counts, ref)

        W = simulate_brownian(grid, rng, n_paths) if spec.continuous_part else None
        L = assemble_levy_paths(spec, grid, counts, W)
        L_ref = assemble_levy_paths_reference(spec, grid, ref, rng_ref)
        assert np.array_equal(L, L_ref)
        dH = teugels_increments(counts, grid, spec, basis, W=W)
        dH_ref = power_sum_increments(ref, grid, spec, basis.rank, L_ref)
        dH_atol = 1e-12 * max(1.0, float(np.abs(dH_ref).max()))
        assert np.max(np.abs(dH - dH_ref)) <= dH_atol
        assert np.any(dH != 0.0)

        # the measurement draws the same stream and evaluates H(T) from the
        # per-atom totals, with its Brownian draw in one block and in several
        # blocks with a ragged last; the adds differ from the step sum's, so
        # they agree to rounding
        H_ref = dH_ref.sum(axis=1).T
        atol = 1e-12 * max(1.0, float(np.abs(H_ref).max()))
        expected = measure_orthonormality_reference(cfg, basis, dH_ref)
        for block in (suites.PATH_BLOCK, 128):
            monkeypatch.setattr(suites, "PATH_BLOCK", block)
            H_T = terminal_martingales(cfg, basis)
            assert H_T.shape == H_ref.shape
            assert np.max(np.abs(H_T - H_ref)) <= atol
            assert measure_orthonormality(cfg) == pytest.approx(expected, rel=0, abs=1e-12)

        if not spec.continuous_part:
            dH = teugels_increments(counts, grid, spec, basis)
            assert np.max(np.abs(dH - power_sum_increments(ref, grid, spec, basis.rank))) <= dH_atol

    @ensemble_drivers
    def test_ensemble_dH_matches_the_power_sum_reference(self, spec, sigma_x, seed):
        # dH from the per-atom weights and compensated counts, plus q(0) sigma
        # dW from the path, against the Gram-Schmidt power sums with
        # dL - dt E[L_1] as the order-1 sum
        grid = TimeGrid(1.0, 50)
        basis = basis_for(spec)
        ens = simulate_ensemble(spec, grid, 2000, seed, theta=1.0, x0=0.0, sigma_x=sigma_x)
        ref = power_sum_increments(ens.jump_counts, grid, spec, basis.rank, levy_path=ens.L)
        atol = 1e-12 * max(1.0, float(np.abs(ref).max()))
        assert np.max(np.abs(ens.dH - ref)) <= atol

    @ensemble_drivers
    def test_ensemble_dH_is_the_step_kernel_bit_for_bit(self, spec, sigma_x, seed):
        # the derived dH and the sweep's per-step rows against the array
        # as it was stored: every step's P (n_k - alpha dt), then one pass
        # adding q(0) sigma (W_{k+1} - W_k) from the drawn W
        grid = TimeGrid(1.0, 50)
        basis = basis_for(spec)
        ens = simulate_ensemble(spec, grid, 2000, seed, theta=1.0, x0=0.0, sigma_x=sigma_x)
        assert (ens.W is not None) == spec.continuous_part
        ref = stored_increments_reference(ens.jump_counts, grid, spec, basis, W=ens.W)
        dH = ens.dH
        assert np.array_equal(dH, ref)
        assert np.any(dH != 0.0)
        counts = ens.jump_counts.transpose(1, 2, 0)
        W = None if ens.W is None else ens.W.T
        row = np.empty((basis.rank, ens.n_paths))
        for k in range(grid.n_steps):
            step_increments(counts, W, k, grid.dt, spec, basis, row)
            assert np.array_equal(row, ref[:, k].T), k

    @pytest.mark.parametrize("seed", [1, 7])
    def test_continuous_driver_L_and_X_are_the_stored_path_ones(self, seed):
        # with sigma > 0 the ensemble stores W, not L: L, derived on read,
        # and the reflected state are those of the whole path-major driver
        # drawn from the same stream, bit for bit
        spec = LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0)), sigma=0.3, drift_b=0.4)
        grid, n_paths, sigma_x = TimeGrid(1.0, 50), 500, lambda x: 1.0 + 0.2 * x
        ens = simulate_ensemble(spec, grid, n_paths, seed, theta=1.0, x0=0.0, sigma_x=sigma_x)
        assert "L" not in vars(ens) and ens.W.T.flags.c_contiguous
        rng_ref = derived_rng(seed, 0, STREAM_LEVY)
        counts_ref = simulate_jump_counts_reference(spec, grid, rng_ref, n_paths)
        L_ref = assemble_levy_paths_reference(spec, grid, counts_ref, rng_ref)
        assert np.array_equal(ens.L, L_ref)
        X_ref, clock_ref = simulate_reflected_x(sigma_x, 1.0, 0.0, L_ref.T)
        assert np.array_equal(ens.X, X_ref) and np.array_equal(ens.eta_abs, clock_ref.dense())
        assert np.any(ens.eta_abs[:, -1] > 0.0)

    @pytest.mark.parametrize(
        "spec", [replace(TWO_ATOM, drift_b=0.0), TWO_ATOM, replace(TWO_ATOM, sigma=0.3)],
        ids=["idle", "drift", "sigma"],
    )
    def test_ensemble_stores_X_the_counts_W_and_the_clock_record(self, spec):
        # what is stored is X, the counts, W when sigma > 0, B and the
        # clock's growth events, under a tenth of the [node, path] cells;
        # neither L, dH nor a dense clock is stored, and the peak is the
        # stored arrays plus 11-16 rows: W's increments are freed before X
        # is allocated.  A stored L or dense clock would add 51 rows, a
        # stored dH n_steps * rank = 100 (150 with sigma)
        grid = TimeGrid(1.0, 50)
        n_paths = 10_000
        tracemalloc.start()
        try:
            ens = simulate_ensemble(spec, grid, n_paths, 1, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        clock = ens.clock
        assert set(vars(ens)) == {"grid", "spec", "theta", "x0", "sigma_x", "B", "W", "jump_counts", "X", "clock"}
        assert (ens.W is not None) == spec.continuous_part
        node_path = [a for a in (ens.X, ens.W) if a is not None]
        assert all(a.shape == (n_paths, grid.n_steps + 1) and a.T.flags.c_contiguous for a in node_path)
        assert ens.jump_counts.dtype == np.uint8
        events = clock.paths.shape[0]
        assert 0 < events < 0.1 * n_paths * grid.n_steps
        assert clock.offsets.shape == (grid.n_steps + 1,)
        assert clock.before.shape == clock.after.shape == (events,)
        stored = [ens.B, ens.jump_counts, *node_path, clock.offsets, clock.paths, clock.before, clock.after]
        returned = sum(a.nbytes for a in stored)
        row = n_paths * np.dtype(float).itemsize
        assert peak <= returned + 25 * row, (peak - returned) / row

    def test_rank_zero_driver_has_zero_martingales(self):
        spec = LevySpec()  # no atoms and no continuous part
        cfg = replace(DEFAULTS, levy=spec, grid=TimeGrid(1.0, 8), n_paths=100, seed=3)
        basis = basis_for(spec)
        assert basis.rank == 0
        assert terminal_martingales(cfg, basis).shape == (0, 100)

    def test_mean_gate_fails_when_compensated_over_one_step(self, monkeypatch):
        # compensating the horizon totals by alpha * dt instead of alpha * T
        # leaves H_i(T) a mean of sum_l p_i(beta_l) alpha_l (T - dt)
        cfg = replace(DEFAULTS, levy=TWO_ATOM, grid=TimeGrid(1.0, 20), n_paths=2000, seed=17)
        assert all(r.status == "pass" for r in suites.suite_checks("orthonormality", cfg))
        exact = suites.jump_martingales
        monkeypatch.setattr(
            suites, "jump_martingales",
            lambda counts, duration, spec, basis: exact(counts, cfg.grid.dt, spec, basis),
        )
        rows = {r.check: r for r in suites.suite_checks("orthonormality", cfg)}
        assert rows["mean_stddevs"].status == "fail", rows["mean_stddevs"].value

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gram_and_product_gates_fail_on_a_scaled_basis_row(self, monkeypatch, seed):
        # H_2 scaled by 1.05 has E[H_2(T)^2] = 1.1025 T: the Gram defect
        # reads 0.1025 and, at 20,000 paths, the product moment 6.7-8.4
        # standard errors (5,000 paths miss it at seed 2)
        cfg = replace(load_config(str(CONFIGS / "orthonormality.cfg")), grid=TimeGrid(1.0, 16),
                      n_paths=20_000, seed=seed)
        rows = {r.check: r for r in suites.suite_checks("orthonormality", cfg)}
        assert rows["gram_defect"].status == rows["product_moment_stddevs"].status == "pass"
        exact = suites.basis_for

        def scaled(spec):
            basis = exact(spec)
            row = np.ones(basis.rank)
            row[1] = 1.05
            return replace(basis, jump_weights=basis.jump_weights * row[:, None], q_zero=basis.q_zero * row)

        monkeypatch.setattr(suites, "basis_for", scaled)
        rows = {r.check: r for r in suites.suite_checks("orthonormality", cfg)}
        assert rows["gram_defect"].status == "fail", rows["gram_defect"].value
        assert rows["gram_defect"].value == pytest.approx(0.1025, rel=1e-12)
        assert rows["product_moment_stddevs"].status == "fail", rows["product_moment_stddevs"].value

    def test_orthonormality_measurement_stores_neither_L_nor_dH(self):
        # H(T) is evaluated from per-atom jump totals, so the peak is the
        # counts plus a fixed number of [atom, path] and [path] rows; a
        # stored L would add 65 rows and a stored dH 256
        n_paths = 20_000
        cfg = replace(DEFAULTS, levy=TWO_ATOM, grid=TimeGrid(1.0, 64), n_paths=n_paths, seed=1)
        counts = simulate_jump_counts(TWO_ATOM, cfg.grid, derived_rng(1, 0, STREAM_LEVY), n_paths)
        row = n_paths * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            measure_orthonormality(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counts.nbytes + 20 * row, (peak - counts.nbytes) / row


class TestReflected:
    def test_zero_coefficient_freezes_state(self):
        L = np.array([0.0, 1.0, -3.0, 2.0])
        X, eta = reflect_one(lambda x: np.zeros_like(x), 1.0, 0.4, L)
        assert np.all(X == 0.4)
        assert np.all(eta == 0.0)

    def test_one_step_clamp_by_hand(self):
        # proposal 0.9 + 0.4 = 1.3 clamps to 1.0 with local time 0.3
        X, eta = reflect_one(lambda x: np.ones_like(x), 1.0, 0.9, [0.0, 0.4])
        assert X.tolist() == [0.9, 1.0]
        assert eta[0] == 0.0
        assert eta[1] == pytest.approx(0.3, abs=1e-15)

    def test_interior_path_matches_unreflected_euler(self):
        rng = derived_rng(9, 0)
        L = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.01, 50))])
        X, eta = reflect_one(lambda x: np.ones_like(x), 10.0, 0.0, L)
        assert np.all(eta == 0.0)
        assert np.allclose(X, L, atol=1e-15)

    def test_initial_point_outside_domain(self):
        with pytest.raises(InitialPointOutsideDomain):
            simulate_reflected_x(lambda x: np.ones_like(x), 1.0, 1.5, np.zeros((1, 3)))


class TestAssembleA:
    def test_local_time_from_clamp(self):
        # no jumps and no continuous part: L = 0.4 t, so from x0 = 0.9 the
        # one step proposes 1.3, clamps to 1.0 and the clock takes 0.3
        spec = LevySpec(drift_b=0.4)
        ens = simulate_ensemble(spec, TimeGrid(1.0, 1), 1, 5, theta=1.0, x0=0.9, sigma_x=SIGMA_X)
        assert ens.X.tolist() == [[0.9, 1.0]]
        assert ens.A[0, 0] == 0.0
        assert ens.A[0, 1] == pytest.approx(0.3, abs=1e-15)

    def test_local_time_clock_is_derived_from_the_growth_events(self):
        # eta_abs and A are |eta|, rebuilt from the record on each read: node
        # k + 1 is node k with each event's path set to its value there
        ens = simulate_ensemble(TWO_ATOM, TimeGrid(1.0, 20), 50, 5, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
        eta, A = ens.eta_abs, ens.A
        assert eta is not A and np.array_equal(A, eta)
        assert eta.T.flags.c_contiguous and np.all(eta[:, 0] == 0.0)
        clock = ens.clock
        steps = clock.steps
        assert clock.paths.shape[0] > 0 and np.all(clock.after > clock.before)
        assert np.array_equal(eta[clock.paths, steps], clock.before)
        assert np.array_equal(eta[clock.paths, steps + 1], clock.after)
        grew = np.zeros((50, 20), dtype=bool)
        grew[clock.paths, steps] = True
        assert np.array_equal(grew, np.diff(eta, axis=1) > 0.0)
        # |eta| grows only where the step ends on a wall
        assert np.all(np.abs(ens.X[clock.paths, steps + 1]) == 1.0)


def reflect_dense_reference(sigma_x, theta, x0, L):
    """The reflection as it stepped every path and stored |eta| dense:
    one [2, node, path] block for X and |eta|, from the driver's node rows
    ``L`` [node, path]."""
    X, eta = np.empty((2,) + L.shape)
    X[0] = x0
    eta[0] = 0.0
    proposal = np.empty(L.shape[1])
    for k in range(L.shape[0] - 1):
        np.subtract(L[k + 1], L[k], out=proposal)
        proposal *= np.asarray(sigma_x(X[k]), dtype=float)
        proposal += X[k]
        np.clip(proposal, -theta, theta, out=X[k + 1])
        proposal -= X[k + 1]
        np.add(eta[k], np.abs(proposal, out=proposal), out=eta[k + 1])
    return X.T, eta.T


def example51_driver():
    cfg = load_config(str(CONFIGS / "example51.cfg"))
    return cfg.levy, cfg.build_sigma_x()


def example51_affine_driver():
    cfg = load_config(str(CONFIGS / "example51.cfg"))
    return cfg.levy, replace(cfg, sigma_x=("affine", 1.0, 0.3)).build_sigma_x()


def orthonormality_driver():
    return load_config(str(CONFIGS / "orthonormality.cfg")).levy, SIGMA_X


def continuous_affine_driver():
    cfg = replace(DEFAULTS, levy=replace(TWO_ATOM, sigma=0.3), sigma_x=("affine", 1.0, 0.3))
    return cfg.levy, cfg.build_sigma_x()


class TestClockEvents:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize(
        "driver", [example51_driver, example51_affine_driver, orthonormality_driver, continuous_affine_driver],
        ids=["example51-idle", "example51-idle-affine", "orthonormality-drift", "sigma-affine"],
    )
    def test_reflection_matches_the_dense_reference_bit_for_bit(self, driver, seed):
        spec, sigma_x = driver()
        grid, n_paths = TimeGrid(1.0, 100), 2000
        calls = []

        def counting(x):
            calls.append(x.shape[0])
            return sigma_x(x)

        ens = simulate_ensemble(spec, grid, n_paths, seed, theta=1.0, x0=0.0, sigma_x=counting)
        X_ref, eta_ref = reflect_dense_reference(sigma_x, 1.0, 0.0, ens.L.T)
        assert np.array_equal(ens.X, X_ref)
        assert np.array_equal(ens.eta_abs, eta_ref) and np.array_equal(ens.A, eta_ref)
        assert np.any(eta_ref[:, -1] > 0.0)
        expected = ClockEvents.from_dense(eta_ref)
        for field in ("offsets", "paths", "before", "after"):
            assert np.array_equal(getattr(ens.clock, field), getattr(expected, field)), field
        # an idle driver steps only the paths that jump in the step
        idle = DriverNodes(spec, grid, ens.jump_counts, ens.W).idle
        assert idle == (spec.drift_b == 0.0 and spec.sigma == 0.0)
        if idle:
            assert sum(calls) == np.count_nonzero(ens.jump_counts.any(axis=2))
        else:
            assert calls == [n_paths] * grid.n_steps
            with pytest.raises(ValueError, match="idle"):
                next(DriverNodes(spec, grid, ens.jump_counts, ens.W).jump_steps())

    def test_reflection_from_negative_zero_keeps_the_reference_signs(self):
        spec, sigma_x = example51_driver()
        ens = simulate_ensemble(spec, TimeGrid(1.0, 20), 200, 3, theta=1.0, x0=-0.0, sigma_x=sigma_x)
        X_ref, _ = reflect_dense_reference(sigma_x, 1.0, -0.0, ens.L.T)
        assert np.array_equal(np.signbit(ens.X), np.signbit(X_ref)) and np.array_equal(ens.X, X_ref)
        still = X_ref[:, 1] == 0.0  # -0.0 + 1.0 * 0.0 is +0.0
        assert np.signbit(X_ref[:, 0]).all() and still.any() and not np.signbit(X_ref[still, 1]).any()

    def test_dense_clock_round_trips(self):
        ens = simulate_ensemble(TWO_ATOM, TimeGrid(1.0, 30), 200, 3, theta=1.0, x0=0.5, sigma_x=SIGMA_X)
        nodes = ens.grid.nodes
        for clock in (ens.eta_abs, np.broadcast_to(nodes, ens.X.shape), np.zeros(ens.X.shape)):
            for layout in (clock, np.ascontiguousarray(clock)):
                record = ClockEvents.from_dense(layout)
                assert record.n_paths == 200 and record.n_steps == 30
                assert np.array_equal(record.dense(), clock)
        identity = ClockEvents.from_dense(np.broadcast_to(nodes, ens.X.shape))
        assert identity.paths.shape == (200 * 30,)
        paths, before, after = identity.step(4)
        assert np.array_equal(paths, np.arange(200))
        assert np.all(after - before == nodes[5] - nodes[4])

    def test_dense_clock_must_start_at_zero_and_increase(self):
        clock = np.broadcast_to(np.linspace(0.0, 1.0, 5), (3, 5)).copy()
        shifted = clock + 0.5
        with pytest.raises(InvalidClock, match="start at 0"):
            ClockEvents.from_dense(shifted)
        assert issubclass(InvalidClock, LevyLabError)
        clock[1, 3] = 0.1
        with pytest.raises(InvalidClock, match="nondecreasing"):
            ClockEvents.from_dense(clock)


class TestNodeMajorReflection:
    """The vectorized clamp loop against a plain per-path scalar loop."""

    @staticmethod
    def scalar_reference(sigma, theta, x0, L):
        X = [x0]
        eta = [0.0]
        for k in range(len(L) - 1):
            proposal = X[-1] + sigma(X[-1]) * (L[k + 1] - L[k])
            clamped = min(max(proposal, -theta), theta)
            X.append(clamped)
            eta.append(eta[-1] + abs(proposal - clamped))
        return X, eta

    def test_ensemble_matches_scalar_euler_and_clamp_bit_for_bit(self):
        theta, x0 = 0.8, 0.3
        L = np.cumsum(derived_rng(14, 0).normal(0.0, 0.4, size=(7, 31)), axis=1)
        L[:, 0] = 0.0
        sigma = lambda x: 1.0 + 0.3 * np.asarray(x, dtype=float)
        X, clock = simulate_reflected_x(sigma, theta, x0, L.T)
        eta = clock.dense()
        assert X.shape == eta.shape == (7, 31)
        assert X.T.flags.c_contiguous and eta.T.flags.c_contiguous
        assert np.any(eta[:, -1] > 0.0)  # the clamp is exercised
        for p in range(7):
            X_ref, eta_ref = self.scalar_reference(lambda x: 1.0 + 0.3 * x, theta, x0, L[p].tolist())
            assert X[p].tolist() == X_ref
            assert eta[p].tolist() == eta_ref

    def test_single_path_matches_scalar_euler(self):
        L = np.array([[0.0, 0.5, 1.4, -0.3, -2.0]])
        X, clock = simulate_reflected_x(lambda x: np.ones_like(x), 1.0, 0.2, L.T)
        eta = clock.dense()
        assert X.shape == eta.shape == (1, 5)
        X_ref, eta_ref = self.scalar_reference(lambda x: 1.0, 1.0, 0.2, L[0].tolist())
        assert X[0].tolist() == X_ref and eta[0].tolist() == eta_ref


@st.composite
def jump_paths(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    incs = draw(
        st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=n, max_size=n)
    )
    x0 = draw(st.floats(-1.0, 1.0, allow_nan=False))
    return x0, np.concatenate([[0.0], np.cumsum(incs)])


@given(jump_paths())
@settings(max_examples=80, deadline=None)
def test_containment_and_local_time_support(case):
    x0, L = case
    theta = 1.0
    X, eta = reflect_one(lambda x: np.ones_like(x), theta, x0, L)
    assert np.all(np.abs(X) <= theta)
    d_eta = np.diff(eta)
    assert np.all(d_eta >= 0.0)
    pushed = d_eta > 0.0
    assert np.all(np.abs(X[1:][pushed]) == theta)


@given(jump_paths(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_skorokhod_variational_inequality(case, vseed):
    x0, L = case
    theta = 1.0
    X, eta = reflect_one(lambda x: np.ones_like(x), theta, x0, L)
    V = derived_rng(vseed, 0).uniform(-theta, theta, size=X.shape)
    assert skorokhod_minimality_gap(X, V, eta, theta) >= 0.0


def test_boundary_direction_values():
    assert boundary_direction(np.array([-1.0, 0.0, 1.0]), 1.0).tolist() == [1.0, 0.0, -1.0]


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_ensemble_determinism_bit_identical(sigma):
    grid = TimeGrid(1.0, 20)
    spec = replace(TWO_ATOM, sigma=sigma)
    a = simulate_ensemble(spec, grid, 50, 123, theta=1.0, x0=0.1, sigma_x=SIGMA_X)
    b = simulate_ensemble(spec, grid, 50, 123, theta=1.0, x0=0.1, sigma_x=SIGMA_X)
    for field in ("B", "W", "L", "jump_counts", "X", "eta_abs", "A", "dH"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
