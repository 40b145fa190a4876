"""Test-only references for the Teugels martingales: the monomial form.

The library stores only the per-atom jump weights p_i(beta_l) and q_i(0).
These references build the same martingales the older way, as modified
Gram-Schmidt coefficient rows c[i, k] of the monomials 1, x, x^2, ... under
mu, applied to the compensated power-jump sums

    Y(1) = L - t E[L_1],    Y(k) = sum (jump)^k - t m_k    (k >= 2),

with m_k the raw moments of the jump measure.  The two forms agree to
rounding wherever Gram-Schmidt is accurate (a few atoms).

``qr_basis_reference`` is the library's basis built a second way: the
orthonormalization measure as its own arrays, then the Householder QR.
None of these imports the code it checks.
"""

import math
from typing import NamedTuple

import numpy as np

# Gram-Schmidt pivot tolerance, relative to the raw norm of the incoming monomial
PIVOT_RTOL = 1e-12


def raw_moments(spec, max_order):
    """``sum_l alpha_l beta_l**i`` for i = 0..max_order."""
    b, a = spec.jump_sizes, spec.intensities
    return np.array([float(np.sum(a * b**i)) for i in range(max_order + 1)])


def mean_l1(spec):
    """E[L_1]: the slope between jumps plus the jump mean."""
    return spec.drift_b + float(np.sum(spec.intensities * spec.jump_sizes))


def mu_atoms(spec):
    """(locations, weights) of mu(dx) = x^2 nu(dx) + sigma^2 delta_0(dx):
    the jump sizes, then 0 when the driver has a continuous part."""
    locs = list(spec.jump_sizes)
    weights = list(spec.intensities * spec.jump_sizes**2)
    if spec.sigma > 0.0:
        locs.append(0.0)
        weights.append(spec.sigma**2)
    return np.array(locs, dtype=float), np.array(weights, dtype=float)


class ReferenceBasis(NamedTuple):
    jump_weights: np.ndarray
    q_zero: np.ndarray


def qr_basis_reference(spec):
    """The basis of a driver with at least one atom of mu: Householder QR
    of sqrt(w) V with V the Vandermonde matrix of the first n_atoms
    monomials at mu's atoms, each column of Q signed so that R[i, i] > 0;
    the jump weights x q_i(x) are read at the nonzero atoms and q_i(0) at
    the atom at 0."""
    x, w = mu_atoms(spec)
    assert len(x)
    Q, R = np.linalg.qr(np.sqrt(w)[:, None] * x[:, None] ** np.arange(len(x)))
    q = Q * (np.copysign(1.0, np.diag(R)) / np.sqrt(w)[:, None])  # q_i at the atoms, [atom, rank]
    jump = x != 0.0
    return ReferenceBasis((x[jump, None] * q[jump]).T, np.zeros(len(x)) if jump.all() else q[~jump][0])


def gram_schmidt_coeffs(spec, requested_m):
    """(coeffs [m, m], rank): modified Gram-Schmidt with one
    re-orthogonalization pass, positive leading coefficients, rows at or
    beyond the rank exactly zero."""
    x, w = mu_atoms(spec)
    m = requested_m
    coeffs = np.zeros((m, m))
    vals, rows = [], []
    for i in range(min(m, len(x))):
        v = x**i
        row = np.zeros(m)
        row[i] = 1.0
        ref = float(np.sum(w * v * v))
        for _ in range(2):
            for prev_row, prev_vals in zip(rows, vals):
                proj = float(np.sum(w * v * prev_vals))
                v = v - proj * prev_vals
                row = row - proj * prev_row
        nrm2 = float(np.sum(w * v * v))
        if nrm2 <= PIVOT_RTOL * ref:
            break
        nrm = math.sqrt(nrm2)
        v, row = v / nrm, row / nrm
        if row[i] < 0.0:
            v, row = -v, -row
        vals.append(v)
        rows.append(row)
        coeffs[i] = row
    return coeffs, len(rows)


def p_values(coeffs, y):
    """Jump weights ``y * q_i(y)`` of the coefficient rows; [m, len(y)]."""
    y = np.asarray(y, dtype=float)
    return (coeffs @ (y[None, :] ** np.arange(coeffs.shape[0])[:, None])) * y[None, :]


def power_sum_increments(counts, grid, spec, requested_m, levy_path=None):
    """dH [path, step, m] of path-major counts [path, step, atom] from the
    compensated power sums of every step at once; the order-1 sum is
    dL - dt E[L_1] when ``levy_path`` [path, node] is given."""
    coeffs, rank = gram_schmidt_coeffs(spec, requested_m)
    dt = grid.dt
    moments = raw_moments(spec, rank)
    counts = np.asarray(counts, dtype=float)
    dY = np.stack([counts @ spec.jump_sizes**k - dt * moments[k] for k in range(1, rank + 1)], axis=-1)
    if levy_path is not None and rank:
        dY[..., 0] = np.diff(levy_path, axis=-1) - dt * mean_l1(spec)
    dH = np.zeros(counts.shape[:2] + (requested_m,))
    dH[..., :rank] = dY @ coeffs[:rank, :rank].T
    return dH


def stored_increments_reference(counts, grid, spec, basis, levy_path=None):
    """dH [path, step, rank] of [path, step, atom] counts built whole: every
    step's jump part first, then one pass adding q(0) sigma dW_k from the
    path and the step's jump sums."""
    n, n_paths = grid.n_steps, counts.shape[0]
    dH = np.zeros((n, basis.rank, n_paths))
    step_counts = counts.transpose(1, 2, 0)
    for k in range(n):
        compensated = step_counts[k] - (spec.intensities * grid.dt)[:, None]
        np.matmul(basis.jump_weights, compensated, out=dH[k])
    if spec.continuous_part:
        L = np.asarray(levy_path, dtype=float).T
        drift = grid.dt * spec.drift_b
        for k in range(n):
            sigma_dw = np.subtract(L[k + 1], L[k])
            sigma_dw -= drift
            sigma_dw -= spec.jump_sizes @ step_counts[k]
            dH[k] += basis.q_zero[:, None] * sigma_dw
    return dH.transpose(2, 0, 1)
