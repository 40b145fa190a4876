"""Test-only references for the Teugels martingales: the monomial form.

The library stores only the per-atom jump weights p_i(beta_l) and q_i(0).
These references build the same martingales the older way, as modified
Gram-Schmidt coefficient rows c[i, k] of the monomials 1, x, x^2, ... under
mu, applied to the compensated power-jump sums

    Y(1) = L - t E[L_1],    Y(k) = sum (jump)^k - t m_k    (k >= 2),

with m_k the raw moments of the jump measure.  The two forms agree to
rounding wherever Gram-Schmidt is accurate (a few atoms).
"""

import math

import numpy as np

from levylab.teugels import build_mu

# Gram-Schmidt pivot tolerance, relative to the raw norm of the incoming monomial
PIVOT_RTOL = 1e-12


def raw_moments(spec, max_order):
    """``sum_l alpha_l beta_l**i`` for i = 0..max_order."""
    b, a = spec.jump_sizes, spec.intensities
    return np.array([float(np.sum(a * b**i)) for i in range(max_order + 1)])


def mean_l1(spec):
    """E[L_1]: the slope between jumps plus the jump mean."""
    return spec.drift_b + float(np.sum(spec.intensities * spec.jump_sizes))


def gram_schmidt_coeffs(spec, requested_m):
    """(coeffs [m, m], rank): modified Gram-Schmidt with one
    re-orthogonalization pass, positive leading coefficients, rows at or
    beyond the rank exactly zero."""
    mu = build_mu(spec)
    x, w, m = mu.locations, mu.weights, requested_m
    coeffs = np.zeros((m, m))
    vals, rows = [], []
    for i in range(min(m, mu.n_atoms)):
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
