"""Orthonormal martingale basis of the driver, as per-atom jump weights.

For a driver with jump measure nu and Brownian coefficient sigma, the
Teugels martingales are orthonormalized under the finite measure

    mu(dx) = x^2 nu(dx) + sigma^2 delta_0(dx).

The driver's nu is atomic, sum_l alpha_l delta_{beta_l}, so each
orthonormal martingale is a fixed combination of the compensated per-atom
counts: over a window of length t,

    H(i) = sum_l p_i(beta_l) (N_l - alpha_l t) + q_i(0) sigma W,

with q_i the degree-i orthonormal polynomial under mu and
``p_i(y) = y q_i(y)`` (Nualart & Schoutens, SPA 2000).  The values q_i at
the atoms of mu come from a Householder QR of the weighted Vandermonde
matrix sqrt(w) V, whose columns are 1, x, ..., x^(n-1): the orthonormal
columns of Q are sqrt(w) q_i at the atoms, and signs are fixed so that
diag(R) > 0, i.e. each q_i has a positive leading coefficient (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, 2004).
:func:`basis_for` reads mu off the :class:`~levylab.levy.LevySpec`, whose
checks make its atoms distinct and its weights positive.  The basis
stores only the jump weights p_i(beta_l) and q_i(0), one row per atom of
mu: its rank, the number of nonzero martingales, is structural.

Storage
-------
dH is a function of the jump counts (and, when the driver has a
continuous part, of two node rows of its Brownian path W), so nothing
stores it for a run.  :func:`step_increments` writes one step's rows from
that step's counts, through :func:`jump_martingales`, and W's step; the
backward sweep calls it once per step into one reused [rank, path] row
block, and :func:`teugels_increments` loops it over the grid into a full
[step, component, path] array for the readers that want every step at
once.  ``verify`` evaluates the same form once, at the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankMismatch
from .levy import LevySpec


@dataclass(frozen=True)
class TeugelsBasis:
    """Per-atom weights of the orthonormal martingales.

    ``jump_weights[i, l]`` is p_i(beta_l), the weight of atom l's
    compensated count in the i-th martingale, as [rank, atom];
    ``q_zero[i]`` is q_i(0), the weight of sigma W, and is zero when the
    driver has no continuous part.
    """

    jump_weights: np.ndarray
    q_zero: np.ndarray

    @property
    def rank(self) -> int:
        return self.jump_weights.shape[0]

    def gram_defect(self, spec: LevySpec) -> float:
        """max |E[H_i(1) H_j(1)] - delta_ij| over the rows (exact sums).

        E[H_i(1) H_j(1)] = sum_l alpha_l p_i(beta_l) p_j(beta_l)
        + sigma^2 q_i(0) q_j(0), the Gram matrix of the q_i under mu.
        """
        P, q0 = self.jump_weights, self.q_zero
        gram = (P * spec.intensities) @ P.T + spec.sigma**2 * np.outer(q0, q0)
        return float(np.max(np.abs(gram - np.eye(self.rank)), initial=0.0))


def basis_for(spec: LevySpec) -> TeugelsBasis:
    """The orthonormal basis of the driver, by the QR of the module docstring.

    mu's atoms are the jump sizes, weighted by alpha beta^2, then 0,
    weighted by sigma^2, when the driver has a continuous part.  Every
    column of Q is kept, each signed so that R[i, i] > 0; a driver with no
    atoms gets the rank-0 basis.
    """
    x = spec.jump_sizes
    w = spec.intensities * x**2
    if spec.continuous_part:
        x = np.append(x, 0.0)
        w = np.append(w, spec.sigma**2)
    Q, R = np.linalg.qr(np.sqrt(w)[:, None] * x[:, None] ** np.arange(len(x)))
    q = Q * (np.copysign(1.0, np.diag(R)) / np.sqrt(w)[:, None])  # q_i at the atoms, [atom, rank]
    jump_weights = np.ascontiguousarray((x[: spec.m_atoms, None] * q[: spec.m_atoms]).T)
    return TeugelsBasis(jump_weights, q[-1] if spec.continuous_part else np.zeros(len(x)))


def jump_martingales(
    counts: np.ndarray, duration: float, spec: LevySpec, basis: TeugelsBasis,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Jump parts [rank, path] of the martingales over a window.

    ``counts`` [atom, path] holds each atom's number of jumps in a window
    of length ``duration``; the result, written to ``out`` when given, is
    ``P (counts - alpha * duration)`` with ``P = jump_weights``.
    The continuous part, q_i(0) sigma W over the window, is not included.
    """
    compensated = counts - (spec.intensities * duration)[:, None]
    return np.matmul(basis.jump_weights, compensated, out=out)


def step_increments(
    counts: np.ndarray,
    W: np.ndarray | None,
    k: int,
    dt: float,
    spec: LevySpec,
    basis: TeugelsBasis,
    out: np.ndarray,
) -> np.ndarray:
    """Rows [rank, path] of step k's increments dH_k, written to ``out``.

    ``counts`` [step, atom, path] and the driver's Brownian path ``W``
    [node, path] are node-major.  The rows are ``P (n_k - alpha dt)`` from
    the counts' row k (:func:`jump_martingales`), plus
    ``q(0) sigma (W_{k+1} - W_k)`` when the driver has a continuous part.
    W is read only then, so it may be ``None`` otherwise.
    """
    jump_martingales(counts[k], dt, spec, basis, out=out)
    if spec.continuous_part:
        out += (spec.sigma * basis.q_zero)[:, None] * np.subtract(W[k + 1], W[k])
    return out


def teugels_increments(
    counts: np.ndarray,
    grid,
    spec: LevySpec,
    basis: TeugelsBasis,
    W: np.ndarray | None = None,
) -> np.ndarray:
    """Per-step increments dH of the orthonormal martingales, every step.

    Parameters
    ----------
    counts:
        Per-step jump counts per atom, an integer array of shape
        [n_paths, n_steps, n_atoms].  Every martingale is linear in the
        compensated counts, so they carry every jump; they are read one
        step at a time.
    grid:
        Time grid; only ``dt`` and ``n_steps`` are used.
    spec, basis:
        Driver spec and its orthonormal basis.
    W:
        The driver's Brownian path, [n_paths, n_steps + 1]; required, and
        read, only when the driver has a continuous part.

    Returns
    -------
    Array of shape [n_paths, n_steps, rank].  The values are stored
    step-major, [n_steps, rank, n_paths], and returned as a transposed
    view, so ``dH.transpose(1, 2, 0)`` is the contiguous step-major array.
    Step k's rows are :func:`step_increments` of its counts:
    ``P (n_k - alpha dt)``, plus ``q(0) sigma (W_{k+1} - W_k)`` when the
    driver has a continuous part.
    """
    n = grid.n_steps
    counts = np.asarray(counts)
    if counts.ndim != 3:
        raise ValueError("jump counts must be [path, step, atom]")
    if counts.shape[-1] != spec.m_atoms:
        raise RankMismatch(f"jump counts carry {counts.shape[-1]} atoms, spec has {spec.m_atoms}")
    if counts.shape[-2] != n:
        raise ValueError("jump counts do not match the grid's step count")
    n_paths = counts.shape[0]
    if spec.continuous_part:
        W = np.asarray(W, dtype=float).T  # [node, path]
        if W.shape != (n + 1, n_paths):
            raise ValueError("a driver with a continuous part needs its Brownian path W [path, node]")

    dH = np.empty((n, basis.rank, n_paths))
    step_counts = counts.transpose(1, 2, 0)  # [step, atom, path]
    for k in range(n):
        step_increments(step_counts, W, k, grid.dt, spec, basis, dH[k])
    return dH.transpose(2, 0, 1)
