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
*Orthogonal Polynomials: Computation and Approximation*, 2004).  The
basis stores only the jump weights p_i(beta_l) and q_i(0); its rank is
structural, the atom count of mu, and rows at or beyond it are exactly
zero.

Storage
-------
:func:`teugels_increments` computes dH one step at a time from that
step's counts, through :func:`jump_martingales` (plus the Brownian part
read from the driver's path), and stores the rows as [step, component,
path].  ``verify`` evaluates the same form once, at the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeasure, RankMismatch
from .levy import LevySpec, step_jump_sums


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite nonnegative measure given by weighted point masses."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if loc.shape != w.shape or loc.ndim != 1:
            raise ValueError("locations and weights must be 1d arrays of equal length")
        if len(np.unique(loc)) != len(loc):
            raise ValueError("atom locations must be distinct")
        if np.any(w <= 0.0):
            raise ValueError("atom weights must be strictly positive")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return len(self.locations)


def build_mu(spec: LevySpec) -> AtomicMeasure:
    """Orthonormalization measure x^2 nu(dx) + sigma^2 delta_0(dx)."""
    locs = list(spec.jump_sizes)
    weights = list(spec.intensities * spec.jump_sizes**2)
    if spec.sigma > 0.0:
        locs.append(0.0)
        weights.append(spec.sigma**2)
    return AtomicMeasure(np.array(locs, dtype=float), np.array(weights, dtype=float))


@dataclass(frozen=True)
class TeugelsBasis:
    """Per-atom weights of the orthonormal martingales.

    ``jump_weights[i, l]`` is p_i(beta_l), the weight of atom l's
    compensated count in the i-th martingale, as [requested_m, atom];
    ``q_zero[i]`` is q_i(0), the weight of sigma W, and is zero when the
    driver has no continuous part.  Rows at or beyond ``rank`` are exactly
    zero.  ``degenerate_from`` is the 1-based index of the first vanishing
    basis element, or ``None`` when every requested element is live.
    """

    jump_weights: np.ndarray
    q_zero: np.ndarray
    rank: int
    requested_m: int
    degenerate_from: int | None

    def gram_defect(self, spec: LevySpec) -> float:
        """max |E[H_i(1) H_j(1)] - delta_ij| over the live rows (exact sums).

        E[H_i(1) H_j(1)] = sum_l alpha_l p_i(beta_l) p_j(beta_l)
        + sigma^2 q_i(0) q_j(0), the Gram matrix of the q_i under mu.
        """
        if self.rank == 0:
            return 0.0
        P = self.jump_weights[: self.rank]
        q0 = self.q_zero[: self.rank]
        gram = (P * spec.intensities) @ P.T + spec.sigma**2 * np.outer(q0, q0)
        return float(np.max(np.abs(gram - np.eye(self.rank))))


def orthonormal_basis(mu: AtomicMeasure, requested_m: int) -> TeugelsBasis:
    """Orthonormal polynomials 1, x, x^2, ... under mu, by Householder QR.

    Factors sqrt(w) V = Q R with V the Vandermonde matrix of the first
    ``rank = min(requested_m, n_atoms)`` monomials at mu's atoms; column i
    of Q is sqrt(w) q_i at the atoms, its sign chosen so that R[i, i] > 0.
    The jump weights are p_i(x) = x q_i(x) at the nonzero atoms, in mu's
    order, which :func:`build_mu` makes the driver's; q_i(0) is read at
    the atom at 0, if mu has one.
    """
    if mu.n_atoms == 0:
        raise EmptyMeasure("cannot orthonormalize against a measure with no atoms")
    if requested_m < 1:
        raise ValueError(f"requested_m must be >= 1, got {requested_m}")
    x, w = mu.locations, mu.weights
    rank = min(requested_m, mu.n_atoms)
    Q, R = np.linalg.qr(np.sqrt(w)[:, None] * x[:, None] ** np.arange(rank))
    q = Q * (np.copysign(1.0, np.diag(R)) / np.sqrt(w)[:, None])  # q_i at the atoms, [atom, rank]
    jump = x != 0.0
    jump_weights = np.zeros((requested_m, int(jump.sum())))
    jump_weights[:rank] = (x[jump, None] * q[jump]).T
    q_zero = np.zeros(requested_m)
    if not jump.all():
        q_zero[:rank] = q[~jump][0]
    return TeugelsBasis(jump_weights=jump_weights, q_zero=q_zero, rank=rank, requested_m=requested_m,
                        degenerate_from=rank + 1 if rank < requested_m else None)


def basis_for(spec: LevySpec, requested_m: int | None = None) -> TeugelsBasis:
    """Basis for a driver spec; handles the jump-free degenerate case.

    ``requested_m`` defaults to the structural rank (atom count, plus one
    when the driver has a continuous part).
    """
    structural = spec.m_atoms + (1 if spec.continuous_part else 0)
    if requested_m is None:
        requested_m = max(structural, 0)
    if structural == 0:
        m = max(requested_m, 0)
        return TeugelsBasis(jump_weights=np.zeros((m, 0)), q_zero=np.zeros(m), rank=0,
                            requested_m=m, degenerate_from=1 if m else None)
    return orthonormal_basis(build_mu(spec), requested_m)


def jump_martingales(
    counts: np.ndarray, duration: float, spec: LevySpec, basis: TeugelsBasis,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Jump parts [rank, path] of the live martingales over a window.

    ``counts`` [atom, path] holds each atom's number of jumps in a window
    of length ``duration``; the result, written to ``out`` when given, is
    ``P (counts - alpha * duration)`` with ``P = jump_weights[:rank]``.
    The continuous part, q_i(0) sigma W over the window, is not included.
    """
    compensated = counts - (spec.intensities * duration)[:, None]
    return np.matmul(basis.jump_weights[: basis.rank], compensated, out=out)


def teugels_increments(
    counts: np.ndarray,
    grid,
    spec: LevySpec,
    basis: TeugelsBasis,
    levy_path: np.ndarray | None = None,
) -> np.ndarray:
    """Per-step increments dH of the orthonormal martingales, stored.

    Parameters
    ----------
    counts:
        Per-step jump counts per atom, an integer array of shape
        [n_paths, n_steps, n_atoms], or [n_steps, n_atoms] for one path.
        Every martingale is linear in the compensated counts, so they
        carry every jump; they are read one step at a time.
    grid:
        Time grid; only ``dt`` and ``n_steps`` are used.
    spec, basis:
        Driver spec and its orthonormal basis.
    levy_path:
        Node values of the driver path(s), [n_steps + 1] or [n_paths,
        n_steps + 1] like ``counts``; required, and read, only when the
        driver has a continuous part, whose increment sigma dW is
        dL - dt * drift_b - (the step's jump sum).

    Returns
    -------
    Array of shape [n_paths, n_steps, requested_m], or [n_steps,
    requested_m] for 2d counts.  Columns at or beyond the basis rank are
    exactly zero.  The values are stored step-major, [n_steps, requested_m,
    n_paths], and returned as a transposed view, so ``dH.transpose(1, 2, 0)``
    is the contiguous step-major array for 3d input.  Step k's live rows
    are ``P (n_k - alpha dt)`` (:func:`jump_martingales`), plus
    ``q(0) sigma dW_k`` when the driver has a continuous part.
    """
    n = grid.n_steps
    counts = np.asarray(counts)
    if counts.shape[-1] != spec.m_atoms:
        raise RankMismatch(f"jump counts carry {counts.shape[-1]} atoms, spec has {spec.m_atoms}")
    if counts.ndim not in (2, 3):
        raise ValueError("jump counts must be 2d or 3d")
    squeeze = counts.ndim == 2
    if squeeze:
        counts = counts[None, :, :]
    if counts.shape[-2] != n:
        raise ValueError("jump counts do not match the grid's step count")
    n_paths = counts.shape[0]
    L = None
    if spec.continuous_part:
        if levy_path is None:
            raise ValueError("levy_path is required when the driver has a continuous part")
        L = np.asarray(levy_path, dtype=float)
        if L.ndim == 1:
            L = L[None, :]
        if L.shape != (n_paths, n + 1):
            raise ValueError("levy_path shape does not match the jump data")
        L = L.T  # [node, path]

    dH = np.zeros((n, basis.requested_m, n_paths))
    rank = basis.rank
    if rank:
        dt = grid.dt
        step_counts = counts.transpose(1, 2, 0)  # [step, atom, path]
        for k in range(n):
            jump_martingales(step_counts[k], dt, spec, basis, out=dH[k, :rank])
        if L is not None:
            q0 = basis.q_zero[:rank, None]
            drift = dt * spec.drift_b
            for k, jumps in enumerate(step_jump_sums(counts, spec.jump_sizes)):
                sigma_dw = np.subtract(L[k + 1], L[k])
                sigma_dw -= drift
                sigma_dw -= jumps
                dH[k, :rank] += q0 * sigma_dw
    dH = dH.transpose(2, 0, 1)
    return dH[0] if squeeze else dH
