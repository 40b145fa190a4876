"""Orthonormal martingale basis built from the driver's power-jump sums.

For a driver with jump measure nu and Brownian coefficient sigma, the
compensated power-sum processes

    Y(1)_t = L_t - t * E[L_1],
    Y(k)_t = sum_{s <= t} (jump_s)^k - t * m_k          (k >= 2),

with ``m_k`` the k-th raw moment of nu, are square-integrable martingales.
Orthonormalizing the monomials 1, x, x^2, ... under the finite measure

    mu(dx) = x^2 nu(dx) + sigma^2 delta_0(dx)

yields lower-triangular coefficient rows ``c[i, k]`` such that the
combinations ``H(i) = sum_k c[i, k] Y(k)`` are pairwise strongly
orthonormal.  mu has finitely many atoms, so every inner product is an
exact finite sum and the construction stops structurally at
rank = (number of atoms of mu); beyond that the combinations vanish
identically and their coefficient rows are kept at exact zero.

Compensating every power sum by the mean of the driver itself would break
both the martingale property and the orthonormality relations, so the
per-order compensators ``t * m_k`` above are used; the verification suite
checks the relations empirically.

Because mu is atomic, each H(i) is also a fixed combination of the
compensated per-atom counts: over a window of length t,

    H(i) = sum_l p_i(beta_l) (N_l - alpha_l t) + q_i(0) sigma W,

with ``p_i(y) = y q_i(y)`` (see :meth:`TeugelsBasis.p_values`).
:func:`jump_martingales` evaluates the jump part of that form, which is
all the orthonormality measurement needs at the horizon.

Storage
-------
:func:`teugels_increments` computes dH one step at a time from that
step's counts (and driver difference) and stores the rows as [step,
component, path].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeasure, RankMismatch
from .levy import LevySpec, levy_moments, step_jump_sums

#: Gram-Schmidt pivot tolerance, relative to the raw norm of the incoming
#: monomial.  Atoms are exact, so rank loss is structural, not numerical.
PIVOT_RTOL = 1e-12


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
    """Coefficient rows of the orthonormal polynomial system under mu.

    ``coeffs[i, k]`` is the coefficient of ``x**k`` in the degree-i
    orthonormal polynomial, for ``i, k < requested_m``; rows ``i >= rank``
    are exactly zero.  The leading coefficient of each live row is
    positive, which pins down the orthonormalization's sign ambiguity.
    ``degenerate_from`` is the 1-based index of the first vanishing basis
    element, or ``None`` when every requested element is live.
    """

    coeffs: np.ndarray
    rank: int
    requested_m: int
    degenerate_from: int | None

    def q_values(self, y: np.ndarray) -> np.ndarray:
        """Evaluate all requested polynomials at ``y``; shape [m, len(y)]."""
        y = np.asarray(y, dtype=float)
        powers = y[None, :] ** np.arange(self.requested_m)[:, None]
        return self.coeffs @ powers

    def p_values(self, y: np.ndarray) -> np.ndarray:
        """Evaluate ``y * q_{i-1}(y)``, the jump weights of each martingale."""
        y = np.asarray(y, dtype=float)
        return self.q_values(y) * y[None, :]

    def gram_defect(self, mu: AtomicMeasure) -> float:
        """max |<q_i, q_j>_mu - delta_ij| over the live rows (exact sums)."""
        if self.rank == 0:
            return 0.0
        q = self.q_values(mu.locations)[: self.rank]
        gram = (q * mu.weights[None, :]) @ q.T
        return float(np.max(np.abs(gram - np.eye(self.rank))))


def orthonormal_basis(mu: AtomicMeasure, requested_m: int) -> TeugelsBasis:
    """Modified Gram-Schmidt on 1, x, x^2, ... under the mu inner product.

    Stops producing rows once the residual norm falls below
    ``PIVOT_RTOL`` times the raw norm of the incoming monomial (or once
    the degree reaches the atom count, where the residual is structurally
    zero).  Later rows are zeroed and ``degenerate_from`` records where
    degeneracy starts.
    """
    if mu.n_atoms == 0:
        raise EmptyMeasure("cannot orthonormalize against a measure with no atoms")
    if requested_m < 1:
        raise ValueError(f"requested_m must be >= 1, got {requested_m}")
    m = requested_m
    x = mu.locations
    w = mu.weights
    coeffs = np.zeros((m, m))
    accepted_vals: list[np.ndarray] = []
    accepted_rows: list[np.ndarray] = []
    rank = 0
    for i in range(m):
        v = x**i
        row = np.zeros(m)
        row[i] = 1.0
        ref = float(np.sum(w * v * v))
        if i >= mu.n_atoms:
            break
        # one re-orthogonalization pass keeps the Gram defect near rounding
        for _ in range(2):
            for prev_row, prev_vals in zip(accepted_rows, accepted_vals):
                proj = float(np.sum(w * v * prev_vals))
                v = v - proj * prev_vals
                row = row - proj * prev_row
        nrm2 = float(np.sum(w * v * v))
        if nrm2 <= PIVOT_RTOL * ref:
            break
        nrm = math.sqrt(nrm2)
        v = v / nrm
        row = row / nrm
        if row[i] < 0.0:
            v = -v
            row = -row
        accepted_vals.append(v)
        accepted_rows.append(row)
        coeffs[i, :] = row
        rank += 1
    degenerate_from = rank + 1 if rank < m else None
    return TeugelsBasis(coeffs=coeffs, rank=rank, requested_m=m, degenerate_from=degenerate_from)


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
        return TeugelsBasis(coeffs=np.zeros((m, m)), rank=0, requested_m=m,
                            degenerate_from=1 if m else None)
    return orthonormal_basis(build_mu(spec), requested_m)


def jump_martingales(
    counts: np.ndarray, duration: float, spec: LevySpec, basis: TeugelsBasis
) -> np.ndarray:
    """Jump parts [rank, path] of the live martingales over a window.

    ``counts`` [atom, path] holds each atom's number of jumps in a window
    of length ``duration``; the result is ``P (counts - alpha * duration)``
    with ``P = p_values(beta)[:rank]``.  The continuous part, q_i(0) sigma
    W over the window, is not included.
    """
    P = basis.p_values(spec.jump_sizes)[: basis.rank]
    return P @ (counts - (spec.intensities * duration)[:, None])


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
        The power-jump sums are linear in the counts, so the counts carry
        every jump.  They are read one step at a time (see
        :func:`levylab.levy.step_jump_sums`).
    grid:
        Time grid; only ``dt`` and ``n_steps`` are used.
    spec, basis:
        Driver spec and its orthonormal basis.
    levy_path:
        Node values of the driver path(s), [n_steps + 1] or [n_paths,
        n_steps + 1] like ``counts``; required when the driver has a
        continuous part.  When given, the order-1 increment is computed as
        dL - dt * E[L_1] so that it includes the Brownian contribution.

    Returns
    -------
    Array of shape [n_paths, n_steps, requested_m], or [n_steps,
    requested_m] for 2d counts.  Columns at or beyond the basis rank are
    exactly zero.  The values are stored step-major, [n_steps, requested_m,
    n_paths], and returned as a transposed view, so ``dH.transpose(1, 2, 0)``
    is the contiguous step-major array for 3d input.  Each step's live rows
    are the basis rows times that step's compensated power sums; when
    ``levy_path`` is given, the order-1 sum is dL - dt * E[L_1].  The sums
    are formed one step at a time, so no full-size array of them exists.
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
    if levy_path is not None:
        L = np.asarray(levy_path, dtype=float)
        if L.ndim == 1:
            L = L[None, :]
        if L.shape != (n_paths, n + 1):
            raise ValueError("levy_path shape does not match the jump data")
        L = L.T  # [node, path]
    elif spec.continuous_part:
        raise ValueError("levy_path is required when the driver has a continuous part")

    dH = np.zeros((n, basis.requested_m, n_paths))
    rank = basis.rank
    if rank:
        dt = grid.dt
        moments = levy_moments(spec, rank)
        beta_powers = np.stack([spec.jump_sizes**k for k in range(1, rank + 1)], axis=1)  # [atoms, K]
        compensators = (dt * moments.raw_moments[1 : rank + 1])[:, None]
        for k, dY in enumerate(step_jump_sums(counts, beta_powers)):
            dY -= compensators  # row j: the order-(j + 1) power sum of step k
            if L is not None:
                np.subtract(L[k + 1], L[k], out=dY[0])
                dY[0] -= dt * moments.mean_l1
            np.matmul(basis.coeffs[:rank, :rank], dY, out=dH[k, :rank])
    dH = dH.transpose(2, 0, 1)
    return dH[0] if squeeze else dH
