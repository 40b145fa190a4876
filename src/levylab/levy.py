"""Pure-jump Levy drivers with finitely many jump sizes.

A driver is described by a linear drift, an optional Brownian coefficient,
and an atomic jump measure ``sum_i alpha_i * delta_{beta_i}``: jumps of
size ``beta_i`` arrive as independent Poisson streams with rate
``alpha_i``.  Every moment integral against the jump measure reduces to a
finite sum, so everything computed here is exact up to rounding.

:class:`LevySpec` is the one driver type: it checks and normalizes itself
when it is built, so every function that takes one can rely on it.

Drift convention.  ``drift_b`` is the slope of the piecewise-linear part
of the path between jumps, so ``E[L_1] = drift_b + sum_i alpha_i * beta_i``.
It is what the simulator integrates and the transport coefficient of the
finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateJumpSize, NonpositiveIntensity, ZeroJumpSize


@dataclass(frozen=True)
class LevySpec:
    """Driver specification, checked and normalized when it is built.

    Parameters
    ----------
    drift_b:
        Slope of the path between jumps (per unit time), finite.
    sigma:
        Brownian coefficient of the driver itself, >= 0.  Zero for the
        pure-jump setting required by the comparison checks.
    atoms:
        Tuple of ``(jump_size, intensity)`` pairs.  Jump sizes must be
        nonzero and pairwise distinct, intensities strictly positive.

    Construction, including ``dataclasses.replace``, stores drift and
    sigma as floats and the atoms as a tuple of float pairs, so an invalid
    driver never exists.

    Raises
    ------
    ZeroJumpSize, DuplicateJumpSize, NonpositiveIntensity
        For malformed atom lists.
    ValueError
        For a nonfinite drift, sigma or atom, or a negative sigma.
    """

    drift_b: float = 0.0
    sigma: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.drift_b):
            raise ValueError(f"drift must be finite, got {self.drift_b}")
        if not np.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        seen: set[float] = set()
        for beta, alpha in self.atoms:
            if not (np.isfinite(beta) and np.isfinite(alpha)):
                raise ValueError(f"atom ({beta}, {alpha}) is not finite")
            if beta == 0.0:
                raise ZeroJumpSize("jump size 0 is not allowed; use sigma for a continuous part")
            if alpha <= 0.0:
                raise NonpositiveIntensity(f"intensity {alpha} for jump size {beta} must be > 0")
            if beta in seen:
                raise DuplicateJumpSize(f"jump size {beta} appears more than once")
            seen.add(beta)
        object.__setattr__(self, "drift_b", float(self.drift_b))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "atoms", tuple((float(b), float(a)) for b, a in self.atoms))

    @property
    def m_atoms(self) -> int:
        return len(self.atoms)

    @property
    def continuous_part(self) -> bool:
        return self.sigma > 0.0

    @property
    def jump_sizes(self) -> np.ndarray:
        return np.array([b for b, _ in self.atoms], dtype=float)

    @property
    def intensities(self) -> np.ndarray:
        return np.array([a for _, a in self.atoms], dtype=float)

    @property
    def total_intensity(self) -> float:
        return float(sum(a for _, a in self.atoms))

