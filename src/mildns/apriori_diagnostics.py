"""Energy-identity, Poincare and compactness diagnostics.

Everything here is read-only.  The two series checks that ``verify``
reads, the energy-identity residual and the Poincare violation, take a
:class:`NormSeries` (a trajectory's ``norm_series``, t = 0 included); the
compactness experiment marches its own runs and reports their distances.
None of them feeds back into the dynamics.
"""

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .spectral_field import (
    SpectralField,
    _require_projected,
    _write_json,
    hs_norm,
    single_mode_field,
)
from .semigroup_flow import NormSeries, _unretired, march
from .picard_wellposedness import local_time

__all__ = [
    "EnergyResiduals",
    "CompactnessReport",
    "energy_identity_residual",
    "compactness_experiment",
    "poincare_violation",
]


@dataclass
class EnergyResiduals:
    """Per-pair defect of the energy identity d/dt |u|^2 = -2 int |grad u|^2.

    ``times`` holds the right endpoint of each pair of steps (of the last
    step alone, by the trapezoid rule, when their count is odd);
    ``residuals`` the absolute defect |delta(l2^2) + 2 * int h1^2| there.
    """

    times: np.ndarray
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def energy_identity_residual(s: NormSeries) -> EnergyResiduals:
    """Check the discrete energy balance over pairs of steps, by Simpson's
    rule in its form for unequal steps (a shortened last step)."""
    t, e, f = s.times, s.l2**2, s.h1**2
    starts = np.arange(0, t.size - 2, 2)
    h0, h1 = t[starts + 1] - t[starts], t[starts + 2] - t[starts + 1]
    integral = (h0 + h1) / 6.0 * ((2.0 - h1 / h0) * f[starts] + (2.0 - h0 / h1) * f[starts + 2]
                                  + (h0 + h1) ** 2 / (h0 * h1) * f[starts + 1])
    ends = starts + 2
    if t.size % 2 == 0 and t.size:  # an odd step count: the last step alone
        starts, ends = np.append(starts, t.size - 2), np.append(ends, t.size - 1)
        integral = np.append(integral, 0.5 * (f[-2] + f[-1]) * (t[-1] - t[-2]))
    return EnergyResiduals(t[ends], np.abs(e[ends] - e[starts] + 2.0 * integral))


@dataclass
class CompactnessReport:
    """Distance-to-base decay under increasingly oscillatory perturbations.

    Perturbations of fixed H^1 size 1 at frequencies (n, 0, 0) converge
    weakly to zero as n grows; the recorded sup-H^1 distances over
    [eps_window, T] shrink accordingly.
    """

    frequencies: list[int]
    distances: list[float]
    epsilon_window: float
    T_used: float
    c_used: float

    def to_json(self, path=None) -> str:
        return _write_json(asdict(self), path)


def _compactness_horizon(u0: SpectralField, c: float) -> float:
    """Horizon of :func:`compactness_experiment`: local_time(A + 1, c) with
    A the H^1 norm of u0, which must already be checked."""
    return local_time(hs_norm(u0, 1.0) + 1.0, c)


def compactness_experiment(
    u0: SpectralField,
    freqs,
    eps_window: float,
    c: float,
    dt: float = 1e-3,
) -> CompactnessReport:
    """Measure sup-H^1 distances between perturbed and base solutions.

    For each frequency n the datum is u0 plus a divergence-free pair at
    wavevector (n, 0, 0) with y-polarization and H^1 size 1.
    The base run and all perturbed runs march once, in lockstep, to the
    horizon T = local_time(A + 1, c), A the H^1 norm of u0, and every step
    time in [eps_window, T] enters the supremum, so the result does not
    depend on any storage thinning.  u0 is checked (finite, divergence-free)
    before its H^1 norm sets the horizon, and every argument before the march.
    Each frequency must be an integer (an integer-valued float counts).
    """
    freqs = list(freqs)
    for n in freqs:
        if isinstance(n, bool) or not (isinstance(n, numbers.Integral) or
                                       isinstance(n, numbers.Real) and float(n).is_integer()):
            raise ValueError(f"perturbation frequency must be an integer, got {n!r}")
    freqs = [int(n) for n in freqs]
    if not freqs:
        raise ValueError("freqs must hold at least one frequency")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("frequencies must be strictly increasing")
    K = u0.grid.cutoff
    for n in freqs:
        if n < 1 or n > K:
            raise ValueError(f"perturbation frequency {n} outside the cutoff (1..{K})")
    _require_projected(u0.coef[None], u0.grid)
    T = _compactness_horizon(u0, c)
    if not 0 <= eps_window < T:  # NaN fails too
        raise ValueError(f"eps_window must lie in [0, T) with T={T:.6g}")
    perturbed = [u0 + single_mode_field(u0.grid, (n, 0, 0), (0.0, 1.0, 0.0), 1.0)
                 for n in freqs]
    sups = [-1.0] * len(freqs)  # the last step time is T, inside the window
    for t, (base, *runs), _ in _unretired(march([u0, *perturbed], T, dt)):
        if t >= eps_window - 1e-12:
            sups = [max(d, hs_norm(u - base, 1.0)) for d, u in zip(sups, runs)]
    return CompactnessReport(freqs, sups, eps_window, T, c)


def poincare_violation(s: NormSeries) -> float:
    """Largest violation of l2 <= h1 over the series (<= 0 when it holds).

    On mean-zero fields every active mode has |k| >= 1, so the inequality is
    exact up to roundoff.
    """
    if s.times.size == 0:
        return 0.0
    return float(np.max(s.l2 - s.h1))
