"""Energy, decay, and compactness diagnostics over completed trajectories.

Everything here is read-only: the series diagnostics take a
:class:`NormSeries` (a trajectory's ``norm_series``, t = 0 included) and
never feed back into the dynamics.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .spectral_field import SpectralField, _write_json, hs_norm, single_mode_field
from .semigroup_flow import NormSeries, sup_distances
from .picard_wellposedness import local_time

__all__ = [
    "EnergyResiduals",
    "PigeonholeResult",
    "CompactnessReport",
    "energy_identity_residual",
    "energy_budget",
    "pigeonhole_time",
    "decay_envelope",
    "unit_time_contraction",
    "compactness_horizon",
    "compactness_experiment",
    "poincare_violation",
]


@dataclass
class EnergyResiduals:
    """Per-interval defect of the energy identity d/dt |u|^2 = -2 int |grad u|^2.

    ``times`` holds the right endpoint of each interval; ``residuals`` the
    absolute defect |delta(l2^2) + 2 * trapz(h1^2)| over that interval.
    """

    times: np.ndarray
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def energy_identity_residual(s: NormSeries) -> EnergyResiduals:
    """Check the discrete energy balance interval by interval."""
    dt = np.diff(s.times)
    d_l2sq = np.diff(s.l2**2)
    dissip = 0.5 * (s.h1[:-1] ** 2 + s.h1[1:] ** 2) * dt
    res = np.abs(d_l2sq + 2.0 * dissip)
    return EnergyResiduals(s.times[1:].copy(), res)


def energy_budget(s: NormSeries) -> tuple[float, float]:
    """Return (sup_t L^2 norm, sqrt(2 * int enstrophy dt)).

    For dissipative runs the supremum is the initial L^2 norm and the total
    dissipation never exceeds it.
    """
    sup_l2 = float(np.max(s.l2)) if s.l2.size else 0.0
    total = float(np.sqrt(2.0 * np.trapezoid(s.h1**2, s.times))) if s.times.size > 1 else 0.0
    return sup_l2, total


@dataclass
class PigeonholeResult:
    """A low-dissipation time inside the pigeonhole window [0, 1/eps^2]."""

    T_prime: float
    gradient_l2_at_T_prime: float
    epsilon_used: float
    budget_bound: float
    h1_at_T_prime: float
    partial: bool = False

    def to_json(self, path=None) -> str:
        return _write_json(asdict(self), path)


def pigeonhole_time(series: NormSeries, eps: float) -> PigeonholeResult:
    """Earliest sampled time minimizing enstrophy over [0, 1/eps^2].

    The dissipation budget forces the minimizer below its window average:
    enstrophy(T') * window <= int enstrophy dt holds exactly on the discrete
    series.  A series shorter than the window is searched in full and the
    result flagged partial.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    window = 1.0 / eps**2
    in_window = series.times <= window * (1.0 + 1e-12)
    if not np.any(in_window):
        raise ValueError("series does not cover any of the pigeonhole window")
    partial = bool(series.times[-1] < window * (1.0 - 1e-12))
    ens = series.h1[in_window] ** 2
    t_in = series.times[in_window]
    idx = int(np.argmin(ens))  # argmin returns the earliest minimizer
    budget = float(np.trapezoid(ens, t_in)) if t_in.size > 1 else 0.0
    h1_here = float(series.h1[in_window][idx])
    return PigeonholeResult(
        T_prime=float(t_in[idx]),
        gradient_l2_at_T_prime=float(np.sqrt(ens[idx])),
        epsilon_used=eps,
        budget_bound=budget,
        h1_at_T_prime=h1_here,
        partial=partial,
    )


def decay_envelope(series: NormSeries, t_start: float) -> float:
    """Least-squares slope of log H^1 on [t_start, end] (the decay rate).

    Pure heat flows reproduce minus the least active |k|^2; small-data runs
    decay at least like e^-t up to quadratic corrections.
    """
    mask = series.times >= t_start
    t = series.times[mask]
    h1 = series.h1[mask]
    if t.size < 4:
        raise ValueError("need at least 4 samples beyond t_start for a rate fit")
    if np.any(h1 <= 0):
        raise ValueError("H1 norm hits zero inside the fit window")
    slope = np.polyfit(t, np.log(h1), 1)[0]
    return float(slope)


def unit_time_contraction(series: NormSeries) -> tuple[np.ndarray, np.ndarray]:
    """Ratios h1(t+1)/h1(t) at integer offsets t = 0, 1, ...

    Values are linearly interpolated between samples; a zero numerator and
    denominator reports 0 by convention.  Requires a horizon of at least 2.
    """
    horizon = series.times[-1]
    if horizon < 2.0:
        raise ValueError("unit-time contraction needs a horizon >= 2")
    offsets = np.arange(0.0, np.floor(horizon))
    h_at = np.interp(offsets, series.times, series.h1)
    h_next = np.interp(offsets + 1.0, series.times, series.h1)
    ratios = np.divide(h_next, h_at, out=np.zeros_like(h_at), where=h_at > 0)
    return offsets, ratios


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


def compactness_horizon(u0: SpectralField, c: float) -> float:
    """Horizon of :func:`compactness_experiment`: local_time(A + 1, c) with
    A the H^1 norm of u0."""
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
    horizon T = compactness_horizon(u0, c), and every step time in
    [eps_window, T] enters the supremum, so the result does not depend on
    any storage thinning.
    """
    freqs = [int(n) for n in freqs]
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("frequencies must be strictly increasing")
    K = u0.grid.cutoff
    for n in freqs:
        if n < 1 or n > K:
            raise ValueError(f"perturbation frequency {n} outside the cutoff (1..{K})")
    T = compactness_horizon(u0, c)
    if not 0 <= eps_window < T:  # NaN fails too
        raise ValueError(f"eps_window must lie in [0, T) with T={T:.6g}")
    perturbed = [u0 + single_mode_field(u0.grid, (n, 0, 0), (0.0, 1.0, 0.0), 1.0)
                 for n in freqs]
    sups = sup_distances(u0, perturbed, T, dt, t_min=eps_window)
    return CompactnessReport(freqs, [d for d, _ in sups], eps_window, T, c)


def poincare_violation(s: NormSeries) -> float:
    """Largest violation of l2 <= h1 over the series (<= 0 when it holds).

    On mean-zero fields every active mode has |k| >= 1, so the inequality is
    exact up to roundoff.
    """
    if s.times.size == 0:
        return 0.0
    return float(np.max(s.l2 - s.h1))
