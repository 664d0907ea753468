"""Fixed-point solution of the mild formulation on a short time interval.

The contraction map applied here is
    Phi(u)(t) = e^(t L) u0 + int_0^t e^((t-t') L) D(u (x) u)(t') dt'
evaluated on a discrete time grid with exact mode-wise heat factors and
linear-in-time interpolation of the nonlinearity (second-order quadrature).
The local horizon follows the subcritical scaling T = c A^-4 for data of
H^1 size A, capped at 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral_field import (
    GridSpec,
    SpectralField,
    _norm_weights,
    _wavenumbers,
    _write_json,
    hs_norm,
    nonlinear_term,
)
from .semigroup_flow import Trajectory, heat_propagate

__all__ = [
    "TimeGrid",
    "TrajectoryX",
    "PicardReport",
    "xt_norm",
    "local_time",
    "heat_trajectory",
    "phi_map",
    "picard_solve",
    "tail_decay_profile",
    "TailDecayProfile",
    "report_to_json",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_j = j T / intervals on [0, T], j = 0..intervals, with
    trapezoid quadrature weights."""

    T: float
    intervals: int

    def __post_init__(self):
        if not 0 < self.T < math.inf:  # NaN fails too
            raise ValueError("time grid horizon T must be positive and finite")
        if self.intervals < 8:
            raise ValueError("time grid needs at least 8 sub-intervals")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.intervals + 1)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def trapezoid_weights(self) -> np.ndarray:
        h = self.widths
        w = np.zeros(self.intervals + 1)
        w[:-1] += 0.5 * h
        w[1:] += 0.5 * h
        return w


@dataclass
class TrajectoryX:
    """A discrete space-time field: one spectral field per time node."""

    grid: GridSpec
    tgrid: TimeGrid
    fields: list

    def __post_init__(self):
        if len(self.fields) != self.tgrid.intervals + 1:
            raise ValueError("need exactly one field per time node")

    def __sub__(self, other: "TrajectoryX") -> "TrajectoryX":
        if self.grid != other.grid or self.tgrid != other.tgrid:
            raise ValueError("trajectory grids do not match")
        diffs = [a - b for a, b in zip(self.fields, other.fields)]
        return TrajectoryX(self.grid, self.tgrid, diffs)


@dataclass
class PicardReport:
    """Convergence record of one fixed-point solve."""

    iterate_count: int
    T_used: float
    c_used: float
    A_measured: float
    x1_norms: list[float]
    diff_norms: list[float]
    contraction_factors: list[float]
    converged: bool
    diverged: bool = False

    @property
    def bound_constant(self) -> float:
        """Measured ratio of the final space-time norm to the data's H^1 size."""
        if self.A_measured == 0.0:
            return 0.0
        return self.x1_norms[-1] / self.A_measured


def xt_norm(u: TrajectoryX, s: float) -> float:
    """Space-time norm: sup-in-time H^s plus the L^2-in-time H^(s+1) integral,
    the latter by trapezoid quadrature over the trajectory's nodes."""
    sup = max(hs_norm(f, s) for f in u.fields)
    w = u.tgrid.trapezoid_weights
    sq = sum(wi * hs_norm(f, s + 1.0) ** 2 for wi, f in zip(w, u.fields))
    return sup + math.sqrt(sq)


def local_time(A: float, c: float) -> float:
    """Local existence horizon c A^-4, capped at the short-term window 1."""
    if A < 0:
        raise ValueError("A must be nonnegative")
    if c <= 0:
        raise ValueError("c must be positive")
    if A == 0.0:
        return 1.0
    return min(c * A**-4, 1.0)


def heat_trajectory(u0: SpectralField, tgrid: TimeGrid) -> TrajectoryX:
    """Exact heat flow of u0 sampled on a time grid (the canonical seed)."""
    fields = [heat_propagate(u0, float(t)) for t in tgrid.nodes]
    return TrajectoryX(u0.grid, tgrid, fields)


def _duhamel_weights(k2: np.ndarray, h: float):
    """Exact integrals over one sub-interval of e^((t_next - t') L) times the
    linear interpolant basis: returns (decay, a0, a1) with
        decay = e^(-|k|^2 h), a0 = (1 - e^(-x)) / lam, a1 = (h - a0) / lam,
    x = lam h, continuously extended by (h, h^2/2) at lam = 0."""
    lam = np.where(k2 > 0, k2, 1.0)
    x = lam * h
    a0 = -np.expm1(-x) / lam
    a1 = (h - a0) / lam
    a0 = np.where(k2 > 0, a0, h)
    a1 = np.where(k2 > 0, a1, 0.5 * h * h)
    return np.exp(-k2 * h), a0, a1


def phi_map(u: TrajectoryX, u0: SpectralField) -> TrajectoryX:
    """One application of the Duhamel map to a discrete trajectory.

    The heat factor is applied exactly mode-wise; the nonlinearity is
    evaluated at every node and interpolated linearly in time inside the
    per-interval exponential quadrature.  Output at t=0 is exactly u0.  The
    time grid is uniform, so the quadrature weights are computed once.
    """
    if u0.grid != u.grid:
        raise ValueError("initial datum and trajectory use different grids")
    widths = u.tgrid.widths
    _, k2, _ = _wavenumbers(u.grid)
    g = [nonlinear_term(f).coef for f in u.fields]
    decay, a0, a1 = _duhamel_weights(k2, float(widths[0]))

    out = [u0.copy()]
    homog = u0.coef
    integral = np.zeros_like(u0.coef)
    for j, h in enumerate(widths):
        slope = (g[j + 1] - g[j]) / h
        integral = decay * integral + a0 * g[j] + a1 * slope
        homog = decay * homog
        out.append(SpectralField(u.grid, homog + integral))
    return TrajectoryX(u.grid, u.tgrid, out)


def picard_solve(
    u0: SpectralField,
    c: float = 0.01,
    tol: float = 1e-10,
    max_iter: int = 40,
    auto_shrink: bool = False,
) -> tuple[TrajectoryX, PicardReport]:
    """Iterate the Duhamel map to its fixed point on [0, min(c A^-4, 1)].

    Works on a uniform 64-interval time grid, starts from the heat flow of
    u0 and stops once successive iterates are within ``tol`` in the
    space-time norm; every iterate equals u0 exactly at t = 0.
    Non-convergence within ``max_iter`` returns converged=False (the
    chosen c is too large for this datum); with ``auto_shrink`` the horizon
    constant is halved and the solve retried, up to 6 times.  Iterates that
    leave a generous ball or whose successive differences double are
    aborted with the diverged flag.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    A = hs_norm(u0, 1.0)
    retries = 6 if auto_shrink else 0
    c_try = c
    result = None
    for _ in range(retries + 1):
        result = _picard_attempt(u0, A, c_try, tol, max_iter)
        if result[1].converged:
            return result
        c_try *= 0.5
    return result


def _picard_attempt(u0, A, c, tol, max_iter):
    T = local_time(A, c)
    current = heat_trajectory(u0, TimeGrid(T, 64))
    x1_norms = [xt_norm(current, 1.0)]
    diff_norms: list[float] = []
    factors: list[float] = []
    ball = 10.0 * max(x1_norms[0], A, 1e-300)
    converged = False
    diverged = False
    for _ in range(max_iter):
        nxt = phi_map(current, u0)
        x1 = xt_norm(nxt, 1.0)
        d = xt_norm(nxt - current, 1.0)
        x1_norms.append(x1)
        diff_norms.append(d)
        if len(diff_norms) >= 2:
            prev = diff_norms[-2]
            factors.append(d / prev if prev > 0 else 0.0)
        current = nxt
        if d <= tol:
            converged = True
            break
        if not np.isfinite(d) or x1 > ball or (
            factors and factors[-1] > 2.0 and d > 100.0 * tol
        ):
            diverged = True
            break
    report = PicardReport(
        iterate_count=len(x1_norms),
        T_used=T,
        c_used=c,
        A_measured=A,
        x1_norms=x1_norms,
        diff_norms=diff_norms,
        contraction_factors=factors,
        converged=converged,
        diverged=diverged,
    )
    return current, report


@dataclass
class TailDecayProfile:
    """High-frequency mass ratios (|k| > K/2 over all modes) per time node."""

    times: np.ndarray
    ratios: dict = field(default_factory=dict)  # s -> array of ratios


def _tail_ratio(f: SpectralField, s: float, k2_thresh: float) -> float:
    w = _norm_weights(f.grid, float(s))
    _, k2, _ = _wavenumbers(f.grid)
    mag2 = np.einsum("cxyz->xyz", f.coef.real**2 + f.coef.imag**2)
    total = float(np.sum(w * mag2))
    if total == 0.0:
        return 0.0
    tail = float(np.sum((w * mag2)[k2 > k2_thresh]))
    return math.sqrt(tail / total)


def tail_decay_profile(u, s_values=(1.0, 1.5)) -> TailDecayProfile:
    """Spectral-tail report for a discrete trajectory.

    Accepts a fixed-point trajectory (fields at every node) or a simulated
    one (thinned fields).  For smoothing flows the ratios shrink in time,
    which is the computable face of instantaneous interior regularity.
    """
    if isinstance(u, TrajectoryX):
        times, fields = u.tgrid.nodes, u.fields
    elif isinstance(u, Trajectory):
        times, fields = u.field_times, u.fields
    else:
        raise TypeError("expected a TrajectoryX or Trajectory")
    grid = fields[0].grid
    thresh = (grid.cutoff / 2.0) ** 2
    profile = TailDecayProfile(np.asarray(times, dtype=np.float64))
    for s in s_values:
        profile.ratios[s] = np.array([_tail_ratio(f, s, thresh) for f in fields])
    return profile


def report_to_json(report: PicardReport, path=None) -> str:
    """Serialize a PicardReport; returns the JSON text, optionally writing it."""
    obj = {
        "iterate_count": report.iterate_count,
        "T_used": report.T_used,
        "c_used": report.c_used,
        "A_measured": report.A_measured,
        "x1_norms": list(report.x1_norms),
        "diff_norms": list(report.diff_norms),
        "contraction_factors": list(report.contraction_factors),
        "converged": report.converged,
    }
    return _write_json(obj, path)
