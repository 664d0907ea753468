"""Fixed-point solution of the mild formulation on a short time interval.

The contraction map applied here is
    Phi(u)(t) = e^(t L) u0 + int_0^t e^((t-t') L) D(u (x) u)(t') dt'
evaluated on a discrete time grid with exact mode-wise heat factors and
linear-in-time interpolation of the nonlinearity (second-order quadrature).
The local horizon follows the subcritical scaling T = c A^-4 for data of
H^1 size A, capped at 1.
"""

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .spectral_field import (
    GridSpec,
    SpectralField,
    _nonlinear_stack,
    _require_projected,
    _wavenumbers,
    _write_json,
    hs_norm,
)
from .semigroup_flow import _split, _stack_size, _stack_threads, heat_propagate

__all__ = [
    "TrajectoryX",
    "PicardReport",
    "xt_norm",
    "local_time",
    "heat_trajectory",
    "phi_map",
    "picard_solve",
]

INTERVALS = 64  # of picard_solve's time grid


@dataclass
class TrajectoryX:
    """A discrete space-time field: one spectral field per uniform node
    t_j = j T / (len(fields) - 1) on [0, T], at least 8 sub-intervals, with
    trapezoid quadrature weights.  The node spacing must be a normal float:
    :func:`phi_map` divides by it, and 1 / spacing overflows below that."""

    T: float
    fields: list

    def __post_init__(self):
        if not 0 < self.T < math.inf:  # NaN fails too
            raise ValueError("trajectory horizon T must be positive and finite")
        if len(self.fields) < 9:
            raise ValueError("trajectory needs at least 8 sub-intervals")
        if _spacing_underflows(self.T, len(self.fields) - 1):
            raise ValueError("trajectory node spacing T / intervals underflows "
                             "below the smallest normal float")
        if any(f.grid != self.grid for f in self.fields[1:]):
            raise ValueError("trajectory fields lie on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.fields[0].grid

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, len(self.fields))

    @property
    def trapezoid_weights(self) -> np.ndarray:
        h = np.diff(self.nodes)
        w = np.zeros(len(self.fields))
        w[:-1] += 0.5 * h
        w[1:] += 0.5 * h
        return w

    def __sub__(self, other: "TrajectoryX") -> "TrajectoryX":
        return TrajectoryX(self.T, list(_node_differences(self, other)))


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

    def to_json(self, path=None) -> str:
        return _write_json(asdict(self), path)


def xt_norm(u: TrajectoryX, s: float, minus: TrajectoryX | None = None) -> float:
    """Space-time norm: sup-in-time H^s plus the L^2-in-time H^(s+1) integral,
    the latter by trapezoid quadrature over the trajectory's nodes.

    With ``minus`` it is the norm of ``u - minus``, formed one node at a
    time rather than as a whole difference trajectory; the value is bitwise
    ``xt_norm(u - minus, s)``.
    """
    fields = u.fields if minus is None else _node_differences(u, minus)
    norms = [(hs_norm(f, s), hs_norm(f, s + 1.0)) for f in fields]  # one pass
    sup = max(a for a, _ in norms)
    sq = sum(wi * b**2 for wi, (_, b) in zip(u.trapezoid_weights, norms))
    return sup + math.sqrt(sq)


def _node_differences(u: TrajectoryX, v: TrajectoryX):
    """``u - v`` node by node, lazily; the trajectories must share T, node
    count and grid."""
    if (u.T, len(u.fields), u.grid) != (v.T, len(v.fields), v.grid):
        raise ValueError("trajectory grids do not match")
    return (a - b for a, b in zip(u.fields, v.fields))


def local_time(A: float, c: float) -> float:
    """Local existence horizon c A^-4, capped at 1."""
    if not A >= 0:  # NaN fails too
        raise ValueError("A must be nonnegative")
    if not 0 < c < math.inf:  # NaN fails too
        raise ValueError("c must be positive and finite")
    if A == 0.0:
        return 1.0
    return min(c * A**-4, 1.0)


def heat_trajectory(u0: SpectralField, T: float, intervals: int) -> TrajectoryX:
    """Exact heat flow of u0 sampled on ``intervals`` uniform sub-intervals
    of [0, T] (the canonical seed)."""
    nodes = np.linspace(0.0, T, intervals + 1)
    return TrajectoryX(T, [heat_propagate(u0, float(t)) for t in nodes])


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

    The nodes' nonlinear terms are evaluated in the stacks a lockstep march
    would use on this grid (``_split`` by ``_stack_size``), on its threads
    (``_stack_threads``).  Every stack is checked first, in node order, as
    :func:`~mildns.spectral_field.nonlinear_term` checks its input, so the
    first faulty node is the one reported.  Every term is bitwise that of
    the node alone, and the helper threads end before the map returns.
    """
    if u0.grid != u.grid:
        raise ValueError("initial datum and trajectory use different grids")
    _require_projected(u0.coef[None], u0.grid)
    widths = np.diff(u.nodes)
    _, k2, _ = _wavenumbers(u.grid)
    pairs = _split(len(u.fields), _stack_size(u.grid))

    def stack(pair):
        return np.stack([f.coef for f in u.fields[slice(*pair)]])

    for pair in pairs:
        _require_projected(stack(pair), u.grid)
    # each stack is built again where its terms are computed, so the node
    # copies are never all alive at once
    with _stack_threads(len(pairs)) as run:
        terms = run(lambda pair: _nonlinear_stack(stack(pair), u.grid), pairs)
    g = [row for rows in terms for row in rows]
    decay, a0, a1 = _duhamel_weights(k2, float(widths[0]))

    out = [u0.copy()]
    homog = u0.coef
    integral = np.zeros_like(u0.coef)
    for j, h in enumerate(widths):
        slope = (g[j + 1] - g[j]) / h
        integral = decay * integral + a0 * g[j] + a1 * slope
        homog = decay * homog
        out.append(SpectralField(u.grid, homog + integral))
    return TrajectoryX(u.T, out)


def picard_solve(
    u0: SpectralField,
    c: float = 0.01,
    tol: float = 1e-10,
    max_iter: int = 40,
) -> tuple[TrajectoryX, PicardReport]:
    """Iterate the Duhamel map to its fixed point on [0, min(c A^-4, 1)].

    Works on a uniform 64-interval time grid, starts from the heat flow of
    u0 and stops once successive iterates are within ``tol`` in the
    space-time norm; every iterate equals u0 exactly at t = 0.
    Non-convergence within ``max_iter`` returns converged=False (the
    chosen c is too large for this datum).  Iterates that leave a generous
    ball or whose successive differences double are aborted early,
    unconverged.  Raises ValueError, naming c and A, if the horizon's node
    spacing underflows.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    A = hs_norm(u0, 1.0)
    T = local_time(A, c)
    if _spacing_underflows(T, INTERVALS):
        raise ValueError(f"the local horizon c A^-4 underflows to 0 at c={c:g}, A={A:g}")
    current = heat_trajectory(u0, T, INTERVALS)
    x1_norms = [xt_norm(current, 1.0)]
    diff_norms: list[float] = []
    factors: list[float] = []
    ball = 10.0 * max(x1_norms[0], A, 1e-300)
    converged = False
    for _ in range(max_iter):
        nxt = phi_map(current, u0)
        x1 = xt_norm(nxt, 1.0)
        d = xt_norm(nxt, 1.0, minus=current)
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
    )
    return current, report


def _spacing_underflows(T: float, intervals: int) -> bool:
    return not T / intervals >= sys.float_info.min
