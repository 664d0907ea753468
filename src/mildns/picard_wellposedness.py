"""Fixed-point solution of the mild formulation on a short time interval.

The contraction map applied here is
    Phi(u)(t) = e^(t L) u0 + int_0^t e^((t-t') L) D(u (x) u)(t') dt'
evaluated on a discrete time grid with exact mode-wise heat factors and
cubic-in-time interpolation of the nonlinearity through four neighbouring
nodes (fourth-order quadrature, with the phi-function weights of
exponential integrators).
The local horizon follows the subcritical scaling T = c A^-4 for data of
H^1 size A, capped at 1.
"""

import math
import numbers
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .spectral_field import (
    GridSpec,
    SpectralField,
    _nonlinear_stack,
    _require_projected,
    _stack_norms,
    _wavenumbers,
    _write_json,
    hs_norm,
)
from .semigroup_flow import _simpson_pairs, _split, _stack_size, _stack_threads, heat_propagate

__all__ = [
    "TrajectoryX",
    "PicardReport",
    "xt_norm",
    "local_time",
    "heat_trajectory",
    "phi_map",
    "picard_solve",
]

INTERVALS = 32  # of picard_solve's time grid

# The nonlinearity is interpolated on each sub-interval [t_j, t_j+1] by the
# cubic through four nodes, at offsets from j: the first interval's, an
# interior one's and the last one's.  _LAGRANGE[s, m, i] is the coefficient
# of tau^m, tau = (t - t_j) / h, in the basis polynomial of node i of
# stencil s (the inverse of the stencil's Vandermonde matrix).
_STENCILS = ((0, 1, 2, 3), (-1, 0, 1, 2), (-2, -1, 0, 1))
_LAGRANGE = np.linalg.inv(np.array(_STENCILS, dtype=float)[..., None] ** np.arange(4))
_LAGRANGE.setflags(write=False)
# terms of phi_4's Taylor series below x = 2: term j is at most
# 2^j / (j + 4)!, so the first one left out is below 1e-22
_TAYLOR_TERMS = 24


@dataclass
class TrajectoryX:
    """A discrete space-time field: one spectral field per uniform node
    t_j = j T / (len(fields) - 1) on [0, T], at least 8 sub-intervals.  The
    node spacing must be a normal float: :func:`phi_map` and
    :func:`xt_norm` scale their weights by it, and a subnormal spacing
    carries fewer significant bits."""

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


def xt_norm(u: TrajectoryX, s: float) -> float:
    """Space-time norm: sup-in-time H^s plus the L^2-in-time H^(s+1) integral,
    the latter by the energy check's Simpson rule scaled by the node spacing.

    The nodes are read in the stacks a lockstep march would use on this grid
    (``_split`` by ``_stack_size``) with ``_stack_norms``, so each node's
    two norms are bitwise its ``hs_norm`` values.  The norm reads inf where
    its integral is beyond the float range.
    """
    return _xt_norms(u, s, [None])[0]


def _xt_norms(u: TrajectoryX, s: float, minus: list) -> list:
    """``xt_norm(u - v, s)`` for each ``v`` of ``minus`` (None for the norm
    of ``u`` itself), from one pass over the node stacks of ``u``; each
    difference is formed one stack at a time rather than as a whole
    trajectory, and its norm is bitwise that of ``u - v``.  Each ``v``
    must hold ``u``'s nodes on ``u``'s grid; the solve builds both so, and
    nothing checks it again."""
    norms = [[] for _ in minus]
    for pair in _split(len(u.fields), _stack_size(u.grid)):
        coefs = _node_stack(u, pair)
        for v, out in zip(minus, norms):
            c = coefs if v is None else coefs - _node_stack(v, pair)
            out += zip(*(_stack_norms(c, u.grid, t).tolist() for t in (s, s + 1.0)))
    # h * b**2 on unit steps: the unequal-step weights read 0/0 where h * h
    # underflows
    h, steps = u.T / (len(u.fields) - 1), np.arange(len(u.fields), dtype=float)
    with np.errstate(over="ignore"):  # a square beyond the float range reads inf
        return [max(a for a, _ in n)
                + math.sqrt(_simpson_pairs(steps, h * np.array([b for _, b in n]) ** 2)[2].sum())
                for n in norms]


def _node_stack(u: TrajectoryX, pair) -> np.ndarray:
    """The coefficients of the nodes ``range(*pair)`` of ``u``, stacked."""
    return np.stack([f.coef for f in u.fields[slice(*pair)]])


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
    """Exact integrals over one sub-interval [t_j, t_j + h] of
    e^(-|k|^2 (t_j + h - t')) times each cubic Lagrange basis polynomial of
    the three stencils: returns (decay, weights), decay = e^(-|k|^2 h) and
    weights[s][i] the weight of node i of stencil ``_STENCILS[s]``.

    With x = |k|^2 h the moments int_0^h e^(-|k|^2 (h - t)) (t/h)^m dt are
    h m! phi_(m+1)(-x), m = 0..3, with the phi-functions of exponential
    integrators.  Below x = 2 they come from phi_4's Taylor series and
    phi_k = 1/k! - x phi_(k+1); from there on from phi_0 = e^-x and
    phi_(k+1) = (1/k! - phi_k) / x.  Both directions are stable on their
    side, and x = 0 (the mean mode) is no special case."""
    x = k2 * h
    small = x < 2.0
    xs = np.where(small, x, 0.0)
    phi = [np.zeros_like(x)]  # phi_4 by Horner's rule, then phi_3, phi_2, phi_1
    for j in reversed(range(_TAYLOR_TERMS)):
        phi[0] = 1.0 / math.factorial(4 + j) - xs * phi[0]
    for k in (3, 2, 1):
        phi.insert(0, 1.0 / math.factorial(k) - xs * phi[0])
    xl = np.where(small, 2.0, x)
    upward = [np.exp(-xl)]  # phi_0, phi_1, .., phi_4
    for k in range(4):
        upward.append((1.0 / math.factorial(k) - upward[k]) / xl)
    moments = np.array([h * math.factorial(m) * np.where(small, phi[m], upward[m + 1])
                        for m in range(4)])
    return np.exp(-x), np.einsum("smi,m...->si...", _LAGRANGE, moments)


def phi_map(u: TrajectoryX, u0: SpectralField) -> TrajectoryX:
    """One application of the Duhamel map to a discrete trajectory.

    The heat factor is applied exactly mode-wise; the nonlinearity is
    evaluated at every node and interpolated in time, on each sub-interval,
    by the cubic through four neighbouring nodes (``_STENCILS``) inside the
    per-interval exponential quadrature.  Output at t=0 is exactly u0.  The
    time grid is uniform, so the quadrature weights are computed once.

    The nodes' nonlinear terms are evaluated in the stacks a lockstep march
    would use on this grid (``_split`` by ``_stack_size``), on its threads
    (``_stack_threads``).  ``u0`` and then every stack are checked, in node
    order, before the threads start, as
    :func:`~mildns.spectral_field.nonlinear_term` checks its input, so the
    first faulty node is the one reported.  Every term is bitwise that of
    the node alone, and the helper threads end before the map returns.
    """
    if u0.grid != u.grid:
        raise ValueError("initial datum and trajectory use different grids")
    _require_projected(u0.coef[None], u0.grid)
    pairs = _split(len(u.fields), _stack_size(u.grid))
    for pair in pairs:
        _require_projected(_node_stack(u, pair), u.grid)
    weights = _duhamel_weights(_wavenumbers(u.grid)[1], u.T / (len(u.fields) - 1))
    with _stack_threads(len(pairs)) as run:
        return _duhamel_map(u, u0, run, pairs, [], weights)


def _duhamel_map(u: TrajectoryX, u0: SpectralField, run, pairs, g: list,
                 weights) -> TrajectoryX:
    """The Duhamel map of ``u`` from ``u0``, given the nonlinear terms ``g``
    of the nodes before the stacks ``pairs`` (``(start, stop)`` node
    ranges that cover the rest), transformed by ``run`` from
    :func:`_stack_threads`, and :func:`_duhamel_weights` of the node
    spacing.  Its callers check every input first."""
    # each stack is built again where its terms are computed, so the node
    # copies are never all alive at once
    terms = run(lambda pair: _nonlinear_stack(_node_stack(u, pair), u.grid), pairs)
    g = [*g, *(row for rows in terms for row in rows)]
    decay, stencil_weights = weights
    n = len(g) - 1

    out = [u0.copy()]
    homog = u0.coef
    integral = np.zeros_like(u0.coef)
    for j in range(n):
        s = (j > 0) + (j == n - 1)  # first, interior or last stencil
        start = j + _STENCILS[s][0]
        integral = decay * integral
        for w, gi in zip(stencil_weights[s], g[start:start + 4]):
            integral += w * gi
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

    Works on a uniform time grid of ``INTERVALS`` (32) intervals, starts
    from the heat flow of u0 and stops once successive iterates are within
    ``tol`` (positive and finite) in the space-time norm; every iterate
    equals u0 exactly at t = 0.
    Non-convergence within ``max_iter`` (an integer >= 1) returns
    converged=False (the chosen c is too large for this datum).  Iterates
    that leave a generous ball or whose successive differences double are
    aborted early, unconverged.  Raises ValueError, naming c and A, if the
    horizon's node spacing underflows.

    Each iterate is bitwise :func:`phi_map` of the last, but the solve does
    the per-solve work once: u0 is checked, before its norm is read, and
    its nonlinear term, that of node 0 in every iterate, computed once, as
    are the quadrature weights; only nodes 1..32 are transformed per
    iterate, on one block of ``_stack_threads`` whose helper ends with the
    solve, and never checked (they are built from u0 and projected terms).
    Each iterate's norm and its distance to the last come from one pass
    over its node stacks.
    """
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    _require_projected(u0.coef[None], u0.grid)
    A = hs_norm(u0, 1.0)
    T = local_time(A, c)
    if _spacing_underflows(T, INTERVALS):
        raise ValueError(f"the local horizon c A^-4 underflows to 0 at c={c:g}, A={A:g}")
    g0 = list(_nonlinear_stack(u0.coef[None], u0.grid))
    pairs = [(a + 1, b + 1) for a, b in _split(INTERVALS, _stack_size(u0.grid))]
    weights = _duhamel_weights(_wavenumbers(u0.grid)[1], T / INTERVALS)
    current = heat_trajectory(u0, T, INTERVALS)  # node 0 is u0 bitwise: e^0 = 1
    x1_norms = [xt_norm(current, 1.0)]
    diff_norms: list[float] = []
    factors: list[float] = []
    ball = 10.0 * max(x1_norms[0], A, 1e-300)
    converged = False
    with _stack_threads(len(pairs)) as run:
        for _ in range(max_iter):
            nxt = _duhamel_map(current, u0, run, pairs, g0, weights)
            x1, d = _xt_norms(nxt, 1.0, [None, current])
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
