"""Heat semigroup and integrating-factor RK4 time stepping.

The evolution integrated here is the mean-zero, unit-viscosity system
du/dt = Laplace(u) + D(u (x) u) in Fourier space, where the linear part is
diagonal (-|k|^2 per mode) and handled exactly by the integrating factor.
"""

import contextlib
import csv
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .spectral_field import (
    STACK_SIZE,
    GridSpec,
    SpectralField,
    _nonlinear_stack,
    _norm_weights,
    _require_projected,
    _stack_size,
    _wavenumbers,
    divergence_linf,
    hs_norm,
    nonlinear_term,
)

__all__ = [
    "NormSeries",
    "Trajectory",
    "BlowupError",
    "heat_propagate",
    "smoothing_ratio",
    "march",
    "simulate",
    "sup_distances",
    "norms_to_csv",
    "norms_from_csv",
]

CSV_COLUMNS = ("t", "l2", "h1", "enstrophy", "div_linf")
# Most threads that step the stacks of one stacked transform (a march's
# states, the Duhamel map's nodes).  The gain and the memory cost (the extra
# thread's transform workspace and temporaries, about 6 MB at N = 32) were
# measured at two.
LOCKSTEP_THREADS = 2
# Most steps a march may plan: a longer run is refused rather than left to hang.
MAX_STEPS = 10**7


@dataclass
class NormSeries:
    """Sampled norm history of one solution: L^2, H^1, divergence."""

    times: np.ndarray
    l2: np.ndarray
    h1: np.ndarray
    div_linf: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64) for a in
                  (self.times, self.l2, self.h1, self.div_linf)]
        self.times, self.l2, self.h1, self.div_linf = arrays
        n = self.times.size
        if any(a.size != n for a in arrays):
            raise ValueError("norm series arrays must have equal length")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if any(np.any(a < 0) for a in arrays[1:]):
            raise ValueError("norm values must be nonnegative")


@dataclass
class Trajectory:
    """One simulated solution: norm series every step, fields thinned."""

    norm_series: NormSeries
    field_times: np.ndarray
    fields: list = field(default_factory=list)


class BlowupError(RuntimeError):
    """Raised when a state of a run leaves its Galerkin ball (see
    :func:`march`), a failed time step.  Carries the step's end ``time``,
    the state's last value inside the ball and, when raised from
    :func:`simulate`, the partial trajectory."""

    def __init__(self, message, time=None, last_field=None, trajectory=None):
        super().__init__(message)
        self.time = time
        self.last_field = last_field
        self.trajectory = trajectory


def heat_propagate(f: SpectralField, t: float) -> SpectralField:
    """Exact heat flow: multiply mode k by exp(-|k|^2 t).  Requires a finite
    t >= 0 (at t = inf the k = 0 slots would read 0 * exp(-0 * inf) = NaN)."""
    if not 0 <= t < math.inf:  # NaN fails too
        raise ValueError("heat flow runs forward in time only (finite t >= 0)")
    _, k2, _ = _wavenumbers(f.grid)
    return SpectralField(f.grid, f.coef * np.exp(-k2 * t))


def smoothing_ratio(f: SpectralField, s: float, delta: float, t: float) -> float:
    """Parabolic smoothing quotient t^(d/2) |e^(tL) f|_{s+d} / |f|_s.

    Bounded by sup_{x>=0} x^(d/2) e^(-x) for any mean-zero f; undefined for
    the zero field.
    """
    if not 0 < t < math.inf:  # NaN fails too
        raise ValueError("smoothing ratio needs t > 0 and finite")
    if not delta > 0:
        raise ValueError("smoothing ratio needs delta > 0")
    denom = hs_norm(f, s)
    if denom == 0.0:
        raise ValueError("smoothing ratio undefined for the zero field")
    return t ** (delta / 2.0) * hs_norm(heat_propagate(f, t), s + delta) / denom


def _decay_factors(grid: GridSpec, h: float):
    _, k2, _ = _wavenumbers(grid)
    return np.exp(-k2 * (0.5 * h)), np.exp(-k2 * h)


def _if_rk4_step(coefs: np.ndarray, grid: GridSpec, h: float, e_half, e_full):
    """One integrating-factor RK4 step of each state of a stack (B, 3, M, M,
    K+1); returns the stepped stack.

    The substitution v = exp(|k|^2 t) u makes the stiff linear part exact;
    classical RK4 is applied to the transformed nonlinearity.  With a zero
    nonlinearity the step reduces to the exact heat propagator.  The stage
    arithmetic broadcasts over the stack, and the stacked transforms treat
    each row as alone, so every row is bitwise the step of that state alone,
    whatever its neighbours hold.  A row whose stages overflow comes out
    non-finite (an inf spreads to NaN through the transforms).  The stage
    inputs are not checked again: each is built from the stack and projected
    nonlinear terms, and :func:`march` checks the data it starts from.
    """
    if len(coefs) == 1:
        # a lone state goes through nonlinear_term, the name perfbench's tracer
        # counts, until that tracer reads the stacked transforms (ROADMAP item 1)
        def term(c):
            return nonlinear_term(SpectralField(grid, c[0]), check=False).coef[None]
    else:
        def term(c):
            return _nonlinear_stack(c, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        n1 = term(coefs)
        u2 = e_half * (coefs + (0.5 * h) * n1)
        n2 = term(u2)
        del u2  # stages are dropped as soon as they are used: less peak memory
        u3 = e_half * coefs + (0.5 * h) * n2
        n3 = term(u3)
        del u3
        u4 = e_full * coefs + h * (e_half * n3)
        n4 = term(u4)
        return e_full * coefs + (h / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)


def _plan_steps(T: float, dt: float):
    """Number of steps of a march to T: T / dt rounded up, so that the last
    step, which :func:`march` shortens to land exactly on T, is at most dt."""
    return max(1, int(np.ceil(T / dt - 1e-9)))


def march(states, T: float, dt: float):
    """Advance several states in lockstep from 0 to T with IF-RK4 steps.

    Returns a generator yielding ``(t, states)``: first ``(0.0, states)``
    with the data as given, then a new list once after every step.  All
    states share one step plan: steps of size dt, the last one shortened to
    land exactly on T, so only the final yield has ``t == T``.  Arguments
    are checked before the generator is returned (ValueError otherwise):
    finite T > 0 and dt > 0, at most MAX_STEPS steps (T / dt), each datum once
    for the finite, divergence-free input the nonlinear term needs.
    A state retires when a step takes it outside its Galerkin ball
    |u|_H1^2 <= 3K^2 |u0|_L2^2 (relative slack 1e-12), which the truncated
    flow never leaves (every |k|^2 <= 3K^2, and the flux does no work on
    L^2), so only a failed step, non-finite ones included, does: its slot
    reads None from that step on, and the other states march on unchanged.
    Once every state has retired the march ends, before T.

    Below ``UNSTACKED_PAD_SIZE`` points per axis of the padded grid the
    states are stepped in balanced stacks of up to STACK_SIZE (``_split``),
    which share the Python glue around the FFTs; at or above it each state
    is stepped alone.  Two or more stacks are stepped on up to
    LOCKSTEP_THREADS threads, one per usable core (``_stack_threads``).
    The stacks are fixed for the whole march: a retired state's row stays
    in its stack and is stepped, unread, until the march ends.  Every
    state's arithmetic is unchanged either way, so the results are bitwise
    those of a march of that state alone.  The helper threads end when the
    generator finishes or is closed.
    """
    states = list(states)
    if not 0 < T < math.inf:  # NaN fails too
        raise ValueError(f"horizon T must be positive and finite, got {T!r}")
    if not 0 < dt < math.inf:  # NaN fails too
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if T / dt > MAX_STEPS:  # inf where T / dt overflows
        raise ValueError(f"dt = {dt:.6g} plans {T / dt:.6g} steps, over the limit of {MAX_STEPS}")
    if not states:
        raise ValueError("nothing to march")
    grid = states[0].grid
    if any(u.grid != grid for u in states[1:]):
        raise ValueError("grid mismatch between the initial data")
    _require_projected(np.stack([u.coef for u in states]), grid)
    return _lockstep(states, grid, T, dt)


def _lockstep(states, grid: GridSpec, T: float, dt: float):
    yield 0.0, states
    n = _plan_steps(T, dt)
    full = _decay_factors(grid, dt) if n > 1 else None
    # fixed for the whole march: a retired state's row stays in its stack,
    # stepped but unread, until the march ends; a lone state's stack is a
    # view of its data, not a copy
    stacks = [states[a].coef[None] if b - a == 1 else np.stack([u.coef for u in states[a:b]])
              for a, b in _split(len(states), _stack_size(grid))]
    # each state's Galerkin ball (see march), capped so that inf lies outside
    with np.errstate(over="ignore"):
        ball = np.minimum(3.0 * (1.0 + 1e-12) * grid.cutoff**2
                          * _squared_norms(stacks, _norm_weights(grid, 0.0)), np.finfo(float).max)
    live = np.ones(len(states), dtype=bool)
    # the helper threads start after the t = 0 yield and end when the
    # generator finishes or is closed, so none outlives the march
    with _stack_threads(len(stacks)) as run:
        for i in range(n):
            last = i == n - 1
            if last:
                h = T - i * dt
                e_half, e_full = _decay_factors(grid, h)
            else:
                h, (e_half, e_full) = dt, full
            t = T if last else (i + 1) * dt
            stacks = run(lambda c: _if_rk4_step(c, grid, h, e_half, e_full), stacks)
            live &= _squared_norms(stacks, _norm_weights(grid, 1.0)) <= ball  # NaN fails too
            states = [SpectralField(grid, row) if ok else None
                      for ok, row in zip(live, (row for c in stacks for row in c))]
            yield t, states
            if not live.any():
                return


@contextlib.contextmanager
def _stack_threads(count: int):
    """The threads of a stacked transform of ``count`` stacks: ``w =
    _worker_count(count)``, the calling thread and ``w - 1`` helpers that
    end with the block.  Yields ``run(fn, stacks)``, which returns ``[fn(c)
    for c in stacks]`` in stack order (a stack may be given by anything
    ``fn`` takes); the calling thread computes ``stacks[0::w]`` and helper
    ``r`` computes ``stacks[r::w]``."""
    w = _worker_count(count)
    if w == 1:
        yield _each
        return
    # imported here so that only threaded transforms pay for the import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(w - 1, thread_name_prefix="lockstep") as pool:
        def run(fn, stacks):
            helpers = [pool.submit(_each, fn, stacks[r::w]) for r in range(1, w)]
            out = list(stacks)
            out[0::w] = _each(fn, stacks[0::w])
            for r, future in enumerate(helpers, start=1):
                out[r::w] = future.result()
            return out

        yield run


def _each(fn, stacks) -> list:
    return [fn(c) for c in stacks]


def _worker_count(stacks: int) -> int:
    """Threads that compute a stacked transform of ``stacks`` stacks: one
    per stack and usable core, at most LOCKSTEP_THREADS."""
    return min(stacks, LOCKSTEP_THREADS, _usable_cores())


def _split(count: int, size: int, parts: int = 1) -> list:
    """Contiguous ``(start, stop)`` pairs covering ``range(count)``: at least
    ``parts`` (given ``parts <= count``), each at most ``size`` long, their
    lengths differing by at most one.  Cuts every stack and ensemble chunk."""
    n = max(parts, -(-count // size))
    bounds = [count * k // n for k in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def _usable_cores() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):  # Linux only
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _squared_norms(stacks, w):
    """Squared norm with mode weights ``w`` (from ``_norm_weights``) of each
    state of each stack, in order; NaN or inf for a non-finite state."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([np.einsum("bcxyz,xyz->b", c.real**2 + c.imag**2, w)
                               for c in stacks])


def _unretired(steps):
    """Pass on a march's ``(t, states)`` up to the first step that retired a
    state, which raises :class:`BlowupError` instead, with the step's end
    time and the first retired state in list order as it was before the
    step.  The march is closed first, so its helper threads end with it."""
    before = None
    for t, states in steps:
        lost = [u for u, v in zip(before or states, states) if v is None]
        if lost:
            steps.close()
            raise BlowupError(f"left the Galerkin ball |u|_H1 <= sqrt(3) K |u0|_L2 "
                              f"at t={t:.6g}", time=t, last_field=lost[0])
        before = states  # rebound before the yield: no older states stay alive
        yield t, states


def simulate(u0: SpectralField, T: float, dt: float, store_every: int = 1) -> Trajectory:
    """March the mild evolution from 0 to T, recording norms at t = 0 and
    after every step.

    Fields are stored at t = 0, every ``store_every`` steps and at the time
    the run ended, so ``fields[-1]`` is the state of the last norms row.
    Raises :class:`BlowupError` with the partial trajectory attached if a
    step leaves the Galerkin ball of ``u0`` (see :func:`march`); the run
    then ends at the last step inside it.

    The step size is taken as given and never adapted (reproducibility of
    seeded ensembles).  Guidance, not enforced: with cutoff K the stiffest
    retained modes relax on the 1/(3K^2) scale, so dt <= 1/(2K^2) keeps the
    nonlinear stages accurate at desk resolutions.
    """
    if not isinstance(store_every, numbers.Integral) or store_every < 1:
        raise ValueError(f"store_every must be an integer >= 1, got {store_every!r}")
    steps = _unretired(march([u0], T, dt))  # march checks T and dt
    # rows t, L2, H1, div_linf, a column per yield: 32 bytes a step
    norms = np.empty((4, _plan_steps(T, dt) + 1))
    fields, field_times = [], []

    def partial() -> Trajectory:
        return Trajectory(NormSeries(*norms[:, :i + 1]), np.asarray(field_times), fields)

    try:
        for i, (t, (u,)) in enumerate(steps):
            norms[:, i] = t, hs_norm(u, 0.0), hs_norm(u, 1.0), divergence_linf(u)
            if i % store_every == 0 or t == T:
                fields.append(u.copy())
                field_times.append(t)
    except BlowupError as exc:
        if field_times[-1] != t:
            fields.append(exc.last_field)
            field_times.append(t)
        exc.trajectory = partial()
        raise
    return partial()


def sup_distances(
    base: SpectralField,
    others,
    T: float,
    dt: float,
    t_min: float = 0.0,
) -> list[tuple[float, float]]:
    """Largest H^1 distance from the base run to each other run, over step
    times >= t_min (t = 0 included when t_min is 0).

    The base and every other datum march once, in lockstep on one step
    plan, so the result is independent of any field-storage thinning.
    Returns one (supremum, time attained) pair per entry of ``others``.
    """
    others = list(others)
    eps = 1e-12
    if not T >= t_min - eps:  # NaN fails too
        raise ValueError("no step times fall inside the comparison window")
    best = [(-1.0, 0.0)] * len(others)
    for t, states in _unretired(march([base, *others], T, dt)):
        if t >= t_min - eps:
            for j, u in enumerate(states[1:]):
                d = hs_norm(u - states[0], 1.0)
                if d > best[j][0]:
                    best[j] = (d, t)
    return best


def norms_to_csv(series: NormSeries, path) -> None:
    """Write the norm series as CSV with 17-significant-digit floats; the
    enstrophy column is h1**2 (inf where that is beyond the float range)."""
    with np.errstate(over="ignore"):
        enstrophy = series.h1**2
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in zip(series.times, series.l2, series.h1,
                       enstrophy, series.div_linf):
            writer.writerow([f"{v:.17g}" for v in row])


def norms_from_csv(path) -> NormSeries:
    """Read a norm series written by :func:`norms_to_csv`, dropping the
    enstrophy column (it is h1**2).  A row with more or fewer fields than
    the header raises ValueError naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        cols = [[] for _ in CSV_COLUMNS]
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num} has {len(row)} fields, not {len(header)}")
            for c, v in zip(cols, row):
                c.append(float(v))
    arrays = [np.asarray(c) for c in cols]
    return NormSeries(arrays[0], arrays[1], arrays[2], arrays[4])
