"""Fourier representation of mean-zero vector fields on the periodic 3-torus.

Conventions used throughout the package:

* the torus is [0, 2pi)^3 with characters exp(i k.x), k an integer 3-vector,
  so -Laplace has eigenvalue |k|^2 on mode k and its least non-trivial
  eigenvalue is 1;
* the measure is normalized to unit total mass, so Parseval reads
  mean(|f|^2) = sum_k |f_hat(k)|^2 with plain counting measure on modes;
* a field keeps the modes |k_i| <= K (the dealias cutoff) with k3 >= 0 in a
  dense complex array of shape (3, 2K+1, 2K+1, K+1), component axis first,
  index i mapping to k = i - K on the first two mode axes and to k3 = i on
  the last; the k3 < 0 modes are coef(-k) = conj(coef(k)) (a real field);
* the k = 0 slot [:, K, K, 0] is stored but pinned to zero (mean-zero).
"""

import json
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

__all__ = [
    "GridSpec",
    "SpectralField",
    "hs_norm",
    "leray_project",
    "divergence_linf",
    "nonlinear_term",
    "random_divfree",
    "named_flow",
    "single_mode_field",
    "sample_on_grid",
    "hermitian_residual",
    "save_nsf1",
    "load_nsf1",
]

FLOW_NAMES = ("shear", "taylor_green", "abc")


@dataclass(frozen=True)
class GridSpec:
    """Resolution and dealias cutoff of a spectral grid.

    ``n`` is the nominal number of collocation points per axis, ``cutoff``
    the largest retained integer frequency per axis.  ``cutoff=None`` picks
    the two-thirds rule floor(n/3).
    """

    n: int
    cutoff: int | None = None

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"resolution must be an even integer >= 4, got {self.n}")
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", self.n // 3)
        if not (1 <= self.cutoff <= self.n // 2 - 1):
            raise ValueError(
                f"cutoff must satisfy 1 <= K <= n/2 - 1, got K={self.cutoff} for n={self.n}"
            )

    @property
    def modes_per_axis(self) -> int:
        return 2 * self.cutoff + 1

    @property
    def pad_size(self) -> int:
        """Collocation points per axis making quadratic products alias-free.

        Products of two fields with modes in [-K, K] live in [-2K, 2K]; on a
        grid of P points their alias images shift by P, so P >= 3K + 1 keeps
        every image outside the retained cube.  Rounded up to even.
        """
        p = 3 * self.cutoff + 1
        return p if p % 2 == 0 else p + 1


@lru_cache(maxsize=None)
def _wavenumbers(grid: GridSpec):
    """Per-mode wavevector array (3,M,M,K+1), |k|^2, and 1/|k|^2 (0 at k=0)."""
    k1d = np.arange(-grid.cutoff, grid.cutoff + 1, dtype=np.float64)
    kv = np.stack(np.meshgrid(k1d, k1d, k1d[grid.cutoff:], indexing="ij"))
    k2 = np.einsum("cxyz,cxyz->xyz", kv, kv)
    inv_k2 = np.zeros_like(k2)
    nz = k2 > 0
    inv_k2[nz] = 1.0 / k2[nz]
    for a in (kv, k2, inv_k2):
        a.setflags(write=False)
    return kv, k2, inv_k2


@lru_cache(maxsize=None)
def _norm_weights(grid: GridSpec, s: float):
    """|k|^(2s), doubled off the k3=0 plane where a slot stands for k and -k,
    with the k=0 slot zeroed (mean-zero norms skip it)."""
    _, k2, _ = _wavenumbers(grid)
    w = np.zeros_like(k2)
    nz = k2 > 0
    w[nz] = k2[nz] ** s
    w[..., 1:] *= 2.0
    w.setflags(write=False)
    return w


@dataclass
class SpectralField:
    """Truncated Fourier coefficients of a real vector field on the torus.

    ``coef`` is the k3 >= 0 half of the mode cube, shape (3, M, M, K+1) with
    M = 2K+1; coef(-k) = conj(coef(k)) gives the rest and, on the k3=0 plane,
    relates stored modes.  Instances are value-like: every operation in this
    package returns a new field and never mutates its inputs, so fields are
    safe to share across threads.  The transform scratch buffers behind
    :func:`nonlinear_term` are per thread, and no returned array views them.
    """

    grid: GridSpec
    coef: np.ndarray

    def __post_init__(self):
        m, K = self.grid.modes_per_axis, self.grid.cutoff
        if self.coef.shape != (3, m, m, K + 1):
            raise ValueError(f"coefficient array must have shape (3, {m}, {m}, {K + 1}) "
                             f"(the k3 >= 0 half), got {self.coef.shape}")
        if self.coef.dtype != np.complex128:
            self.coef = self.coef.astype(np.complex128)

    @classmethod
    def zero(cls, grid: GridSpec) -> "SpectralField":
        m = grid.modes_per_axis
        return cls(grid, np.zeros((3, m, m, grid.cutoff + 1), dtype=np.complex128))

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coef.copy())

    def _combine(self, other, op):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("grid mismatch between spectral fields")
        return SpectralField(self.grid, op(self.coef, other.coef))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, a):
        if not isinstance(a, (int, float)):
            return NotImplemented
        return SpectralField(self.grid, self.coef * float(a))

    __rmul__ = __mul__


def hermitian_residual(f: SpectralField) -> float:
    """Max deviation from coef(-k) = conj(coef(k)) on the k3=0 plane, the
    only place both modes of a pair are stored; zero for real fields."""
    plane = f.coef[..., 0]
    return float(np.max(np.abs(plane - np.conj(plane[:, ::-1, ::-1]))))


def hs_norm(f: SpectralField, s: float) -> float:
    """Sobolev norm (sum over k != 0 of |k|^(2s) |coef(k)|^2)^(1/2).

    The squared Euclidean length of the complex coefficient 3-vector is
    summed per mode; ``s`` may be negative or fractional.  The zero field
    returns 0 for any ``s``.  Finite coefficients whose squares overflow
    are rescaled by the largest of them first, so the norm reads ``inf``
    only when it is beyond the float range itself, and never warns.
    """
    w = _norm_weights(f.grid, float(s))
    with np.errstate(over="ignore", invalid="ignore"):
        mag2 = f.coef.real**2 + f.coef.imag**2
        total = np.einsum("cxyz,xyz->", mag2, w)
        if not np.isfinite(total) and np.all(np.isfinite(f.coef)):
            # the squares overflow: rescale by the largest real or imaginary
            # part, which unlike a complex modulus cannot overflow itself
            big = np.max(np.abs(f.coef.view(np.float64)))
            c = f.coef / big
            return float(big * np.sqrt(np.einsum("cxyz,xyz->", c.real**2 + c.imag**2, w)))
    return float(np.sqrt(total))


def leray_project(f: SpectralField) -> SpectralField:
    """Apply the divergence-free projector (I - k k^T / |k|^2) per mode.

    Idempotent; annihilates gradient fields; leaves the k=0 slot untouched.
    """
    kv, _, inv_k2 = _wavenumbers(f.grid)
    kdotv = np.einsum("cxyz,cxyz->xyz", kv, f.coef)
    return SpectralField(f.grid, f.coef - kv * (kdotv * inv_k2))


def divergence_linf(f: SpectralField) -> float:
    """max_k |k . coef(k)|, the spectral divergence magnitude."""
    kv, _, _ = _wavenumbers(f.grid)
    kdotv = np.einsum("cxyz,cxyz->xyz", kv, f.coef)
    return float(np.max(np.abs(kdotv)))


def _blocks(K: int, P: int):
    """The four (field, rfft) slice pairs over (k1, k2) on P >= 2K+1 points
    per axis.  Per axis, k in 0..K sits at [K:] in the field and [:K+1] in
    the FFT layout, and k in -K..-1 at [:K] and [P-K:]; all four blocks are
    contiguous."""
    axis = ((slice(K, None), slice(None, K + 1)), (slice(None, K), slice(P - K, None)))
    return [(c1, c2, f1, f2) for c1, f1 in axis for c2, f2 in axis]


def _to_physical(coef: np.ndarray, K: int, half: np.ndarray) -> np.ndarray:
    """Evaluate components on P uniform collocation points per axis (real
    values), P = half.shape[1].  ``half`` is scratch space in the rfft
    layout, shape (nb, P, P, P//2+1); it is zeroed and overwritten.

    The inverse runs one axis at a time and skips the lines that are still
    all zero: c2c along axis 1 over the 2K+1 retained k2 columns of the
    k3 <= K slab, along axis 2 over that slab, then c2r along axis 3.  This
    is the axis order and scaling of pocketfft's own whole-cube irfftn, so
    the values are bitwise the same."""
    P = half.shape[1]
    half.fill(0.0)
    slab = half[..., : K + 1]
    for c1, c2, f1, f2 in _blocks(K, P):
        slab[:, f1, f2] = coef[:, c1, c2]
    for cols in (slice(None, K + 1), slice(P - K, None)):
        _fft.ifft(slab[:, :, cols], axis=1, norm="forward", overwrite_x=True)
    _fft.ifft(slab, axis=2, norm="forward", overwrite_x=True)
    return _fft.irfftn(half, s=(P,), axes=(3,), norm="forward")


def _from_padded_physical(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Fourier coefficients of real collocation data in the field layout:
    shape (nb, M, M, K+1), last axis index = k3.  The k3=0 plane is
    symmetrized, so it is exactly Hermitian.

    The mirror image of :func:`_to_physical`: r2c along axis 3, then c2c
    along axis 1 over the k3 <= K slab and along axis 2 over the 2K+1
    retained k1 rows of it, so the retained modes are bitwise those of an
    unscaled whole-cube rfftn.  The 1/P^3 scale goes on their real and
    imaginary parts as the four blocks are copied out, so it touches only
    the retained modes."""
    K, m, P = grid.cutoff, grid.modes_per_axis, grid.pad_size
    spec = _fft.rfftn(values, axes=(3,))
    slab = spec[..., : K + 1]
    _fft.fft(slab, axis=1, overwrite_x=True)
    for rows in (slice(None, K + 1), slice(P - K, None)):
        _fft.fft(slab[:, rows], axis=2, overwrite_x=True)
    half = np.empty((values.shape[0], m, m, K + 1), dtype=np.complex128)
    scale = np.float64(1 / np.longdouble(P) ** 3)
    for c1, c2, f1, f2 in _blocks(K, P):
        # real views (last axes contiguous): the scale multiplies re and im
        np.multiply(slab[:, f1, f2].view(np.float64), scale,
                    out=half[:, c1, c2].view(np.float64))
    half[..., 0] = 0.5 * (half[..., 0] + np.conj(half[:, ::-1, ::-1, 0]))
    return half


# u (x) u - u3^2 I differs from u (x) u by a gradient, which the projection
# removes, and has five distinct entries: T11 = u1^2 - u3^2, T12, T13,
# T22 = u2^2 - u3^2, T23, in this order; T33 = 0.
_ROWS = ((0, 1, 2), (1, 3, 4), (2, 4))  # positions of T_l1, T_l2 (, T_l3) per row l


class _Workspace(threading.local):
    """One thread's transform buffers for the grid it used last, sized for
    the largest stack of states it transformed on that grid, and for at
    least a full stack there (``_stack_size``)."""

    grid = None


_workspace = _Workspace()


def _buffers(grid: GridSpec, states: int):
    """This thread's padded rfft-layout scratch (3B, P, P, P//2+1) and
    five-product array (5B, P, P, P) for a stack of B = ``states`` states on
    ``grid``: the leading rows of buffers rebuilt when the grid changes and
    grown when a larger stack comes.  :func:`_to_physical` zeroes the padded
    scratch on every call and transforms it in place, so nothing carries
    over between calls.

    The buffers are built for at least a full stack on the grid, so a lone
    state first (a Picard solve's N(u0)) does not make them grow in the
    middle of a solve.  Regrown there, this long-lived block sat just below
    the solve's short-lived arrays; whether the allocator returned the
    memory freed above it then varied with thread timing, and with it the
    cost of the process's next large allocations."""
    ws = _workspace
    if ws.grid != grid or ws.padded.shape[0] < 3 * states:
        P, rows = grid.pad_size, max(states, _stack_size(grid))
        ws.padded = np.empty((3 * rows, P, P, P // 2 + 1), dtype=np.complex128)
        ws.prods = np.empty((5 * rows, P, P, P), dtype=np.float64)
        ws.grid = grid
    return ws.padded[: 3 * states], ws.prods[: 5 * states]


def _product_stack(coefs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The five distinct dealiased entries of u (x) u - u3^2 I (T11, T12,
    T13, T22, T23) for each state u of a stack (B, 3, M, M, K+1); shape
    (B, 5, M, M, K+1), field layout (k3 >= 0).  Computed pseudo-spectrally
    on the alias-safe padded grid, then truncated to the retained modes, so
    each equals the exact convolution of the retained modes.  The B states
    go through each FFT pass together; every line is transformed as it
    would be alone, so a row is bitwise that of a stack of one.  The padded
    buffers are this thread's workspace; the returned array is new."""
    B, m, K, P = coefs.shape[0], grid.modes_per_axis, grid.cutoff, grid.pad_size
    padded, prods = _buffers(grid, B)
    phys = _to_physical(coefs.reshape(3 * B, m, m, K + 1), K, padded).reshape(B, 3, P, P, P)
    u1, u2, u3 = phys[:, 0], phys[:, 1], phys[:, 2]
    t11, t12, t13, t22, t23 = prods.reshape(B, 5, P, P, P).swapaxes(0, 1)
    np.multiply(u1, u2, out=t12)
    np.multiply(u1, u3, out=t13)
    np.multiply(u2, u3, out=t23)
    np.multiply(u1, u1, out=t11)
    np.multiply(u2, u2, out=t22)
    np.multiply(u3, u3, out=u3)  # u3 is not read again
    t11 -= u3
    t22 -= u3
    del phys, u1, u2, u3  # freed before the forward transform allocates its own arrays
    return _from_padded_physical(prods, grid).reshape(B, 5, m, m, K + 1)


# Most fields one stack of transforms carries: the Duhamel map's nodes, a
# lockstep march's states below UNSTACKED_PAD_SIZE, an ensemble worker's
# samples.  A stack shares the Python glue around the FFTs, most of a call at
# N = 16, between its fields, and its peak memory grows with it: a Picard
# solve at N = 16 peaked 0.9 MB above one node at a time with 4 nodes, 4.8 MB
# with 8, 8.2 MB with 13 and 38 MB with all 65, on a process of about 64 MB.
STACK_SIZE = 4
# Smallest padded grid on which every field goes through the transforms
# alone: from P = 24 on, a stack of STACK_SIZE fields was slower per field
# than one field at a time (8.6% at N = 32, break-even at N = 24).
UNSTACKED_PAD_SIZE = 24


def _stack_size(grid: GridSpec) -> int:
    """Most fields one stack of transforms carries: 1 from UNSTACKED_PAD_SIZE
    points per axis of the padded grid on, where a stack was slower."""
    return STACK_SIZE if grid.pad_size < UNSTACKED_PAD_SIZE else 1


def _nonlinear_stack(coefs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """:func:`nonlinear_term` of each state of a stack (B, 3, M, M, K+1),
    without its input check; shape (B, 3, M, M, K+1), each row bitwise the
    term of that state alone.

    The divergence k_m T_lm of the five-entry tensor is built in the
    returned array and projected there; the factor -i (the i of the
    derivative and the minus sign of D) is applied once at the end, which
    gives the same values as applying it first, since multiplying by -i is
    exact."""
    K = grid.cutoff
    kv, _, inv_k2 = _wavenumbers(grid)
    t = _product_stack(coefs, grid)
    out = np.empty(coefs.shape, dtype=np.complex128)
    for l, cols in enumerate(_ROWS):
        row = out[:, l]
        np.multiply(kv[0], t[:, cols[0]], out=row)
        for k, c in zip(kv[1:], cols[1:]):
            row += k * t[:, c]
    kdot = kv[0] * out[:, 0]
    kdot += kv[1] * out[:, 1]
    kdot += kv[2] * out[:, 2]
    kdot *= inv_k2
    out -= kv * kdot[:, None]
    out *= -1j
    out[:, :, K, K, 0] = 0.0
    return out


def _require_projected(coefs: np.ndarray, grid: GridSpec) -> None:
    """Reject a stack (B, 3, M, M, K+1) holding a state with non-finite
    coefficients, or with divergence above 1e-8 max(1, H^1 norm): the input
    the nonlinear term needs.  One vectorised pass over the stack; the H^1
    norms are read only when some divergence exceeds 1e-8."""
    kv, _, _ = _wavenumbers(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        div = np.max(np.abs(np.einsum("cxyz,bcxyz->bxyz", kv, coefs)), axis=(1, 2, 3))
    if np.all(div <= 1e-8):  # NaN fails the comparison
        return
    for d, coef in zip(div, coefs):
        if not np.isfinite(d):  # a non-finite coefficient makes k . coef one
            raise ValueError("field has non-finite coefficients")
        if d > 1e-8 * max(1.0, hs_norm(SpectralField(grid, coef), 1.0)):
            raise ValueError(
                f"nonlinear_term requires a divergence-free field (div_linf={d:.3e})"
            )


def sample_on_grid(f: SpectralField, points: int | None = None) -> np.ndarray:
    """Sample the field on a uniform collocation grid.

    Returns a real array (3, points, points, points) over x_j = 2 pi j / points.
    ``points`` must be at least 2K+1 so that the trigonometric polynomial is
    represented without aliasing; defaults to the grid resolution.
    """
    p = f.grid.n if points is None else int(points)
    if p < f.grid.modes_per_axis:
        raise ValueError(f"need at least {f.grid.modes_per_axis} points per axis, got {p}")
    half = np.empty((3, p, p, p // 2 + 1), dtype=np.complex128)
    return _to_physical(f.coef, f.grid.cutoff, half)


def nonlinear_term(u: SpectralField, check: bool = True) -> SpectralField:
    """Projected divergence of the quadratic flux: -P(k) (i k_m (u u_m)^(k)).

    The input must be divergence-free and mean zero (a non-projected input
    signals a caller bug and is rejected).  ``check=False`` skips that check
    for a caller whose input is built from checked data and projected
    outputs, as :func:`~mildns.semigroup_flow.march`'s stages are.  Output
    is mean zero, divergence-free, and exactly dealiased against the cutoff
    cube.

    The padded transform buffers are reused across calls from a per-thread
    workspace keyed by the grid, so concurrent calls from several threads are
    safe, and the result never aliases that workspace.
    """
    if check:
        _require_projected(u.coef[None], u.grid)
    return SpectralField(u.grid, _nonlinear_stack(u.coef[None], u.grid)[0])


def random_divfree(A: float, seed: int, slope: float, grid: GridSpec) -> SpectralField:
    """Random divergence-free field with H^1 norm A, reproducible in all inputs.

    Coefficients are independent complex Gaussians with standard deviation
    |k|^(-slope) drawn on the whole cube, averaged with the conjugate of the
    mirror mode, projected divergence-free, and rescaled to H^1 norm A.  The
    rescale holds only to rounding: hs_norm(., 1) may read a few ulps above
    or below A (|hs_norm(., 1) - A| <= 8 eps A, eps the float64 machine
    epsilon, on the grids up to N=32 the tests check; the gap grows with the
    number of modes summed).  A = 0 gives the zero field; A and ``slope``
    must be finite.
    """
    if not 0 <= A < np.inf:  # NaN fails too
        raise ValueError("amplitude A must be finite and nonnegative")
    if not np.isfinite(slope):
        raise ValueError(f"slope must be finite, got {slope!r}")
    if A == 0.0:
        return SpectralField.zero(grid)
    m, K = grid.modes_per_axis, grid.cutoff
    _, k2, _ = _wavenumbers(grid)
    sigma = np.zeros_like(k2)
    nz = k2 > 0
    sigma[nz] = k2[nz] ** (-slope / 2.0)
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal((3, m, m, m)) + 1j * rng.standard_normal((3, m, m, m))
    # mode k (k3 >= 0) and the mirror -k of each stored slot; sigma(-k) = sigma(k)
    coef = 0.5 * (draw[..., K:] * sigma + np.conj(draw[:, ::-1, ::-1, K::-1] * sigma))
    coef[:, K, K, 0] = 0.0
    f = leray_project(SpectralField(grid, coef))
    return SpectralField(grid, f.coef * (A / hs_norm(f, 1.0)))


def _set_pair(coef, K, k, component, value):
    """Add value at mode k and its conjugate at -k for one component,
    writing whichever of the two modes the field stores (k3 >= 0)."""
    for (k1, k2, k3), v in ((k, value), ((-k[0], -k[1], -k[2]), np.conj(value))):
        if k3 >= 0:
            coef[component, k1 + K, k2 + K, k3] += v


def named_flow(name: str, amplitude: float, grid: GridSpec) -> SpectralField:
    """Classical divergence-free reference flows with exact coefficients.

    shear:        a (sin x2, 0, 0)
    taylor_green: a (sin x1 cos x2, -cos x1 sin x2, 0)
    abc:          a (sin x3 + cos x2, sin x1 + cos x3, sin x2 + cos x1)
    """
    if name not in FLOW_NAMES:
        raise ValueError(f"unknown flow {name!r}; expected one of {FLOW_NAMES}")
    a = float(amplitude)
    f = SpectralField.zero(grid)
    K = grid.cutoff
    c = f.coef
    sin_c = -0.5j * a   # coefficient of sin at +k
    cos_c = 0.5 * a     # coefficient of cos at +k
    if name == "shear":
        _set_pair(c, K, (0, 1, 0), 0, sin_c)
    elif name == "taylor_green":
        # sin x1 cos x2 = (sin(x1+x2) + sin(x1-x2)) / 2
        _set_pair(c, K, (1, 1, 0), 0, 0.5 * sin_c)
        _set_pair(c, K, (1, -1, 0), 0, 0.5 * sin_c)
        # -cos x1 sin x2 = (-sin(x1+x2) + sin(x1-x2)) / 2
        _set_pair(c, K, (1, 1, 0), 1, -0.5 * sin_c)
        _set_pair(c, K, (1, -1, 0), 1, 0.5 * sin_c)
    else:
        _set_pair(c, K, (0, 0, 1), 0, sin_c)
        _set_pair(c, K, (0, 1, 0), 0, cos_c)
        _set_pair(c, K, (1, 0, 0), 1, sin_c)
        _set_pair(c, K, (0, 0, 1), 1, cos_c)
        _set_pair(c, K, (0, 1, 0), 2, sin_c)
        _set_pair(c, K, (1, 0, 0), 2, cos_c)
    return f


def single_mode_field(
    grid: GridSpec,
    k: tuple[int, int, int],
    polarization: tuple[float, float, float],
    h1_norm: float = 1.0,
) -> SpectralField:
    """One conjugate pair amp * p * sin(k.x) scaled to a given H^1 norm.

    The polarization is projected orthogonal to k so the field is
    divergence-free.  A k beyond the dealias cutoff, a non-finite
    polarization or a non-finite h1_norm is rejected.
    """
    if not np.isfinite(h1_norm):
        raise ValueError("h1_norm must be finite")
    K = grid.cutoff
    karr = np.asarray(k, dtype=np.int64)
    if np.all(karr == 0):
        raise ValueError("mode k must be nonzero")
    if np.max(np.abs(karr)) > K:
        raise ValueError(f"mode {k} exceeds the dealias cutoff K={K}")
    p = np.asarray(polarization, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"polarization must be finite, got {polarization!r}")
    kf = karr.astype(np.float64)
    p = p - kf * (p @ kf) / (kf @ kf)
    pnorm = np.linalg.norm(p)
    if pnorm < 1e-14:
        raise ValueError("polarization is parallel to k")
    p /= pnorm
    # amp * sin(k.x): |coef| = amp/2 at +-k, h1^2 = |k|^2 * amp^2 / 2
    amp = h1_norm * np.sqrt(2.0) / np.linalg.norm(kf)
    f = SpectralField.zero(grid)
    for comp in range(3):
        if p[comp] != 0.0:
            _set_pair(f.coef, K, tuple(karr), comp, -0.5j * amp * p[comp])
    return f


_NSF1_MAGIC = b"NSF1"


def save_nsf1(f: SpectralField, path) -> None:
    """Write the binary snapshot: magic "NSF1", u32le N, K, component count 3,
    then complex128 coefficients (re, im doubles) of the whole (2K+1)^3 mode
    cube in row-major k-order with k1 slowest and the 3 components
    interleaved per mode; the k3 < 0 half is the conjugate mirror."""
    full = np.concatenate((np.conj(f.coef[:, ::-1, ::-1, :0:-1]), f.coef), axis=-1)
    data = np.ascontiguousarray(np.moveaxis(full, 0, -1)).astype("<c16", copy=False)
    with open(path, "wb") as fh:
        fh.write(_NSF1_MAGIC)
        fh.write(struct.pack("<III", f.grid.n, f.grid.cutoff, 3))
        data.tofile(fh)


def load_nsf1(path) -> SpectralField:
    """Read a snapshot written by :func:`save_nsf1` (bit-exact round trip).
    ValueError on a bad header, a truncated body, bytes after the body, or a
    non-Hermitian body (keeping the k3 >= 0 half would drop any other k3 < 0
    half silently)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _NSF1_MAGIC:
        raise ValueError(f"bad snapshot magic {blob[:4]!r}")
    if len(blob) < 16:
        raise ValueError("snapshot truncated")
    n, cutoff, ncomp = struct.unpack_from("<III", blob, 4)
    if ncomp != 3:
        raise ValueError(f"snapshot declares {ncomp} components, expected 3")
    grid = GridSpec(int(n), int(cutoff))
    m = grid.modes_per_axis
    size = 16 + 16 * 3 * m**3
    if len(blob) < size:
        raise ValueError("snapshot truncated")
    if len(blob) > size:
        raise ValueError(f"snapshot has {len(blob) - size} bytes after its body")
    data = np.frombuffer(blob, dtype="<c16", count=3 * m**3, offset=16)
    full = np.moveaxis(data.reshape(m, m, m, 3), -1, 0).astype(np.complex128)
    if not np.array_equal(full, np.conj(full[:, ::-1, ::-1, ::-1])):
        raise ValueError("snapshot is not Hermitian: coef(-k) != conj(coef(k))")
    return SpectralField(grid, np.ascontiguousarray(full[..., grid.cutoff:]))


def _write_json(obj, path=None) -> str:
    """Serialize a report as indented, key-sorted JSON; returns the text and,
    given a path, writes it there with a trailing newline."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
