"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the package's transform pipeline:
the convolution oracle is a direct O(M^6) sum over retained mode pairs,
and the convective-form oracle uses plain full-complex numpy FFTs.

The exceptions are ``reference_nonlinearity`` / ``reference_tensor_product``,
their five-product forms ``reference_five_product_nonlinearity`` /
``reference_five_product_tensor``, ``reference_sample_on_grid`` and
``reference_phi_map``.  The first five are frozen copies of an earlier
form of that pipeline (index-array gathers and scatters between the mode
cube and the padded rfft layout, whole-cube rfftn/irfftn, the full 3x3
product tensor, einsum contractions on the whole cube).  The five-product
forms take the tensor u (x) u - u3^2 I, which differs from u (x) u by a
gradient, and apply the 1/P^3 scale to the gathered cube instead of inside
the rfftn; they perform the same floating-point operations on the retained
modes as the current pipeline, which prunes its FFT passes to the lines
holding those modes, so the two must agree exactly, not just to rounding.
The six-product forms are the pipeline before it moved to five products;
they agree with the five-product ones to rounding.
``reference_phi_map`` is the (cubic-in-time) Duhamel map as it would be
without batching its nodes through the transforms: one checked
``nonlinear_term`` call per node, with the package's quadrature weights
(tested against Gauss-Legendre on their own).  It must agree with
``phi_map`` exactly.  ``reference_hs_norm``,
``reference_divergence_linf`` and ``reference_leray_project`` are frozen
copies of the one-field readings from before each became the package's
stacked form on a stack of one; both forms must agree exactly.
``reference_simpson_pairs`` is a frozen copy of the package's one time
quadrature as the energy-identity check first wrote it inline, and
``reference_energy_residuals`` that check built on it.
``reference_xt_norm`` reads the space-time norm one node at a time with
``reference_hs_norm`` and integrates it by ``reference_simpson_pairs``, and
``reference_picard_solve`` is the fixed-point loop built on the two, with a
map call per iterate and node 0 transformed every time.  Both must agree
with the package's stacked forms exactly.
``reference_run_chunk`` is the ensemble's chunk loop as it was before
``march`` yielded its H^1 norms: a ``reference_hs_norm`` call per live
state after every yield, and censoring read from the final ``None`` slots.
It must give the same records as ``estimate_F``, bit for bit.
``single_mode`` is a frozen copy of the package's former general builder
of one sine mode (any wavevector, polarization and H^1 size), without its
input checks: the tests build their corner, z-polarized and huge modes with
it, and the package's ``_sine_mode`` must match it bit for bit.

A field stores only the k3 >= 0 half of its mode cube; every transform
oracle reads and returns whole (.., M, M, M) cubes, built by
:func:`full_cube`.

:func:`dilate` is no oracle of a computation but a map between exact
solutions: the dilation symmetry of the truncated system.
"""

import math

import numpy as np
import scipy.fft as _fft

from mildns import (
    GridSpec,
    PicardReport,
    SpectralField,
    TrajectoryX,
    heat_trajectory,
    local_time,
    march,
    nonlinear_term,
)
from mildns.explorer_cli import SampleRecord, sample_seed
from mildns.picard_wellposedness import INTERVALS, _duhamel_weights
from mildns.spectral_field import _norm_weights, _wavenumbers


def full_cube(half):
    """Whole mode cube (.., M, M, M) from a field layout (.., M, M, K+1):
    k3 >= 0 copied, each k3 < 0 slot set to conj(coef(-k))."""
    K = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * K + 1,), dtype=np.complex128)
    full[..., K:] = half
    for k3 in range(1, K + 1):
        full[..., K - k3] = np.conj(half[..., ::-1, ::-1, k3])
    return full


def dense_convolution_nonlinearity(u):
    """Brute-force projected flux divergence from the exact truncated
    convolution of the retained modes (no FFT anywhere)."""
    K = u.grid.cutoff
    M = 2 * K + 1
    c = full_cube(u.coef)
    # full linear convolution over the cube: pad to 2M-1 per axis
    W = np.zeros((3, 3, 2 * M - 1, 2 * M - 1, 2 * M - 1), dtype=np.complex128)
    for i in range(M):
        for j in range(M):
            for l in range(M):
                v = c[:, i, j, l]
                if not np.any(v):
                    continue
                contrib = np.einsum("a,bxyz->abxyz", v, c)
                W[:, :, i : i + M, j : j + M, l : l + M] += contrib
    W = W[:, :, K : K + M, K : K + M, K : K + M]  # truncate to |k_i| <= K

    k1d = np.arange(-K, K + 1, dtype=np.float64)
    kv = np.stack(np.meshgrid(k1d, k1d, k1d, indexing="ij"))
    flux = 1j * np.einsum("mxyz,lmxyz->lxyz", kv, W)
    k2 = np.einsum("cxyz,cxyz->xyz", kv, kv)
    inv = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    kdotf = np.einsum("cxyz,cxyz->xyz", kv, flux)
    out = -(flux - kv * (kdotf * inv))
    out[:, K, K, K] = 0.0
    return out


def convective_form_nonlinearity(u):
    """-P[(u . grad) u] computed with full-complex numpy FFTs on an
    alias-safe grid; equals the flux-divergence form for divergence-free u."""
    K = u.grid.cutoff
    M = 2 * K + 1
    P = 3 * K + 2  # alias-safe for quadratic products
    idx = np.arange(-K, K + 1) % P
    k1d = np.arange(-K, K + 1, dtype=np.float64)
    kv = np.stack(np.meshgrid(k1d, k1d, k1d, indexing="ij"))

    def to_phys(cube):
        full = np.zeros((P, P, P), dtype=np.complex128)
        full[np.ix_(idx, idx, idx)] = cube
        return np.fft.ifftn(full, norm="forward").real

    def to_cube(vals):
        full = np.fft.fftn(vals, norm="forward")
        return full[np.ix_(idx, idx, idx)]

    c = full_cube(u.coef)
    vel = [to_phys(c[a]) for a in range(3)]
    conv = np.empty((3, M, M, M), dtype=np.complex128)
    for l in range(3):
        acc = np.zeros((P, P, P))
        for j in range(3):
            dj_ul = to_phys(1j * kv[j] * c[l])
            acc += vel[j] * dj_ul
        conv[l] = to_cube(acc)
    k2 = np.einsum("cxyz,cxyz->xyz", kv, kv)
    inv = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    kdot = np.einsum("cxyz,cxyz->xyz", kv, conv)
    out = -(conv - kv * (kdot * inv))
    out[:, K, K, K] = 0.0
    return out


def quadrature_rms(values):
    """Root-mean-square of grid samples under the unit-mass measure."""
    return float(np.sqrt(np.mean(np.sum(values**2, axis=0))))


def torus_mesh(points):
    x = 2.0 * np.pi * np.arange(points) / points
    return np.meshgrid(x, x, x, indexing="ij")


def _ref_wavenumbers(K):
    k1d = np.arange(-K, K + 1, dtype=np.float64)
    kv = np.stack(np.meshgrid(k1d, k1d, k1d, indexing="ij"))
    k2 = np.einsum("cxyz,cxyz->xyz", kv, kv)
    inv_k2 = np.zeros_like(k2)
    nz = k2 > 0
    inv_k2[nz] = 1.0 / k2[nz]
    return kv, inv_k2


def _ref_embed_indices(K, P):
    i = np.arange(2 * K + 1)
    pos = (i - K) % P          # cube index -> fft index of +k
    neg = (K - i) % P          # cube index -> fft index of -k
    return pos, neg


def _ref_to_padded_physical(coef, grid):
    K, P = grid.cutoff, grid.pad_size
    pos, _ = _ref_embed_indices(K, P)
    nb = coef.shape[0]
    half = np.zeros((nb, P, P, P // 2 + 1), dtype=np.complex128)
    half[np.ix_(range(nb), pos, pos, range(K + 1))] = coef[:, :, :, K:]
    return _fft.irfftn(half, s=(P, P, P), axes=(1, 2, 3), norm="forward")


def _ref_from_padded_physical(values, grid, scale_cube=False):
    """``scale_cube`` takes an unscaled rfftn and applies 1/P^3 to the real
    and imaginary parts of the gathered cube, instead of inside the rfftn."""
    K, P = grid.cutoff, grid.pad_size
    pos, neg = _ref_embed_indices(K, P)
    nb = values.shape[0]
    half = _fft.rfftn(values, axes=(1, 2, 3), norm="backward" if scale_cube else "forward")
    m = 2 * K + 1
    cube = np.empty((nb, m, m, m), dtype=np.complex128)
    cube[:, :, :, K:] = half[np.ix_(range(nb), pos, pos, range(K + 1))]
    cube[:, :, :, :K] = np.conj(half[np.ix_(range(nb), neg, neg, range(K, 0, -1))])
    if scale_cube:
        re_im = cube.view(np.float64)
        re_im *= np.float64(1 / np.longdouble(P) ** 3)
    plane = cube[:, :, :, K]
    cube[:, :, :, K] = 0.5 * (plane + np.conj(plane[:, ::-1, ::-1]))
    return cube


def single_mode(grid, k, polarization, h1_norm=1.0):
    """amp * p * sin(k.x) at H^1 norm ``h1_norm``, p the polarization
    projected orthogonal to k and normalized; k a nonzero integer 3-vector
    within the cutoff."""
    K = grid.cutoff
    kf = np.asarray(k, dtype=np.float64)
    p = np.asarray(polarization, dtype=np.float64)
    p = p - kf * (p @ kf) / (kf @ kf)
    p /= np.linalg.norm(p)
    # amp * sin(k.x): |coef| = amp/2 at +-k, h1^2 = |k|^2 * amp^2 / 2
    amp = h1_norm * np.sqrt(2.0) / np.linalg.norm(kf)
    f = SpectralField.zero(grid)
    for comp in range(3):
        if p[comp] != 0.0:
            value = -0.5j * amp * p[comp]
            for (k1, k2, k3), v in ((k, value), ((-k[0], -k[1], -k[2]), np.conj(value))):
                if k3 >= 0:
                    f.coef[comp, k1 + K, k2 + K, k3] += v
    return f


def reference_sample_on_grid(f, points):
    """Field values on ``points`` uniform points per axis by one whole-cube
    irfftn of a fresh zero-padded rfft-layout array, filled by index arrays."""
    K = f.grid.cutoff
    pos, _ = _ref_embed_indices(K, points)
    half = np.zeros((3, points, points, points // 2 + 1), dtype=np.complex128)
    half[np.ix_(range(3), pos, pos, range(K + 1))] = f.coef
    return _fft.irfftn(half, s=(points,) * 3, axes=(1, 2, 3), norm="forward")


def reference_tensor_product(u):
    """Dealiased coefficients of u (x) u, shape (3, 3, M, M, M), by the
    gather/scatter pipeline."""
    phys = _ref_to_padded_physical(full_cube(u.coef), u.grid)
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    prods = np.empty((6,) + phys.shape[1:], dtype=np.float64)
    for c, (l, m) in enumerate(pairs):
        np.multiply(phys[l], phys[m], out=prods[c])
    cubes = _ref_from_padded_physical(prods, u.grid)
    m = u.grid.modes_per_axis
    out = np.empty((3, 3, m, m, m), dtype=np.complex128)
    for c, (l, mm) in enumerate(pairs):
        out[l, mm] = cubes[c]
        out[mm, l] = cubes[c]
    return out


def reference_five_product_tensor(u):
    """Dealiased coefficients of u (x) u - u3^2 I, shape (3, 3, M, M, M),
    by the gather/scatter pipeline: five padded products, T33 = 0, and the
    1/P^3 scale on the gathered cube."""
    phys = _ref_to_padded_physical(full_cube(u.coef), u.grid)
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]
    prods = np.empty((5,) + phys.shape[1:], dtype=np.float64)
    for c, (l, m) in enumerate(pairs):
        np.multiply(phys[l], phys[m], out=prods[c])
    u3_sq = phys[2] * phys[2]
    prods[0] -= u3_sq
    prods[3] -= u3_sq
    cubes = _ref_from_padded_physical(prods, u.grid, scale_cube=True)
    m = u.grid.modes_per_axis
    out = np.zeros((3, 3, m, m, m), dtype=np.complex128)
    for c, (l, mm) in enumerate(pairs):
        out[l, mm] = cubes[c]
        out[mm, l] = cubes[c]
    return out


def reference_nonlinearity(u, tensor=None):
    """Projected flux divergence from the full product tensor by einsum
    contractions over the whole mode cube; ``tensor`` picks the product
    tensor oracle (default the six-product one)."""
    kv, inv_k2 = _ref_wavenumbers(u.grid.cutoff)
    w = (tensor or reference_tensor_product)(u)
    flux = 1j * np.einsum("mxyz,lmxyz->lxyz", kv, w)
    kdotf = np.einsum("cxyz,cxyz->xyz", kv, flux)
    out = -(flux - kv * (kdotf * inv_k2))
    K = u.grid.cutoff
    out[:, K, K, K] = 0.0
    return out


def reference_five_product_nonlinearity(u):
    """:func:`reference_nonlinearity` on the five-product tensor."""
    return reference_nonlinearity(u, reference_five_product_tensor)


def reference_hs_norm(f, s):
    """The H^s norm of one field by one whole-field einsum, with the overflow
    rescale by the largest real or imaginary part."""
    w = _norm_weights(f.grid, float(s))
    with np.errstate(over="ignore", invalid="ignore"):
        mag2 = f.coef.real**2 + f.coef.imag**2
        total = np.einsum("cxyz,xyz->", mag2, w)
        if not np.isfinite(total) and np.all(np.isfinite(f.coef)):
            big = np.max(np.abs(f.coef.view(np.float64)))
            c = f.coef / big
            return float(big * np.sqrt(np.einsum("cxyz,xyz->", c.real**2 + c.imag**2, w)))
    return float(np.sqrt(total))


def reference_leray_project(f):
    """The projection of one field, k . coef by einsum, into a new array."""
    kv, _, inv_k2 = _wavenumbers(f.grid)
    kdotv = np.einsum("cxyz,cxyz->xyz", kv, f.coef)
    return SpectralField(f.grid, f.coef - kv * (kdotv * inv_k2))


def reference_divergence_linf(f):
    """max_k |k . coef(k)| of one field, k . coef by einsum."""
    kv, _, _ = _wavenumbers(f.grid)
    kdotv = np.einsum("cxyz,cxyz->xyz", kv, f.coef)
    return float(np.max(np.abs(kdotv)))


def reference_phi_map(u, u0):
    """The Duhamel map with one nonlinear_term call per node."""
    if u0.grid != u.grid:
        raise ValueError("initial datum and trajectory use different grids")
    n = len(u.fields) - 1
    _, k2, _ = _wavenumbers(u.grid)
    g = [nonlinear_term(f).coef for f in u.fields]
    decay, (first, interior, last) = _duhamel_weights(k2, u.T / n)

    out = [u0.copy()]
    homog = u0.coef
    integral = np.zeros_like(u0.coef)
    for j in range(n):
        # the cubic through nodes 0..3, j-1..j+2 or n-3..n
        start, w = (0, first) if j == 0 else (n - 3, last) if j == n - 1 else (j - 1, interior)
        integral = decay * integral
        for i in range(4):
            integral += w[i] * g[start + i]
        homog = decay * homog
        out.append(SpectralField(u.grid, homog + integral))
    return TrajectoryX(u.T, out)


def trajectory_difference(u, v):
    """``u - v`` node by node, on the nodes of ``u``."""
    return TrajectoryX(u.T, [a - b for a, b in zip(u.fields, v.fields)])


def reference_simpson_pairs(t, f):
    """Simpson's rule over pairs of steps, in its form for unequal steps, and
    a trapezoid for an odd last step: ``(starts, ends, integrals)``."""
    starts = np.arange(0, t.size - 2, 2)
    h0, h1 = t[starts + 1] - t[starts], t[starts + 2] - t[starts + 1]
    integral = (h0 + h1) / 6.0 * ((2.0 - h1 / h0) * f[starts] + (2.0 - h0 / h1) * f[starts + 2]
                                  + (h0 + h1) ** 2 / (h0 * h1) * f[starts + 1])
    ends = starts + 2
    if t.size % 2 == 0 and t.size:  # an odd step count: the last step alone
        starts, ends = np.append(starts, t.size - 2), np.append(ends, t.size - 1)
        integral = np.append(integral, 0.5 * (f[-2] + f[-1]) * (t[-1] - t[-2]))
    return starts, ends, integral


def reference_energy_residuals(s):
    """``(times, residuals)`` of the energy identity over a norm series, as
    ``energy_identity_residual`` computed them inline."""
    t, e, f = s.times, s.l2**2, s.h1**2
    starts, ends, integral = reference_simpson_pairs(t, f)
    return t[ends], np.abs(e[ends] - e[starts] + 2.0 * integral)


def reference_xt_norm(u, s):
    """The space-time norm with two ``reference_hs_norm`` calls per node and
    the integral by ``reference_simpson_pairs`` of the squares times the node
    spacing, on unit steps."""
    norms = [(reference_hs_norm(f, s), reference_hs_norm(f, s + 1.0)) for f in u.fields]
    sup = max(a for a, _ in norms)
    h, steps = u.T / (len(u.fields) - 1), np.arange(len(u.fields), dtype=float)
    with np.errstate(over="ignore"):
        sq = reference_simpson_pairs(steps, h * np.array([b for _, b in norms]) ** 2)[2].sum()
    return sup + math.sqrt(sq)


def reference_picard_solve(u0, c=0.01, tol=1e-10, max_iter=40):
    """The Picard loop with ``reference_phi_map`` per iterate and
    ``reference_xt_norm`` of each iterate and of its difference to the last."""
    A = reference_hs_norm(u0, 1.0)
    T = local_time(A, c)
    current = heat_trajectory(u0, T, INTERVALS)
    x1_norms = [reference_xt_norm(current, 1.0)]
    diff_norms, factors = [], []
    ball = 10.0 * max(x1_norms[0], A, 1e-300)
    converged = False
    for _ in range(max_iter):
        nxt = reference_phi_map(current, u0)
        x1 = reference_xt_norm(nxt, 1.0)
        d = reference_xt_norm(trajectory_difference(nxt, current), 1.0)
        x1_norms.append(x1)
        diff_norms.append(d)
        if len(diff_norms) >= 2:
            prev = diff_norms[-2]
            factors.append(d / prev if prev > 0 else 0.0)
        current = nxt
        if d <= tol:
            converged = True
            break
        if not np.isfinite(d) or x1 > ball or (factors and factors[-1] > 2.0 and d > 100.0 * tol):
            break
    return current, PicardReport(len(x1_norms), T, c, A, x1_norms, diff_norms, factors, converged)


def reference_run_chunk(cfg, grid, tasks, generator):
    """The records of one chunk of (j, i) samples from one march, each
    sample's H^1 norm read by ``reference_hs_norm`` while it marches."""
    seeds = [sample_seed(cfg.base_seed, j, i) for j, i in tasks]
    data = [generator(cfg.a_list[j], seed, grid) for (j, _), seed in zip(tasks, seeds)]
    best = [(-math.inf, 0.0)] * len(tasks)
    for t, states, _ in march(data, cfg.horizon, cfg.dt):
        for r, u in enumerate(states):
            if u is not None:
                h1 = reference_hs_norm(u, 1.0)
                if h1 > best[r][0]:  # strict: the first time the maximum is reached
                    best[r] = (h1, t)
    return [SampleRecord(j, i, seed, math.nan, math.nan, True) if u is None
            else SampleRecord(j, i, seed, sup, at, False)
            for (j, i), seed, (sup, at), u in zip(tasks, seeds, best, states)]


def dilate(u, lam):
    """The dilation v(x) = lam u(lam x): mode k of u goes to mode lam k of v,
    times lam, and every mode off the sublattice lam Z^3 is 0.

    v lives on a grid with cutoff lam K (3 lam K points, rounded up to even).
    At that cutoff the truncated system commutes with the dilation: the
    sublattice is closed under the dealiased product, so if u(t) solves it,
    so does lam u(lam^2 t, lam x).
    """
    Kd = lam * u.grid.cutoff
    v = SpectralField.zero(GridSpec(3 * Kd + 3 * Kd % 2, Kd))
    # index i stands for k = i - K on the first two axes and k3 = i on the
    # last, so mode k at index i lands at index lam i on every axis
    v.coef[:, ::lam, ::lam, ::lam] = lam * u.coef
    return v
