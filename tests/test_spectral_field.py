"""Spectral field representation: norms, projection, dealiased flux, IO."""

import math
import struct
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mildns import (
    GridSpec,
    SpectralField,
    divergence_linf,
    heat_trajectory,
    hs_norm,
    leray_project,
    load_nsf1,
    named_flow,
    nonlinear_term,
    random_divfree,
    sample_on_grid,
    save_nsf1,
    single_mode_field,
    smoothing_ratio,
    xt_norm,
)
from mildns import spectral_field
from mildns.spectral_field import (
    FLOW_NAMES,
    STACK_SIZE,
    _nonlinear_stack,
    _norm_weights,
    _product_stack,
    _project_stack,
    _stack_divergence,
    _stack_norms,
    hermitian_residual,
)

from oracles import (
    convective_form_nonlinearity,
    dense_convolution_nonlinearity,
    full_cube,
    quadrature_rms,
    reference_five_product_nonlinearity,
    reference_divergence_linf,
    reference_five_product_tensor,
    reference_hs_norm,
    reference_leray_project,
    reference_nonlinearity,
    reference_sample_on_grid,
    reference_tensor_product,
    torus_mesh,
)


def gaussian_field(grid, seed):
    """A real field of Gaussian coefficients, mean zero but not projected."""
    rng = np.random.default_rng(seed)
    m, K = grid.modes_per_axis, grid.cutoff
    shape = (3, m, m, K + 1)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # a real field: the k3=0 plane holds both modes of each pair
    raw[..., 0] = 0.5 * (raw[..., 0] + np.conj(raw[:, ::-1, ::-1, 0]))
    raw[:, K, K, 0] = 0.0
    return SpectralField(grid, raw)


def pair_field(grid, k, vec):
    """Field with one conjugate mode pair: vec at +k, conj(vec) at -k, each
    written where the field stores it (k3 >= 0)."""
    f = SpectralField.zero(grid)
    K = grid.cutoff
    for (k1, k2, k3), v in ((k, vec), (tuple(-c for c in k), np.conj(vec))):
        if k3 >= 0:
            f.coef[:, k1 + K, k2 + K, k3] = v
    return f


# the five distinct (l, m) entries of u (x) u - u3^2 I, in the order
# _product_stack uses; the (2, 2) entry is 0
PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2))


class TestGridSpec:
    def test_default_cutoff_is_two_thirds_rule(self):
        assert GridSpec(16).cutoff == 5
        assert GridSpec(32).cutoff == 10
        assert GridSpec(4).cutoff == 1

    @pytest.mark.parametrize("n", [3, 5, 2, 0, -8])
    def test_bad_resolution(self, n):
        with pytest.raises(ValueError):
            GridSpec(n)

    @pytest.mark.parametrize("k", [0, 8, 100])
    def test_bad_cutoff(self, k):
        with pytest.raises(ValueError):
            GridSpec(16, k)

    @pytest.mark.parametrize("args, named", [((16.0,), "resolution n"), ((16, 5.0), "cutoff"),
                                             ((16, "5"), "cutoff")])
    def test_non_integral_rejected(self, args, named):
        with pytest.raises(ValueError, match=f"{named} must be an integer"):
            GridSpec(*args)

    def test_pad_size_alias_safe(self):
        for n in (8, 12, 16, 32):
            g = GridSpec(n)
            assert g.pad_size >= 3 * g.cutoff + 1
            assert g.pad_size % 2 == 0


class TestHsNorm:
    def test_zero_field(self, grid16):
        z = SpectralField.zero(grid16)
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert hs_norm(z, s) == 0.0

    @pytest.mark.parametrize("s", [-1.5, 0.0, 1.0, 2.5])
    def test_unit_pair_at_wavenumber_one(self, grid16, s):
        # |k| = 1 makes the weight 1 for every s; two modes of length 1
        f = pair_field(grid16, (1, 0, 0), np.array([0, 1.0, 0], dtype=complex))
        assert hs_norm(f, s) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_shear_h1(self, grid16):
        f = named_flow("shear", 1.0, grid16)
        assert hs_norm(f, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)

    def test_shear_h1_against_gradient_quadrature(self, grid16):
        # u = (sin x2, 0, 0): |grad u|^2 = cos^2 x2, independent of the package
        x1, x2, x3 = torus_mesh(16)
        expected = math.sqrt(np.mean(np.cos(x2) ** 2))
        f = named_flow("shear", 1.0, grid16)
        assert hs_norm(f, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_absolute_homogeneity(self, rand16):
        for lam in (3.7, -2.5, 0.0):
            assert hs_norm(lam * rand16, 1.5) == pytest.approx(
                abs(lam) * hs_norm(rand16, 1.5), rel=1e-12, abs=1e-300
            )

    @pytest.mark.parametrize("s", [-1.5, 0.0, 1.0, 2.5])
    def test_equals_plain_sum_over_whole_cube(self, rand16, s):
        full = full_cube(rand16.coef)
        K = rand16.grid.cutoff
        k1d = np.arange(-K, K + 1, dtype=np.float64)
        k2 = sum(a**2 for a in np.meshgrid(k1d, k1d, k1d, indexing="ij"))
        k2[K, K, K] = 1.0  # the k=0 slot is zero
        want = math.sqrt(float(np.sum(k2**s * np.sum(np.abs(full) ** 2, axis=0))))
        assert hs_norm(rand16, s) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("s", [-1.5, 0.0, 1.0, 2.5])
    def test_plain_sum_bytes_kept(self, rand16, s):
        # the overflow fallback leaves the normal path's arithmetic as it was
        for f in (rand16, 1e150 * rand16, named_flow("abc", 3.0, rand16.grid)):
            mag2 = f.coef.real**2 + f.coef.imag**2
            want = float(np.sqrt(np.einsum("cxyz,xyz->", mag2, _norm_weights(f.grid, s))))
            assert hs_norm(f, s) == want

    def test_overflowing_squares_rescaled_without_warning(self, grid16):
        unit = single_mode_field(grid16, (5, 5, 5), (1.0, -1.0, 0.0), 1.0)
        huge = single_mode_field(grid16, (5, 5, 5), (1.0, -1.0, 0.0), 1e308)
        assert np.all(np.isfinite(huge.coef))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h1 = hs_norm(huge, 1.0)
            l2 = hs_norm(huge, 0.0)
            h2 = hs_norm(huge, 2.0)  # sqrt(75) 1e308 is beyond the float range
            nan = hs_norm(SpectralField(grid16, huge.coef * np.nan), 1.0)
            # finite parts whose complex modulus is beyond the float range
            edge = pair_field(grid16, (0, 1, 1), np.array([1.5e308 * (1 + 1j), 0, 0]))
            edge_l2 = hs_norm(edge, 0.0)
        assert h1 == pytest.approx(1e308, rel=1e-14)
        assert edge_l2 == math.inf
        assert l2 == pytest.approx(1e308 * hs_norm(unit, 0.0), rel=1e-14)
        assert h2 == math.inf
        assert math.isnan(nan)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_rejected(self, rand16, s):
        # each such call would read NaN and cache weights no later call matches
        u = heat_trajectory(rand16, 0.01, 8)
        cached = _norm_weights.cache_info().currsize
        for read in (lambda: _stack_norms(rand16.coef[None], rand16.grid, s),
                     lambda: hs_norm(rand16, s),
                     lambda: xt_norm(u, s),
                     lambda: smoothing_ratio(rand16, s, 1.0, 0.5)):
            with pytest.raises(ValueError, match=f"^Sobolev order s must be finite, got {s}$"):
                read()
        assert _norm_weights.cache_info().currsize == cached

    @pytest.mark.parametrize("n", [8, 16])
    def test_parseval_rms(self, n):
        f = random_divfree(1.0, 5, 2.0, GridSpec(n))
        rms = quadrature_rms(sample_on_grid(f))
        assert rms == pytest.approx(hs_norm(f, 0.0), rel=1e-10)


class TestLerayProject:
    def test_parallel_vector_annihilated(self, grid16):
        f = pair_field(grid16, (1, 0, 0), np.array([1.0, 0, 0], dtype=complex))
        out = leray_project(f)
        assert np.max(np.abs(out.coef)) == 0.0

    def test_orthogonal_vector_fixed(self, grid16):
        f = pair_field(grid16, (1, 0, 0), np.array([0, 1.0, 0], dtype=complex))
        out = leray_project(f)
        assert np.array_equal(out.coef, f.coef)

    def test_oblique_mode_by_hand(self, grid16):
        # (I - k k^T/|k|^2) (1,0,0) at k=(1,1,0) is (1/2, -1/2, 0)
        f = pair_field(grid16, (1, 1, 0), np.array([1.0, 0, 0], dtype=complex))
        out = leray_project(f)
        K = grid16.cutoff
        got = out.coef[:, K + 1, K + 1, 0]
        assert got == pytest.approx(np.array([0.5, -0.5, 0.0], dtype=complex), abs=1e-15)

    def test_idempotent(self, rand16):
        p1 = leray_project(rand16)
        p2 = leray_project(p1)
        assert np.max(np.abs(p2.coef - p1.coef)) <= 1e-15

    def test_projected_divergence(self, grid16):
        f = gaussian_field(grid16, 0)
        f = SpectralField(grid16, f.coef / max(1.0, hs_norm(f, 1.0)))
        assert divergence_linf(leray_project(f)) <= 1e-12


class TestDivergenceLinf:
    def test_single_mode(self, grid16):
        f = pair_field(grid16, (1, 0, 0), np.array([1.0, 0, 0], dtype=complex))
        assert divergence_linf(f) == pytest.approx(1.0, rel=1e-15)

    def test_gradient_mode(self, grid16):
        # coef = k at k=(1,2,2): |k . k| = 9
        f = pair_field(grid16, (1, 2, 2), np.array([1.0, 2.0, 2.0], dtype=complex))
        assert divergence_linf(f) == pytest.approx(9.0, rel=1e-15)

    def test_zero_for_projected(self, rand16):
        assert divergence_linf(rand16) <= 1e-12


class TestStackedReadings:
    """Each row of a stacked reading is bitwise the frozen one-field reading
    of that row alone, whatever its neighbours hold, and the public readings
    (stacks of one) are too."""

    KINDS = ("gaussian", "zero", "overflow", "inf", "nan")

    @staticmethod
    def row(kind, grid, seed):
        f = gaussian_field(grid, seed)
        if kind == "zero":
            return SpectralField.zero(grid)
        if kind == "overflow":  # finite, but the squares overflow: rescaled
            return 1e160 * f
        if kind in ("inf", "nan"):
            f.coef[1, 1, 2, 1] = math.inf if kind == "inf" else math.nan
        return f

    @pytest.mark.parametrize("n", [8, 16, 32, 48])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_rows_equal_one_field_readings(self, n, size):
        grid = GridSpec(n)
        kinds = [self.KINDS[(size + j) % 5] for j in range(size)]
        fields = [self.row(kind, grid, seed) for seed, kind in enumerate(kinds)]
        stack = np.stack([f.coef for f in fields])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the inf and NaN rows
            for s in (0.0, 1.0, 2.0, -4.0, 0.5):
                want = [repr(reference_hs_norm(f, s)) for f in fields]
                assert [repr(float(x)) for x in _stack_norms(stack, grid, s)] == want
                assert [repr(hs_norm(f, s)) for f in fields] == want
            want = [repr(reference_divergence_linf(f)) for f in fields]
            div = np.max(np.abs(_stack_divergence(stack, grid)), axis=(1, 2, 3))
            assert [repr(float(d)) for d in div] == want
            assert [repr(divergence_linf(f)) for f in fields] == want
        finite = [f for f, kind in zip(fields, kinds) if kind not in ("inf", "nan")]
        if finite:
            projected = np.stack([f.coef for f in finite])
            _project_stack(projected, grid)
            for f, row in zip(finite, projected):
                want = reference_leray_project(f).coef.tobytes()
                assert row.tobytes() == want
                assert leray_project(f).coef.tobytes() == want


class TestNonlinearTerm:
    def test_shear_annihilated(self, grid16):
        out = nonlinear_term(named_flow("shear", 1.3, grid16))
        assert np.max(np.abs(out.coef)) <= 1e-12

    def test_taylor_green_annihilated(self, grid8):
        out = nonlinear_term(named_flow("taylor_green", 1.0, grid8))
        assert np.max(np.abs(out.coef)) <= 1e-12

    def test_abc_beltrami_annihilated(self, grid16):
        # ABC flow is Beltrami: convective term is a pure gradient
        out = nonlinear_term(named_flow("abc", 1.0, grid16))
        assert np.max(np.abs(out.coef)) <= 1e-12

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_matches_dense_convolution_oracle(self, n):
        u = random_divfree(1.0, 11, 2.0, GridSpec(n))
        got = full_cube(nonlinear_term(u).coef)
        want = dense_convolution_nonlinearity(u)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    def test_matches_convective_form(self, rand16):
        got = full_cube(nonlinear_term(rand16).coef)
        want = convective_form_nonlinearity(rand16)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_does_no_work(self, grid16, seed):
        u = random_divfree(1.0, seed, 2.0, grid16)
        nl = nonlinear_term(u)
        inner = abs(float(np.real(np.sum(full_cube(nl.coef) * np.conj(full_cube(u.coef))))))
        assert inner <= 1e-10 * hs_norm(u, 1.0) ** 3

    def test_output_divergence_free_mean_zero(self, rand16):
        out = nonlinear_term(rand16)
        assert divergence_linf(out) <= 1e-12
        K = rand16.grid.cutoff
        assert np.all(out.coef[:, K, K, 0] == 0.0)

    def test_output_hermitian(self, rand16):
        assert hermitian_residual(nonlinear_term(rand16)) == 0.0

    def test_rejects_non_divergence_free(self, grid16):
        f = pair_field(grid16, (1, 0, 0), np.array([1.0, 0, 0], dtype=complex))
        with pytest.raises(ValueError, match="divergence"):
            nonlinear_term(f)

    def test_tensor_coef_symmetric_hermitian(self, rand8):
        # five entries stand for the symmetric 3x3 tensor u (x) u - u3^2 I,
        # whose (2, 2) entry is 0; each is Hermitian
        w = full_cube(_product_stack(rand8.coef[None], rand8.grid)[0])
        flipped = np.conj(w[:, ::-1, ::-1, ::-1])
        assert np.max(np.abs(w - flipped)) == 0.0


class TestTransformReference:
    """The block-slice, half-spectrum transform path with its pruned FFT
    passes reproduces the five-product gather/scatter whole-cube reference
    exactly (K=1 and K=n/2-1 are the edge cases; N=48 pads to P=50, not a
    power of 2)."""

    @staticmethod
    def assert_exact(u):
        want_nl = reference_five_product_nonlinearity(u)
        assert np.array_equal(full_cube(nonlinear_term(u).coef), want_nl)
        ref = reference_five_product_tensor(u)
        want = np.stack([ref[l, m] for l, m in PAIRS])
        assert np.array_equal(full_cube(_product_stack(u.coef[None], u.grid)[0]), want)

    @pytest.mark.parametrize("n, k", [(8, None), (12, None), (16, None), (16, 3),
                                      (16, 7), (10, 1), (32, None), (48, None)])
    @pytest.mark.parametrize("seed, slope", [(3, 2.0), (11, 6.0)])
    def test_random_data_exact(self, n, k, seed, slope):
        self.assert_exact(random_divfree(1.5, seed, slope, GridSpec(n, k)))

    @pytest.mark.parametrize("name", ["shear", "taylor_green", "abc"])
    def test_named_flows_exact(self, name, grid16):
        self.assert_exact(named_flow(name, 1.3, grid16))

    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 48])
    def test_five_product_oracle_agrees_with_six_product(self, n):
        # u (x) u - u3^2 I differs from u (x) u by the gradient of u3^2,
        # which the projection removes, so the two fluxes differ by
        # rounding only (seen up to 9e-16 of the largest coefficient at
        # N=48); so do the tensors, against u (x) u less u3^2 on the diagonal
        grid = GridSpec(n)
        for seed, slope in ((3, 2.0), (11, 6.0), (5, 0.0)):
            u = random_divfree(1.5, seed, slope, grid)
            six = reference_nonlinearity(u)
            five = reference_five_product_nonlinearity(u)
            assert np.max(np.abs(five - six)) <= 4e-15 * np.max(np.abs(six))
            w = reference_tensor_product(u)
            shifted = w - np.eye(3)[:, :, None, None, None] * w[2, 2]
            t = reference_five_product_tensor(u)
            assert np.max(np.abs(t - shifted)) <= 4e-15 * np.max(np.abs(w))
            assert np.all(t[2, 2] == 0.0)

    @pytest.mark.parametrize("points", [20.7, 20.5, np.float64(20.5), math.nan, math.inf, "20"])
    def test_sample_on_grid_points_must_be_an_integer(self, grid8, points):
        # 20.7 sampled 20 points
        with pytest.raises(ValueError, match=r"^points must be an integer, got "):
            sample_on_grid(named_flow("abc", 1.0, grid8), points)

    @pytest.mark.parametrize("points", [20.0, np.float64(20.0), np.int64(20)])
    def test_sample_on_grid_integer_valued_points(self, grid8, points):
        f = named_flow("abc", 1.0, grid8)
        assert np.array_equal(sample_on_grid(f, points), sample_on_grid(f, 20))

    @pytest.mark.parametrize("n, k", [(8, None), (10, 1), (16, 7), (32, None), (48, None)])
    def test_sample_on_grid_exact(self, n, k):
        # 2K+1 is the odd minimal grid, where the k and -k blocks abut
        grid = GridSpec(n, k)
        fields = [random_divfree(1.5, 3, 2.0, grid), named_flow("abc", 1.3, grid)]
        for f in fields:
            for p in (grid.modes_per_axis, n, n + 1):
                assert np.array_equal(sample_on_grid(f, p), reference_sample_on_grid(f, p))


def stack(states):
    return np.stack([u.coef for u in states])


class TestStackedTransforms:
    """A stack of B states goes through every FFT pass together, and each
    row is bitwise the result for that state alone (K=1 and K=n/2-1 are the
    edge cases; N=48, K=23 pads to P=70, not a power of 2)."""

    @pytest.mark.parametrize("n", [8, 16, 32, 48])
    @pytest.mark.parametrize("edge", ["K=1", "K=n/2-1"])
    def test_rows_equal_single_states(self, n, edge):
        grid = GridSpec(n, 1 if edge == "K=1" else n // 2 - 1)
        states = [random_divfree(1.5, seed, 2.0, grid) for seed in range(5)]
        alone = [nonlinear_term(u).coef for u in states]
        for B in range(1, 6):
            rows = _nonlinear_stack(stack(states[:B]), grid)
            assert rows.shape == (B,) + states[0].coef.shape
            assert all(np.array_equal(r, a) for r, a in zip(rows, alone))

    def test_product_rows_equal_single_states(self, grid16):
        states = [random_divfree(1.5, seed, 6.0, grid16) for seed in range(3)]
        rows = _product_stack(stack(states), grid16)
        assert all(np.array_equal(r, _product_stack(u.coef[None], u.grid)[0])
                   for r, u in zip(rows, states))


class TestTransformWorkspace:
    """nonlinear_term reuses per-thread padded buffers keyed by the grid; no
    result may view them, and switching grids must not leak stale data."""

    def test_results_never_alias_the_workspace(self):
        u = random_divfree(1.5, 3, 2.0, GridSpec(32))
        nl, prod = nonlinear_term(u), _product_stack(u.coef[None], u.grid)[0]
        kept = nl.coef.copy(), prod.copy()
        for other in (random_divfree(1.5, 11, 6.0, GridSpec(32)),
                      random_divfree(1.5, 3, 2.0, GridSpec(16, 7))):
            nonlinear_term(other)
            _product_stack(other.coef[None], other.grid)[0]
            ws = spectral_field._workspace
            for a in (nl.coef, prod):
                assert not np.shares_memory(a, ws.padded)
                assert not np.shares_memory(a, ws.prods)
        assert np.array_equal(nl.coef, kept[0])
        assert np.array_equal(prod, kept[1])

    def test_stacked_results_never_alias_the_grown_buffers(self):
        grid = GridSpec(32)
        states = [random_divfree(1.5, seed, 2.0, grid) for seed in range(4)]
        nl, prod = _nonlinear_stack(stack(states), grid), _product_stack(stack(states), grid)
        kept = nl.copy(), prod.copy()
        ws = spectral_field._workspace
        assert ws.padded.shape[0] >= 12 and ws.prods.shape[0] >= 20
        for other in states[:2]:
            nonlinear_term(other)
            _nonlinear_stack(stack(states[1:3]), grid)
            for a in (nl, prod):
                assert not np.shares_memory(a, ws.padded)
                assert not np.shares_memory(a, ws.prods)
        assert np.array_equal(nl, kept[0])
        assert np.array_equal(prod, kept[1])

    def test_interleaved_grids_match_reference(self):
        # grid X, grid Y, then X again with other data and with the first data
        for n, k, seed in ((32, None, 3), (16, 7, 3), (32, None, 11), (32, None, 3)):
            TestTransformReference.assert_exact(random_divfree(1.5, seed, 6.0, GridSpec(n, k)))

    def test_stack_then_single_then_grid_switch_match_reference(self):
        ws = spectral_field._workspace
        nonlinear_term(random_divfree(1.5, 1, 6.0, GridSpec(12)))  # a known start
        grid = GridSpec(32)
        states = [random_divfree(1.5, seed, 6.0, grid) for seed in (3, 4, 5, 6)]
        rows = _nonlinear_stack(stack(states), grid)
        assert ws.padded.shape[0] == 3 * 4 and ws.prods.shape[0] == 5 * 4  # grown to the stack
        for row, u in zip(rows, states):
            assert np.array_equal(full_cube(row), reference_five_product_nonlinearity(u))
        TestTransformReference.assert_exact(states[2])  # one state, grown buffers
        assert ws.padded.shape[0] == 3 * 4  # kept for the grid
        TestTransformReference.assert_exact(random_divfree(1.5, 3, 6.0, GridSpec(16, 7)))
        # rebuilt for the new grid, for a full stack there (P = 22)
        assert ws.padded.shape[0] == 3 * STACK_SIZE and ws.prods.shape[0] == 5 * STACK_SIZE

    def test_buffers_built_once_per_grid(self):
        # one state and then full stacks, as a Picard solve transforms N(u0)
        # and then its nodes: the buffers are not regrown in between
        ws = spectral_field._workspace
        for grid, rows in ((GridSpec(16), STACK_SIZE), (GridSpec(32), 1)):
            states = [random_divfree(1.5, seed, 6.0, grid) for seed in range(STACK_SIZE)]
            nonlinear_term(random_divfree(1.5, 1, 6.0, GridSpec(12)))  # a known start
            nonlinear_term(states[0])
            padded, prods = ws.padded, ws.prods
            assert padded.shape[0] == 3 * rows and prods.shape[0] == 5 * rows
            _nonlinear_stack(stack(states[:rows]), grid)
            assert ws.padded is padded and ws.prods is prods

    def test_thread_stress(self):
        # more threads than cores; two threads share a grid value, so a
        # workspace shared between threads would mix their products
        cases = [(GridSpec(16), 0), (GridSpec(16), 1), (GridSpec(16, 7), 2), (GridSpec(12), 3)]
        data = [random_divfree(1.5, seed, 2.0, grid) for grid, seed in cases]
        want = [nonlinear_term(u).coef for u in data]
        rounds = 40
        got = [[] for _ in data]
        errors = []

        def loop(i):
            try:
                for _ in range(rounds):
                    got[i].append(nonlinear_term(data[i]).coef)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(data))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for results, expected in zip(got, want):
            assert len(results) == rounds
            assert all(np.array_equal(r, expected) for r in results)


    def test_thread_stress_mixed_stack_sizes(self):
        # each thread alternates stacks of 1, 2 and 3 states, so its
        # workspace grows while the other threads use theirs
        cases = [(GridSpec(16), 0), (GridSpec(16), 10), (GridSpec(16, 7), 20), (GridSpec(12), 30)]
        data = [[random_divfree(1.5, seed + j, 2.0, grid) for j in range(3)]
                for grid, seed in cases]
        want = [[nonlinear_term(u).coef for u in states] for states in data]
        rounds = 30
        bad = []
        errors = []

        def loop(i):
            try:
                states = data[i]
                for r in range(rounds):
                    B = 1 + (r + i) % 3
                    rows = _nonlinear_stack(stack(states[:B]), states[0].grid)
                    single = nonlinear_term(states[B - 1]).coef
                    if not (all(np.array_equal(a, b) for a, b in zip(rows, want[i]))
                            and np.array_equal(single, want[i][B - 1])):
                        bad.append((i, r))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(data))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert bad == []


class TestRandomDivfree:
    def test_postconditions(self, grid16):
        f = random_divfree(1.0, 7, 2.0, grid16)
        assert hs_norm(f, 1.0) == pytest.approx(1.0, rel=1e-9)
        assert divergence_linf(f) <= 1e-12
        assert hermitian_residual(f) == 0.0
        K = grid16.cutoff
        assert np.all(f.coef[:, K, K, 0] == 0.0)

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("slope", [2.0, 6.0])
    def test_h1_equals_amplitude_to_rounding(self, n, slope):
        # the rescale hits A only to rounding, and may land below it
        eps = np.finfo(np.float64).eps
        for A in (1e-3, 0.5, 1.0, 16.0):
            for seed in range(5):
                h1 = hs_norm(random_divfree(A, seed, slope, GridSpec(n)), 1.0)
                assert abs(h1 - A) <= 8 * eps * A

    def test_deterministic(self, grid16):
        a = random_divfree(1.0, 7, 2.0, grid16)
        b = random_divfree(1.0, 7, 2.0, grid16)
        assert np.array_equal(a.coef, b.coef)

    def test_amplitude_scaling_exact(self, grid16):
        a = random_divfree(1.0, 7, 2.0, grid16)
        b = random_divfree(2.0, 7, 2.0, grid16)
        assert np.array_equal(b.coef, 2.0 * a.coef)

    def test_zero_amplitude(self, grid16):
        assert np.max(np.abs(random_divfree(0.0, 7, 2.0, grid16).coef)) == 0.0

    def test_negative_amplitude_rejected(self, grid16):
        with pytest.raises(ValueError):
            random_divfree(-1.0, 7, 2.0, grid16)

    @pytest.mark.parametrize("A", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, grid16, A):
        with pytest.raises(ValueError, match="finite"):
            random_divfree(A, 1, 2.0, grid16)

    @pytest.mark.parametrize("slope", [math.nan, math.inf, -math.inf])
    def test_non_finite_slope_rejected(self, grid16, slope):
        # NaN gave an all-NaN field, -inf an overflow warning
        with pytest.raises(ValueError, match="slope must be finite"):
            random_divfree(1.0, 1, slope, grid16)
        with pytest.raises(ValueError, match="slope must be finite"):
            random_divfree(0.0, 1, slope, grid16)


class TestNamedFlow:
    def test_unknown_name(self, grid16):
        with pytest.raises(ValueError, match="unknown flow"):
            named_flow("vortex", 1.0, grid16)

    def test_zero_amplitude(self, grid16):
        for name in ("shear", "taylor_green", "abc"):
            assert np.max(np.abs(named_flow(name, 0.0, grid16).coef)) == 0.0

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_rejected(self, grid16, amplitude):
        # NaN gave an all-NaN field
        for name in FLOW_NAMES:
            with pytest.raises(ValueError, match=f"^amplitude must be finite, got {amplitude}$"):
                named_flow(name, amplitude, grid16)

    def test_taylor_green_h1(self, grid16):
        assert hs_norm(named_flow("taylor_green", 1.0, grid16), 1.0) == pytest.approx(
            1.0, rel=1e-13
        )

    def test_taylor_green_h1_quadrature(self, grid16):
        # |grad u|^2 summed over components, sampled analytically
        x1, x2, x3 = torus_mesh(16)
        g2 = (
            (np.cos(x1) * np.cos(x2)) ** 2 + (np.sin(x1) * np.sin(x2)) ** 2
            + (np.sin(x1) * np.sin(x2)) ** 2 + (np.cos(x1) * np.cos(x2)) ** 2
        )
        assert hs_norm(named_flow("taylor_green", 1.0, grid16), 1.0) == pytest.approx(
            math.sqrt(np.mean(g2)), rel=1e-12
        )

    def test_all_divergence_free_mean_zero(self, grid16):
        K = grid16.cutoff
        for name in ("shear", "taylor_green", "abc"):
            f = named_flow(name, 2.0, grid16)
            assert divergence_linf(f) <= 1e-14
            assert np.all(f.coef[:, K, K, 0] == 0.0)

    def test_shear_samples(self, grid16):
        vals = sample_on_grid(named_flow("shear", 1.5, grid16))
        x1, x2, x3 = torus_mesh(16)
        assert np.max(np.abs(vals[0] - 1.5 * np.sin(x2))) <= 1e-13
        assert np.max(np.abs(vals[1])) <= 1e-14
        assert np.max(np.abs(vals[2])) <= 1e-14

    def test_abc_samples(self, grid16):
        vals = sample_on_grid(named_flow("abc", 1.0, grid16))
        x1, x2, x3 = torus_mesh(16)
        assert np.max(np.abs(vals[0] - (np.sin(x3) + np.cos(x2)))) <= 1e-13
        assert np.max(np.abs(vals[1] - (np.sin(x1) + np.cos(x3)))) <= 1e-13
        assert np.max(np.abs(vals[2] - (np.sin(x2) + np.cos(x1)))) <= 1e-13


class TestSingleModeField:
    def test_unit_h1(self, grid16):
        for n in (1, 2, 5):
            w = single_mode_field(grid16, (n, 0, 0), (0.0, 1.0, 0.0), 1.0)
            assert hs_norm(w, 1.0) == pytest.approx(1.0, rel=1e-13)
            assert divergence_linf(w) <= 1e-14

    def test_beyond_cutoff_rejected(self, grid16):
        with pytest.raises(ValueError, match="cutoff"):
            single_mode_field(grid16, (6, 0, 0), (0.0, 1.0, 0.0))

    def test_parallel_polarization_rejected(self, grid16):
        with pytest.raises(ValueError, match="parallel"):
            single_mode_field(grid16, (1, 0, 0), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("h1_norm", [math.nan, math.inf, -math.inf])
    def test_non_finite_h1_norm_rejected(self, grid16, h1_norm):
        with pytest.raises(ValueError, match="h1_norm must be finite"):
            single_mode_field(grid16, (1, 0, 0), (0.0, 1.0, 0.0), h1_norm)

    @pytest.mark.parametrize("h1_norm", [-2.0, -1e-300])
    def test_negative_h1_norm_rejected(self, grid16, h1_norm):
        # -2.0 gave a field of H1 norm 2.0: the sign was dropped
        with pytest.raises(ValueError,
                           match=f"^h1_norm must be finite and nonnegative, got {h1_norm}$"):
            single_mode_field(grid16, (1, 0, 0), (0.0, 1.0, 0.0), h1_norm)

    @pytest.mark.parametrize("k", [(1.5, 0, 0), (1, 0.5, 0), (1, math.nan, 0),
                                   (1, 0, math.inf), (1, 0), (1, 0, 0, 0), ("1", 0, 0),
                                   (1, None, 0), 1, ((1, 0), 0, 0), ((0, 1), 0, 0)])
    def test_non_integer_mode_rejected(self, grid8, k):
        # a fraction must not be dropped: (1.5, 0, 0) is not the mode (1, 0, 0)
        with pytest.raises(ValueError, match=r"^mode k must be three finite integers, got "):
            single_mode_field(grid8, k, (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("k", [(2.0, 0, 0), (np.int64(2), 0, 0), np.array([2, 0, 0]),
                                   [2, -0.0, 0]])
    def test_integer_valued_mode_accepted(self, grid8, k):
        want = single_mode_field(grid8, (2, 0, 0), (0.0, 0.0, 1.0), 0.5)
        assert np.array_equal(single_mode_field(grid8, k, (0.0, 0.0, 1.0), 0.5).coef, want.coef)

    @pytest.mark.parametrize("k", [(2**63 - 1, 0, 0), (-2**63, 0, 0), (1e300, 0, 0)])
    def test_huge_mode_beyond_cutoff(self, grid8, k):
        with pytest.raises(ValueError, match="cutoff"):
            single_mode_field(grid8, k, (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("polarization", [(math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0),
                                              (0.0, -math.inf, 0.0), (0.0, 1.0, math.nan)])
    def test_non_finite_polarization_rejected(self, grid16, polarization):
        # NaN gave a NaN field, inf an invalid-value warning
        with pytest.raises(ValueError, match="polarization must be finite"):
            single_mode_field(grid16, (1, 0, 0), polarization)

    @pytest.mark.parametrize("polarization", [(0.0, 1.0), (0.0, 1.0, 0.0, 0.0), ((0, 1), 0, 0),
                                              ("0", 1.0, 0.0), (0.0, 1j, 0.0), 1.0])
    def test_polarization_of_three_numbers(self, grid16, polarization):
        # (0.0, 1.0) raised numpy's unnamed matmul mismatch
        with pytest.raises(ValueError, match=r"^polarization must be finite and have three "
                                             r"components, got "):
            single_mode_field(grid16, (1, 0, 0), polarization)


def nsf1_bytes(n, k, full):
    """An NSF1 file holding a whole (3, M, M, M) cube, written independently
    of the package."""
    body = np.ascontiguousarray(np.moveaxis(full, 0, -1)).astype("<c16").tobytes()
    return b"NSF1" + struct.pack("<III", n, k, 3) + body


class TestSnapshotIO:
    def test_whole_cube_file_loads(self, tmp_path, rand16):
        # the on-disk body is the whole Hermitian cube, as it always was
        blob = nsf1_bytes(16, rand16.grid.cutoff, full_cube(rand16.coef))
        path = tmp_path / "full.nsf1"
        path.write_bytes(blob)
        back = load_nsf1(path)
        assert back.coef.shape == rand16.coef.shape
        assert np.array_equal(back.coef, rand16.coef)
        save_nsf1(back, tmp_path / "again.nsf1")
        assert (tmp_path / "again.nsf1").read_bytes() == blob

    def test_non_hermitian_body_rejected(self, tmp_path, rand8):
        full = full_cube(rand8.coef)
        K = rand8.grid.cutoff
        full[1, K + 1, K, K - 2] += 0.25j  # k = (1, 0, -2) only, not its mirror
        path = tmp_path / "odd.nsf1"
        path.write_bytes(nsf1_bytes(8, K, full))
        with pytest.raises(ValueError, match="Hermitian"):
            load_nsf1(path)

    def test_round_trip_bit_exact(self, tmp_path, rand16):
        path = tmp_path / "field.nsf1"
        save_nsf1(rand16, path)
        back = load_nsf1(path)
        assert back.grid == rand16.grid
        assert np.array_equal(back.coef, rand16.coef)
        # and the files themselves are reproducible
        path2 = tmp_path / "field2.nsf1"
        save_nsf1(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_explicit_cutoff_round_trip(self, tmp_path):
        # files written at a cutoff below floor(N/3) keep N and K in the header
        f = random_divfree(1.0, 5, 2.0, GridSpec(16, 4))
        path = tmp_path / "k4.nsf1"
        save_nsf1(f, path)
        back = load_nsf1(path)
        assert back.grid == GridSpec(16, 4)
        assert np.array_equal(back.coef, f.coef)

    def test_header_layout(self, tmp_path, grid8):
        f = named_flow("shear", 1.0, grid8)
        path = tmp_path / "x.nsf1"
        save_nsf1(f, path)
        blob = path.read_bytes()
        assert blob[:4] == b"NSF1"
        n, k, ncomp = np.frombuffer(blob[4:16], dtype="<u4")
        assert (n, k, ncomp) == (8, 2, 3)
        m = 2 * k + 1
        assert len(blob) == 16 + 16 * 3 * m**3

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nsf1"
        p.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_nsf1(p)

    def test_truncated(self, tmp_path, grid8):
        f = named_flow("shear", 1.0, grid8)
        p = tmp_path / "t.nsf1"
        save_nsf1(f, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_nsf1(p)


class TestFieldArithmetic:
    def test_whole_cube_rejected(self, grid8):
        m = grid8.modes_per_axis
        with pytest.raises(ValueError, match=r"\(3, 5, 5, 3\)"):
            SpectralField(grid8, np.zeros((3, m, m, m), dtype=np.complex128))

    def test_grid_mismatch(self, grid8, grid16):
        with pytest.raises(ValueError, match="grid"):
            _ = named_flow("shear", 1.0, grid8) + named_flow("shear", 1.0, grid16)

    def test_linear_ops(self, rand16):
        s = rand16 + rand16 - 2.0 * rand16
        assert np.max(np.abs(s.coef)) == 0.0
        assert np.array_equal((-1.0 * rand16).coef, -rand16.coef)


SIZE8 = 16 + 16 * 3 * 5**3  # bytes of an N=8 snapshot (K=2)


class TestSnapshotProperties:
    """load_nsf1 turns every malformed file into a ValueError, never into a
    different exception or a silently altered field."""

    quick = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

    @staticmethod
    def assert_rejected(tmp_path, blob):
        path = tmp_path / "x.nsf1"
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            load_nsf1(path)

    @quick
    @given(head=st.binary(max_size=4).filter(lambda b: b != b"NSF1"),
           rest=st.binary(max_size=64))
    def test_bad_magic(self, tmp_path, head, rest):
        self.assert_rejected(tmp_path, head + rest)

    @quick
    @given(cut=st.integers(min_value=4, max_value=2 * SIZE8).filter(lambda n: n != SIZE8))
    @example(cut=2 * SIZE8)  # two copies of one snapshot
    def test_truncated(self, tmp_path, rand8, cut):
        # a prefix of two concatenated copies: short of one body, or with
        # bytes after it
        blob = nsf1_bytes(8, 2, full_cube(rand8.coef))
        self.assert_rejected(tmp_path, (blob + blob)[:cut])

    @quick
    @given(n=st.integers(min_value=0, max_value=2**32 - 1),
           k=st.integers(min_value=0, max_value=2**32 - 1),
           body=st.binary(max_size=64))
    def test_grid_out_of_range(self, tmp_path, n, k, body):
        valid = n >= 4 and n % 2 == 0 and 1 <= k <= n // 2 - 1
        blob = b"NSF1" + struct.pack("<III", n, k, 3) + body
        if valid:  # a valid grid with a short body: truncated
            assert len(body) < 16 * 3 * (2 * k + 1) ** 3
        self.assert_rejected(tmp_path, blob)

    @quick
    @given(seed=st.integers(min_value=0, max_value=10**6),
           index=st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 4),
                           st.integers(0, 4)),
           re=st.floats(min_value=-4.0, max_value=4.0),
           im=st.floats(min_value=0.5, max_value=4.0))
    def test_non_hermitian(self, tmp_path, seed, index, re, im):
        full = full_cube(random_divfree(1.0, seed, 2.0, GridSpec(8)).coef)
        full[index] += complex(re, im)  # Im != 0 breaks even the real k=0 slot
        self.assert_rejected(tmp_path, nsf1_bytes(8, 2, full))

    @quick
    @given(rest=st.binary(max_size=200))
    def test_arbitrary_header(self, tmp_path, rest):
        # too short for any body: the smallest grid (N=4) needs 1296 bytes
        self.assert_rejected(tmp_path, b"NSF1" + rest)
