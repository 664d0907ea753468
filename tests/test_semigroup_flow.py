"""Heat semigroup, IF-RK4 stepping, and the flow reductions."""

import math

import numpy as np
import pytest

from mildns import (
    BlowupError,
    GridSpec,
    NormSeries,
    SpectralField,
    divergence_linf,
    galilean_reduce,
    galilean_restore,
    heat_propagate,
    hs_norm,
    march,
    named_flow,
    norms_from_csv,
    norms_to_csv,
    random_divfree,
    sample_on_grid,
    simulate,
    single_mode_field,
    smoothing_ratio,
    step,
    sup_distances,
    viscosity_normalize,
)

from oracles import torus_mesh


class TestHeatPropagate:
    def test_identity_at_zero(self, rand16):
        out = heat_propagate(rand16, 0.0)
        assert np.array_equal(out.coef, rand16.coef)

    def test_single_mode_decay_rate(self, grid16):
        f = single_mode_field(grid16, (1, 0, 0), (0.0, 1.0, 0.0), 1.0)
        out = heat_propagate(f, 1.0)
        assert np.allclose(out.coef, math.exp(-1.0) * f.coef, rtol=1e-15, atol=0)

    def test_negative_time_rejected(self, rand16):
        with pytest.raises(ValueError):
            heat_propagate(rand16, -0.1)

    def test_semigroup_law(self, rand16):
        a = heat_propagate(heat_propagate(rand16, 0.3), 0.7)
        b = heat_propagate(rand16, 1.0)
        assert np.max(np.abs(a.coef - b.coef)) <= 1e-14

    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
    def test_spectral_gap_decay(self, rand16, t):
        lhs = hs_norm(heat_propagate(rand16, t), 0.0)
        assert lhs <= math.exp(-t) * hs_norm(rand16, 0.0) * (1 + 1e-12)


class TestSmoothingRatio:
    def test_single_mode_value(self, grid16):
        f = single_mode_field(grid16, (1, 0, 0), (0.0, 0.0, 1.0), 1.0)
        assert smoothing_ratio(f, 1.0, 1.0, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-13
        )

    def test_sweep_bounded_by_sup(self, rand16):
        bound = math.sqrt(0.5) * math.exp(-0.5)  # sup_x sqrt(x) e^-x
        for t in np.geomspace(1e-4, 1.0, 120):
            assert smoothing_ratio(rand16, 1.0, 1.0, float(t)) <= bound + 1e-6

    def test_vanishing_delta_is_contraction(self, rand16):
        assert smoothing_ratio(rand16, 1.0, 1e-9, 0.5) <= 1.0 + 1e-12

    def test_errors(self, grid16, rand16):
        with pytest.raises(ValueError, match="zero field"):
            smoothing_ratio(SpectralField.zero(grid16), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            smoothing_ratio(rand16, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            smoothing_ratio(rand16, 1.0, -1.0, 1.0)


class TestStep:
    def test_shear_step_is_pure_heat(self, grid16):
        u = named_flow("shear", 1.0, grid16)
        out = step(u, 1e-2)
        want = heat_propagate(u, 1e-2)
        assert np.max(np.abs(out.coef - want.coef)) <= 1e-15

    def test_taylor_green_exact_decay(self, grid8):
        u = named_flow("taylor_green", 1.0, grid8)
        cur = u
        for _ in range(200):
            cur = step(cur, 1e-3)
        want = math.exp(-0.4) * u
        rel = hs_norm(cur - want, 1.0) / hs_norm(want, 1.0)
        assert rel <= 1e-10

    def test_fourth_order_convergence(self, grid8):
        u0 = random_divfree(1.5, 5, 2.0, grid8)
        T = 0.25
        ref = simulate(u0, T, T / 1024).fields[-1]
        errs = [
            hs_norm(simulate(u0, T, T / n).fields[-1] - ref, 1.0)
            for n in (16, 32, 64)
        ]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert abs(p - 4.0) <= 0.3

    def test_halving_dt_cuts_error_16x(self, grid8):
        # reference at dt/8 of the coarse step
        u0 = random_divfree(1.0, 3, 2.0, grid8)
        T, dt = 0.2, 0.02
        ref = simulate(u0, T, dt / 8).fields[-1]
        e1 = hs_norm(simulate(u0, T, dt).fields[-1] - ref, 1.0)
        e2 = hs_norm(simulate(u0, T, dt / 2).fields[-1] - ref, 1.0)
        assert e1 / e2 == pytest.approx(16.0, rel=0.25)

    def test_overflow_raises_blowup(self, grid8):
        u = random_divfree(1e200, 1, 2.0, grid8)
        with pytest.raises(BlowupError):
            step(u, 1e-3)


class TestSimulate:
    def test_shear_h1_series_exact(self, grid8):
        traj = simulate(named_flow("shear", 1.0, grid8), 1.0, 1e-3)
        s = traj.norm_series
        want = (1.0 / math.sqrt(2.0)) * np.exp(-s.times)
        assert np.max(np.abs(s.h1 - want) / want) <= 1e-10

    def test_zero_data_zero_trajectory(self, grid8):
        traj = simulate(SpectralField.zero(grid8), 0.1, 1e-2)
        assert np.all(traj.norm_series.h1 == 0.0)
        assert np.all(traj.norm_series.l2 == 0.0)

    def test_time_grid_and_final_time(self, grid8):
        traj = simulate(named_flow("shear", 1.0, grid8), 0.105, 1e-2)
        assert traj.norm_series.times[-1] == 0.105
        assert len(traj.norm_series.times) == 12  # 10 full steps + shortened last

    def test_store_every_thinning(self, grid8):
        u0 = random_divfree(0.5, 2, 2.0, grid8)
        traj = simulate(u0, 0.1, 1e-2, store_every=4)
        assert list(traj.field_times) == [0.0, 0.04, 0.08, 0.1]
        # stored fields consistent with the norm series
        for t, f in zip(traj.field_times, traj.fields):
            i = int(np.argmin(np.abs(traj.norm_series.times - t)))
            assert hs_norm(f, 1.0) == pytest.approx(
                traj.norm_series.h1[i], rel=1e-12, abs=1e-300
            )

    def test_momentum_pinned_and_divergence(self, grid8):
        u0 = random_divfree(1.0, 9, 2.0, grid8)
        traj = simulate(u0, 0.2, 2e-3, store_every=10)
        K = grid8.cutoff
        for f in traj.fields:
            assert np.all(f.coef[:, K, K, 0] == 0.0)
        assert np.max(traj.norm_series.div_linf) <= 1e-10

    def test_l2_monotone(self, grid8):
        u0 = random_divfree(1.0, 9, 2.0, grid8)
        traj = simulate(u0, 0.2, 2e-3)
        assert np.max(np.diff(traj.norm_series.l2)) <= 1e-10 * 2e-3

    def test_ceiling_blowup_carries_partial_trajectory(self, grid8):
        # steep-spectrum data whose H1 norm dips, then grows past 24.1 on the
        # third step (24 -> 23.95 -> 24.06 -> 24.32)
        u0 = random_divfree(24.0, 2, 6.0, grid8)
        with pytest.raises(BlowupError) as exc:
            simulate(u0, 0.1, 1e-2, ceiling=24.1)
        traj = exc.value.trajectory
        assert traj is not None
        assert traj.norm_series.times == pytest.approx([0.0, 0.01, 0.02, 0.03])
        assert np.all(traj.norm_series.h1[:-1] <= 24.1) and traj.norm_series.h1[-1] > 24.1
        assert exc.value.time == pytest.approx(0.03)
        assert hs_norm(exc.value.last_field, 1.0) == traj.norm_series.h1[-1]

    def test_ceiling_checked_at_time_zero(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        with pytest.raises(BlowupError) as exc:
            simulate(u0, 0.1, 1e-2, ceiling=1e-3)
        assert exc.value.time == 0.0
        assert np.array_equal(exc.value.last_field.coef, u0.coef)
        traj = exc.value.trajectory
        assert list(traj.norm_series.times) == [0.0]
        assert len(traj.fields) == 1

    def test_overflow_blowup_carries_finite_last_field(self, grid8):
        # no ceiling, so the run stops on overflow rather than at t=0
        u0 = random_divfree(1e150, 1, 2.0, grid8)
        with pytest.raises(BlowupError) as exc:
            simulate(u0, 0.05, 1e-2, ceiling=math.inf)
        assert exc.value.time == pytest.approx(0.01)
        assert np.array_equal(exc.value.last_field.coef, u0.coef)
        assert np.all(np.isfinite(exc.value.last_field.coef))
        assert list(exc.value.trajectory.norm_series.times) == [0.0]

    def test_invalid_horizon(self, grid8):
        with pytest.raises(ValueError):
            simulate(named_flow("shear", 1.0, grid8), 0.0, 1e-2)

    @pytest.mark.parametrize("kw, named", [
        ({"store_every": 0}, "store_every"),
        ({"ceiling": 0.0}, "ceiling"),
        ({"ceiling": math.nan}, "ceiling"),
    ])
    def test_invalid_storage_and_ceiling(self, grid8, kw, named):
        with pytest.raises(ValueError, match=named):
            simulate(named_flow("shear", 1.0, grid8), 0.1, 1e-2, **kw)


class TestSupDistances:
    def test_identical_data(self, grid8):
        u0 = random_divfree(0.5, 1, 2.0, grid8)
        [(d, t)] = sup_distances(u0, [u0.copy()], 0.05, 1e-2)
        assert d == 0.0

    def test_window_excludes_initial_gap(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        w = single_mode_field(grid8, (2, 0, 0), (0.0, 1.0, 0.0), 0.1)
        [(full, _)] = sup_distances(u0, [u0 + w], 0.2, 1e-2, t_min=0.0)
        [(late, t_at)] = sup_distances(u0, [u0 + w], 0.2, 1e-2, t_min=0.1)
        assert late < full
        assert t_at >= 0.1

    def test_empty_window_rejected(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        with pytest.raises(ValueError, match="window"):
            sup_distances(u0, [u0], 0.05, 1e-2, t_min=1.0)

    def test_lockstep_matches_single_runs(self, grid8):
        base = random_divfree(0.8, 2, 2.0, grid8)
        a = base + random_divfree(0.1, 3, 2.0, grid8)
        b = base + single_mode_field(grid8, (2, 0, 0), (0.0, 1.0, 0.0), 0.3)
        both = sup_distances(base, [a, b], 0.055, 1e-2, t_min=0.02)
        single = (sup_distances(base, [a], 0.055, 1e-2, t_min=0.02)
                  + sup_distances(base, [b], 0.055, 1e-2, t_min=0.02))
        assert both == single


class TestMarch:
    def test_plan_lands_on_horizon(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        times = [t for t, _ in march([u0], 0.105, 1e-2)]
        assert len(times) == 11
        assert times[-1] == 0.105
        assert all(t < 0.105 for t in times[:-1])

    def test_arguments_checked_before_stepping(self, grid8):
        u0 = SpectralField.zero(grid8)
        with pytest.raises(ValueError, match="horizon"):
            march([u0], 0.0, 1e-2)
        with pytest.raises(ValueError, match="dt"):
            march([u0], 0.1, 0.0)
        with pytest.raises(ValueError, match="finite"):
            march([u0], 1e300, 1e-10)  # T / dt overflows
        with pytest.raises(ValueError, match="grid"):
            march([u0, SpectralField.zero(GridSpec(16))], 0.1, 1e-2)
        with pytest.raises(ValueError, match="grid"):
            sup_distances(u0, [SpectralField.zero(GridSpec(16))], 0.1, 1e-2)


class TestViscosityNormalize:
    def test_identity_at_one(self, rand16):
        assert np.array_equal(viscosity_normalize(rand16, 1.0).coef, rand16.coef)

    def test_norm_scales_linearly(self, rand16):
        out = viscosity_normalize(rand16, 2.5)
        assert hs_norm(out, 1.0) == pytest.approx(2.5 * hs_norm(rand16, 1.0), rel=1e-14)

    def test_nonpositive_rejected(self, rand16):
        for nu in (0.0, -1.0):
            with pytest.raises(ValueError):
                viscosity_normalize(rand16, nu)

    def test_shear_time_rescaling_contract(self, grid8):
        # the viscosity-nu evolution of nu*u0 is nu * u(nu t) with u the
        # unit-viscosity run of u0; for shear both sides have closed forms
        nu, a = 2.0, 1.0
        u0 = named_flow("shear", a, grid8)
        out = viscosity_normalize(u0, nu)
        assert hs_norm(out, 1.0) == pytest.approx(nu * a / math.sqrt(2.0), rel=1e-13)
        traj = simulate(u0, 1.0, 1e-3)
        s = traj.norm_series
        t_eval = 0.5
        # nu * u(nu t) at t_eval, read off the unit run at nu * t_eval = 1.0
        i = int(np.argmin(np.abs(s.times - nu * t_eval)))
        lhs = nu * s.h1[i]
        want = nu * a * math.exp(-nu * t_eval) / math.sqrt(2.0)  # closed form
        assert lhs == pytest.approx(want, rel=1e-9)


class TestGalilean:
    def test_mean_zero_passthrough(self, rand16):
        out, drift = galilean_reduce(rand16)
        assert np.array_equal(out.coef, rand16.coef)
        assert np.all(drift == 0.0)

    def test_constant_field(self, grid8):
        f = SpectralField.zero(grid8)
        K = grid8.cutoff
        f.coef[0, K, K, 0] = 0.7
        out, drift = galilean_reduce(f)
        assert np.max(np.abs(out.coef)) == 0.0
        assert drift == pytest.approx(np.array([0.7, 0.0, 0.0]))

    def test_drifting_shear_reconstruction(self, grid8):
        # data: shear + constant mean m; exact lab-frame solution is
        # e^-t sin(x2 - m2 t) + m
        m = np.array([0.0, 0.3, 0.0])
        u0 = named_flow("shear", 1.0, grid8)
        full0 = u0.copy()
        K = grid8.cutoff
        full0.coef[:, K, K, 0] = m
        reduced, drift = galilean_reduce(full0)
        assert drift == pytest.approx(m)
        t_end = 0.5
        traj = simulate(reduced, t_end, 1e-3)
        restored = galilean_restore(traj.fields[-1], drift, t_end)
        vals = sample_on_grid(restored)
        x1, x2, x3 = torus_mesh(8)
        want0 = math.exp(-t_end) * np.sin(x2 - m[1] * t_end)
        assert np.max(np.abs(vals[0] - want0)) <= 1e-9
        assert np.max(np.abs(vals[1] - m[1])) <= 1e-9
        assert np.max(np.abs(vals[2])) <= 1e-12


class TestNormSeriesCsv:
    def test_round_trip(self, tmp_path, grid8):
        traj = simulate(named_flow("shear", 1.0, grid8), 0.05, 1e-2)
        path = tmp_path / "norms.csv"
        norms_to_csv(traj.norm_series, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,l2,h1,enstrophy,div_linf"
        back = norms_from_csv(path)
        for a, b in (
            (back.times, traj.norm_series.times),
            (back.l2, traj.norm_series.l2),
            (back.h1, traj.norm_series.h1),
            (back.enstrophy, traj.norm_series.enstrophy),
            (back.div_linf, traj.norm_series.div_linf),
        ):
            assert np.array_equal(a, b)  # 17 significant digits round-trip doubles

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            NormSeries(np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0]),
                       np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="increasing"):
            NormSeries(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2),
                       np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="nonnegative"):
            NormSeries(np.array([0.0, 1.0]), np.array([1.0, -1.0]), np.zeros(2),
                       np.zeros(2), np.zeros(2))
