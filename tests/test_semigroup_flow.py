"""Heat semigroup, IF-RK4 stepping, and the norm series."""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mildns import (
    BlowupError,
    GridSpec,
    NormSeries,
    SpectralField,
    compactness_experiment,
    divergence_linf,
    heat_propagate,
    hs_norm,
    march,
    named_flow,
    norms_from_csv,
    norms_to_csv,
    random_divfree,
    simulate,
    single_mode_field,
    smoothing_ratio,
)
from mildns import semigroup_flow


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

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nan_time_rejected(self, rand16, t):
        with pytest.raises(ValueError, match="forward in time"):
            heat_propagate(rand16, t)

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

    @pytest.mark.parametrize("delta, t, named", [(1.0, math.nan, "t > 0"),
                                                 (math.nan, 1.0, "delta > 0"),
                                                 (1.0, math.inf, "t > 0 and finite"),
                                                 (math.inf, 1.0, "delta > 0 and finite")])
    def test_nan_rejected(self, rand16, delta, t, named):
        with pytest.raises(ValueError, match=named):
            smoothing_ratio(rand16, 1.0, delta, t)


def one_step(u, dt):
    """One IF-RK4 step of size dt, the final field of a one-step run."""
    return simulate(u, dt, dt).fields[-1]


class TestStep:
    def test_shear_step_is_pure_heat(self, grid16):
        u = named_flow("shear", 1.0, grid16)
        out = one_step(u, 1e-2)
        want = heat_propagate(u, 1e-2)
        assert np.max(np.abs(out.coef - want.coef)) <= 1e-15

    def test_taylor_green_exact_decay(self, grid8):
        u = named_flow("taylor_green", 1.0, grid8)
        cur = u
        for _ in range(200):
            cur = one_step(cur, 1e-3)
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
            one_step(u, 1e-3)


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

    def test_norm_rows_bounded_per_step(self):
        # a step's norms take one 32-byte column of an array sized to the
        # plan, not four Python floats in four lists (about 150 bytes); the
        # peaks of two runs differ by their steps' rows alone
        u0 = random_divfree(1.0, 3, 2.0, GridSpec(4))
        simulate(u0, 0.01, 1e-3)  # caches and transform workspace warmed

        def peak_growth(steps):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                traj = simulate(u0, steps * 1e-3, 1e-3, store_every=10**9)
                assert len(traj.norm_series.times) == steps + 1
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert (peak_growth(600) - peak_growth(100)) / 500 <= 40

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

    def test_cutoff_alone_sets_the_run(self):
        # the padded grid depends only on K, so N=16 at K=4 is N=12's run
        u12 = random_divfree(1.0, 5, 2.0, GridSpec(12))
        u16 = random_divfree(1.0, 5, 2.0, GridSpec(16, 4))
        assert np.array_equal(u16.coef, u12.coef)
        a = simulate(u12, 0.05, 1e-2)
        b = simulate(u16, 0.05, 1e-2)
        for name in ("times", "l2", "h1", "div_linf"):
            assert np.array_equal(getattr(a.norm_series, name), getattr(b.norm_series, name))
        assert np.array_equal(a.fields[-1].coef, b.fields[-1].coef)

    def test_l2_monotone(self, grid8):
        u0 = random_divfree(1.0, 9, 2.0, grid8)
        traj = simulate(u0, 0.2, 2e-3)
        assert np.max(np.diff(traj.norm_series.l2)) <= 1e-10 * 2e-3

    def test_growth_inside_the_ball_marches_on(self, grid8):
        # steep-spectrum data whose H1 norm dips, then grows (24 -> 23.95 ->
        # 24.06 -> 24.32 ...), far inside its Galerkin ball
        u0 = random_divfree(24.0, 2, 6.0, grid8)
        traj = simulate(u0, 0.1, 1e-2)
        h1 = traj.norm_series.h1
        assert traj.norm_series.times[-1] == 0.1
        assert h1[1] < h1[0] < h1[2] < h1[3] and h1[3] == pytest.approx(24.32, abs=5e-3)
        assert np.max(h1) <= math.sqrt(3.0) * grid8.cutoff * hs_norm(u0, 0.0)

    def test_corner_mode_on_its_ball_marches_on(self, grid8):
        # every retained |k|^2 <= 3K^2, with equality only at the corners, so a
        # corner mode starts on its ball; alone it is a heat mode, and decays
        K = grid8.cutoff
        u0 = single_mode_field(grid8, (K, K, K), (1.0, -1.0, 0.0), 1.0)
        assert hs_norm(u0, 1.0) == math.sqrt(3.0) * K * hs_norm(u0, 0.0)
        traj = simulate(u0, 0.1, 1e-2)
        assert traj.norm_series.times[-1] == 0.1
        want = hs_norm(u0, 1.0) * np.exp(-3 * K**2 * traj.norm_series.times)
        assert np.max(np.abs(traj.norm_series.h1 - want) / want) <= 1e-12

    def test_ceiling_blowup_carries_partial_trajectory(self, grid16):
        # the Galerkin ball is each datum's own H1 ceiling: this datum makes
        # two steps inside it, and its third leaves it
        u0 = random_divfree(150.0, 1, 2.0, grid16)
        ball = math.sqrt(3.0) * grid16.cutoff * hs_norm(u0, 0.0)
        with pytest.raises(BlowupError) as exc:
            simulate(u0, 0.1, 1e-2)
        assert str(exc.value).startswith("left the Galerkin ball")
        traj = exc.value.trajectory
        assert traj.norm_series.times == pytest.approx([0.0, 0.01, 0.02])
        assert exc.value.time == pytest.approx(0.03)
        assert np.all(traj.norm_series.h1 <= ball)
        assert hs_norm(exc.value.last_field, 1.0) == traj.norm_series.h1[-1]
        assert np.array_equal(traj.fields[-1].coef, exc.value.last_field.coef)
        # the retirement is the first step outside the ball
        e_half, e_full = semigroup_flow._decay_factors(grid16, 1e-2)
        [out] = semigroup_flow._if_rk4_step(exc.value.last_field.coef[None], grid16, 1e-2,
                                            e_half, e_full)
        assert not hs_norm(SpectralField(grid16, out), 1.0) <= ball

    def test_overflow_blowup_carries_finite_last_field(self, grid8):
        # the run stops at the first step, whose overflow leaves the ball
        u0 = random_divfree(1e150, 1, 2.0, grid8)
        with pytest.raises(BlowupError) as exc:
            simulate(u0, 0.05, 1e-2)
        assert exc.value.time == pytest.approx(0.01)
        assert np.array_equal(exc.value.last_field.coef, u0.coef)
        assert np.all(np.isfinite(exc.value.last_field.coef))
        assert list(exc.value.trajectory.norm_series.times) == [0.0]

    def test_nonfinite_stop_stores_last_finite_state(self, grid8, monkeypatch):
        # the fourth step goes non-finite after three steps that stored no field
        real, calls = semigroup_flow._if_rk4_step, []

        def fails_fourth(coefs, grid, h, e_half, e_full):
            calls.append(h)
            if len(calls) == 4:
                return np.full_like(coefs, np.nan)
            return real(coefs, grid, h, e_half, e_full)

        monkeypatch.setattr(semigroup_flow, "_if_rk4_step", fails_fourth)
        u0 = random_divfree(0.5, 2, 2.0, grid8)
        with pytest.raises(BlowupError) as exc:
            simulate(u0, 0.1, 1e-2, store_every=10)
        traj = exc.value.trajectory
        assert traj.norm_series.times == pytest.approx([0.0, 0.01, 0.02, 0.03])
        assert traj.fields[-1] is exc.value.last_field
        assert traj.field_times[-1] == traj.norm_series.times[-1]
        assert hs_norm(traj.fields[-1], 1.0) == traj.norm_series.h1[-1]

    def test_invalid_horizon(self, grid8):
        with pytest.raises(ValueError):
            simulate(named_flow("shear", 1.0, grid8), 0.0, 1e-2)

    @pytest.mark.parametrize("every", [2.5, 2.0, "2", None, 0, -1])
    def test_store_every_must_be_a_positive_integer(self, grid8, every):
        # 2.5 stored every 5th step (i % 2.5 == 0), which no caller asked for
        with pytest.raises(ValueError, match=f"^store_every must be an integer >= 1, got {every!r}$"):
            simulate(named_flow("shear", 1.0, grid8), 0.012, 1e-3, store_every=every)

    def test_store_every_numpy_integer(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        want = simulate(u0, 0.012, 1e-3, store_every=5).field_times
        got = simulate(u0, 0.012, 1e-3, store_every=np.int64(5)).field_times
        assert np.array_equal(got, want) and np.array_equal(want, [0.0, 0.005, 0.01, 0.012])

    # simulate takes no ceiling (a TypeError): the Galerkin ball of its datum
    # is its own
    @pytest.mark.parametrize("kw, named", [
        ({"store_every": 0}, "store_every"),
        ({"ceiling": 0.0}, "ceiling"),
        ({"ceiling": math.nan}, "ceiling"),
    ])
    def test_invalid_storage_and_ceiling(self, grid8, kw, named):
        with pytest.raises((ValueError, TypeError), match=named):
            simulate(named_flow("shear", 1.0, grid8), 0.1, 1e-2, **kw)


class TestMarch:
    def test_plan_lands_on_horizon(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        times = [t for t, _, _ in march([u0], 0.105, 1e-2)]
        assert len(times) == 12  # t = 0, 10 full steps, shortened last
        assert times[0] == 0.0
        assert times[-1] == 0.105
        assert all(t < 0.105 for t in times[:-1])

    def test_step_limit(self, grid8, monkeypatch):
        # march owns the only step limit; a plan within it is accepted
        # before any step, and one beyond it is refused before any step
        monkeypatch.setattr(semigroup_flow, "_lockstep", lambda *args: "accepted")
        u0 = SpectralField.zero(grid8)
        assert march([u0], 10.0, 1e-6) == "accepted"  # exactly MAX_STEPS steps
        assert semigroup_flow._plan_steps(10.0, 1e-6) == semigroup_flow.MAX_STEPS
        for T, dt in [(10.0, 0.99e-6), (1e300, 1e-10)]:
            with pytest.raises(ValueError,
                               match=rf"dt = {dt:.6g} plans .* steps, over the limit of 10000000"):
                march([u0], T, dt)

    def test_arguments_checked_before_stepping(self, grid8):
        u0 = SpectralField.zero(grid8)
        with pytest.raises(ValueError, match="horizon"):
            march([u0], 0.0, 1e-2)
        with pytest.raises(ValueError, match="dt"):
            march([u0], 0.1, 0.0)
        with pytest.raises(ValueError, match="grid"):
            march([u0, SpectralField.zero(GridSpec(16))], 0.1, 1e-2)
        with pytest.raises(ValueError, match="grid"):
            list(semigroup_flow._unretired(march([u0, SpectralField.zero(GridSpec(16))],
                                                 0.1, 1e-2)))

    @pytest.mark.parametrize("T, dt, message", [
        (math.nan, 1e-2, "horizon T must be positive and finite, got nan"),
        (math.inf, 1e-2, "horizon T must be positive and finite, got inf"),
        (1.0, math.nan, "dt must be positive and finite, got nan"),
        # T / inf = 0 passes the step limit, but the one step it plans
        # has length T - 0 * inf = NaN
        (1.0, math.inf, "dt must be positive and finite, got inf"),
    ])
    def test_non_finite_arguments_named(self, grid8, T, dt, message):
        # refused before the step count, which would blame dt for a bad T
        u0 = SpectralField.zero(grid8)
        for run in (lambda: march([u0], T, dt), lambda: simulate(u0, T, dt)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                run()

    @pytest.mark.parametrize("fault, message", [
        ("gradient", r"nonlinear_term requires a divergence-free field \(div_linf=1\.000e\+00\)"),
        ("nan", r"field has non-finite coefficients"),
    ])
    def test_datum_checked_before_any_step(self, grid8, monkeypatch, fault, message):
        # march checks its data, not each RK4 stage, so every entry point
        # must refuse such a datum before it is stepped at all
        steps = []
        monkeypatch.setattr(semigroup_flow, "_if_rk4_step", lambda *args: steps.append(args))
        good = random_divfree(1.0, 3, 2.0, grid8)
        bad = good.copy()
        K = grid8.cutoff
        if fault == "gradient":  # u = (2 cos x1, 0, 0): k . coef = 1 at k = +-(1, 0, 0)
            bad.coef[0, K + 1, K, 0] += 1.0
            bad.coef[0, K - 1, K, 0] += 1.0
        else:
            bad.coef[2, K, K + 1, 1] = np.nan
        runs = [lambda: march([good, bad], 0.05, 0.01),
                lambda: simulate(bad, 0.05, 0.01),
                lambda: compactness_experiment(bad, [1], 0.0, 0.05, dt=0.01)]
        for run in runs:
            with pytest.raises(ValueError, match=message):
                run()
        assert steps == []


class TestSplit:
    """The one rule that cuts fields into transform stacks and ensemble
    samples into chunks."""

    def test_pairs(self):
        for count in range(1, 71):
            for size in range(1, 6):
                for parts in range(1, min(4, count) + 1):
                    pairs = semigroup_flow._split(count, size, parts)
                    assert [k for a, b in pairs for k in range(a, b)] == list(range(count))
                    lengths = [b - a for a, b in pairs]
                    assert len(pairs) >= parts
                    assert 1 <= min(lengths) and max(lengths) <= size
                    assert max(lengths) - min(lengths) <= 1

    def test_stack_size(self):
        assert semigroup_flow._stack_size(GridSpec(16)) == semigroup_flow.STACK_SIZE
        assert semigroup_flow._stack_size(GridSpec(24)) == 1  # P = 24


class TestStackedMarch:
    """Below P = 24 a march steps its states in stacks of up to STACK_SIZE,
    fixed for the whole march; each row is bitwise the state's own march,
    and a state that leaves its Galerkin ball retires alone while its row
    stays in the stack."""

    def test_overflow_mid_stack(self):
        grid = GridSpec(16)  # P = 16: one stack of four
        T, dt = 0.05, 1e-2
        bad = random_divfree(1e3, 1, 2.0, grid)  # leaves its ball before T
        good = [random_divfree(0.5, seed, 2.0, grid) for seed in (2, 3, 4)]
        states = [good[0], bad, good[1], good[2]]
        assert len(states) == semigroup_flow.STACK_SIZE
        with pytest.raises(BlowupError) as single:
            simulate(bad, T, dt)
        alone = list(march([bad], T, dt))
        # a march whose every state retired ends at that step
        assert [t for t, _, _ in alone] == [t for t, _, _ in march([good[0]], T, dt)
                                            if t <= single.value.time]
        assert alone[-1][1] == [None] and alone[-1][0] == single.value.time
        last_finite = alone[-2][1][0]
        assert np.array_equal(single.value.last_field.coef, last_finite.coef)

        together = list(march(states, T, dt))
        assert [t for t, _, _ in together] == [t for t, _, _ in march([good[0]], T, dt)]
        for t, now, _ in together:
            assert (now[1] is None) == (t >= single.value.time)
        for j, u in ((0, good[0]), (2, good[1]), (3, good[2])):
            for (_, now, _), (_, (v,), _) in zip(together, march([u], T, dt)):
                assert np.array_equal(now[j].coef, v.coef)

        with pytest.raises(BlowupError) as distances:
            list(semigroup_flow._unretired(march(states, T, dt)))
        for exc in (single.value, distances.value):
            assert exc.time == single.value.time
            assert str(exc) == ("left the Galerkin ball |u|_H1 <= sqrt(3) K |u0|_L2 "
                                f"at t={single.value.time:.6g}")
            assert np.array_equal(exc.last_field.coef, last_finite.coef)

    def test_stacks_are_balanced(self, monkeypatch):
        # five states at P = 16 step as stacks of 2 and 3; a lone state's
        # stack is a view of its datum
        seen = []
        step = semigroup_flow._if_rk4_step

        def recording(coefs, *args):
            seen.append(coefs)
            return step(coefs, *args)

        monkeypatch.setattr(semigroup_flow, "_if_rk4_step", recording)
        grid = GridSpec(16)
        states = [random_divfree(0.5, seed, 2.0, grid) for seed in range(5)]
        for _ in march(states, 0.02, 1e-2):
            pass
        # two stacks may step on two threads, in either order within a step
        assert [sorted(len(c) for c in seen[i:i + 2]) for i in (0, 2)] == [[2, 3], [2, 3]]
        seen.clear()
        for _ in march(states[:1], 0.01, 1e-2):
            pass
        assert len(seen) == 1 and np.shares_memory(seen[0], states[0].coef)

    def test_rows_are_independent(self):
        # the stacked step treats each row as alone, so a dead row can stay
        # in its stack without touching its neighbours
        grid = GridSpec(16)
        K, h = grid.cutoff, 1e-2
        e_half, e_full = semigroup_flow._decay_factors(grid, h)
        coefs = np.stack([random_divfree(0.5, seed, 2.0, grid).coef for seed in range(4)])
        coefs[1, 2, K, K + 1, 1] = np.nan
        coefs[2, 0, K, K + 1, 0] = coefs[2, 0, K, K - 1, 0] = 1e300  # overflows in u (x) u
        out = semigroup_flow._if_rk4_step(coefs, grid, h, e_half, e_full)
        for j in (0, 3):
            alone = semigroup_flow._if_rk4_step(coefs[j][None], grid, h, e_half, e_full)
            assert np.array_equal(out[j], alone[0])
        assert not np.isfinite(out[1]).all() and not np.isfinite(out[2]).all()

    def test_staggered_retirements(self):
        grid = GridSpec(16)  # P = 16: one stack of four
        T, dt = 0.05, 1e-2
        late, early = random_divfree(150.0, 1, 2.0, grid), random_divfree(1e5, 5, 2.0, grid)
        good = [random_divfree(0.5, seed, 2.0, grid) for seed in (2, 3)]
        states = [late, good[0], early, good[1]]
        blowup = {}
        for j in (0, 2):
            with pytest.raises(BlowupError) as single:
                simulate(states[j], T, dt)
            blowup[j] = single.value.time
        assert blowup[2] < blowup[0]
        together = list(march(states, T, dt))
        assert together[-1][0] == T
        for t, now, _ in together:
            for j, t_blow in blowup.items():
                assert (now[j] is None) == (t >= t_blow)
        for j in (1, 3):
            for (_, now, _), (_, (v,), _) in zip(together, march([states[j]], T, dt),
                                                 strict=True):
                assert np.array_equal(now[j].coef, v.coef)
        # a march whose every state retired ends at the last retirement
        bad_only = list(march([late, early], T, dt))
        assert bad_only[-1][0] == blowup[0]
        assert bad_only[-1][1] == [None, None]


class TestThreadedMarch:
    """A march of 2 or more stacks steps them on several threads (at
    P >= 24 every state is a stack); each state's arithmetic is that of a
    serial march."""

    def test_every_state_matches_its_single_march(self):
        grid = GridSpec(32)
        states = [random_divfree(1.0, seed, 2.0, grid) for seed in (1, 2, 3)]
        together = list(march(states, 2.5e-3, 1e-3))
        for j, u in enumerate(states):
            alone = list(march([u], 2.5e-3, 1e-3))
            assert [t for t, _, _ in together] == [t for t, _, _ in alone]
            for (_, step_states, _), (_, (v,), _) in zip(together, alone):
                assert np.array_equal(step_states[j].coef, v.coef)

    def test_worker_count(self, monkeypatch):
        # one thread per stack and usable core, at most LOCKSTEP_THREADS
        def threads(states, grid):
            return semigroup_flow._worker_count(len(semigroup_flow._split(
                states, semigroup_flow._stack_size(grid))))

        monkeypatch.setattr(semigroup_flow, "_usable_cores", lambda: 8)
        assert threads(4, GridSpec(32)) == semigroup_flow.LOCKSTEP_THREADS == 2
        assert threads(1, GridSpec(32)) == 1
        assert threads(4, GridSpec(16)) == 1  # P = 16: one stack of four
        assert threads(8, GridSpec(16)) == 2  # two stacks of four
        monkeypatch.setattr(semigroup_flow, "_usable_cores", lambda: 1)
        assert threads(4, GridSpec(32)) == 1
        assert threads(8, GridSpec(16)) == 1

    @pytest.mark.parametrize("cpus, workers", [(4, 2), (None, 1)])
    def test_marches_without_cpu_affinity(self, monkeypatch, cpus, workers):
        # platforms without os.sched_getaffinity (macOS) count os.cpu_count()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        grid = GridSpec(24)
        states = [random_divfree(0.5, seed, 2.0, grid) for seed in (1, 2, 3)]
        assert semigroup_flow._worker_count(len(states)) == workers  # P = 24: stacks of one
        [*_, (_, together, _)] = march(states, 2e-2, 1e-2)
        for u, v in zip(states, together):
            [*_, (_, (alone,), _)] = march([u], 2e-2, 1e-2)
            assert np.array_equal(v.coef, alone.coef)

    def test_five_threads_match_single_marches(self, monkeypatch):
        # five workers with a tiny switch interval: a workspace shared between
        # threads would mix their transforms
        monkeypatch.setattr(semigroup_flow, "_worker_count", lambda stacks: stacks)
        grid = GridSpec(24)
        states = [random_divfree(0.5, seed, 2.0, grid) for seed in range(5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            [*_, (_, together, _)] = march(states, 2e-2, 1e-2)
        finally:
            sys.setswitchinterval(interval)
        for u, v in zip(states, together):
            [*_, (_, (alone,), _)] = march([u], 2e-2, 1e-2)
            assert np.array_equal(v.coef, alone.coef)

    @staticmethod
    def run(states):
        for _ in march(states, 0.05, 1e-2):
            pass

    def test_blowup_matches_single_march(self):
        grid = GridSpec(24)
        # on a helper thread: leaves its ball before T
        bad = random_divfree(1e3, 1, 2.0, grid)
        states = [random_divfree(0.5, 2, 2.0, grid), bad, random_divfree(0.5, 3, 2.0, grid)]
        together = list(march(states, 0.05, 1e-2))
        with pytest.raises(BlowupError) as alone:
            simulate(bad, 0.05, 1e-2)
        assert alone.value.time < 0.05
        # the bad state retires at the blowup time; the others march on to T
        assert [t for t, _, _ in together] == [t for t, _, _ in march([states[0]], 0.05, 1e-2)]
        for t, step_states, _ in together:
            assert (step_states[1] is None) == (t >= alone.value.time)
            assert step_states[0] is not None and step_states[2] is not None
        [(_, before)] = [(t, s) for t, s, _ in together if t < alone.value.time][-1:]
        assert np.array_equal(before[1].coef, alone.value.last_field.coef)
        with pytest.raises(BlowupError) as distances:
            list(semigroup_flow._unretired(march(states, 0.05, 1e-2)))
        assert distances.value.time == alone.value.time
        assert np.array_equal(distances.value.last_field.coef, alone.value.last_field.coef)

    def test_helper_threads_end_with_the_march(self):
        grid = GridSpec(24)
        good = [random_divfree(0.5, seed, 2.0, grid) for seed in (2, 3, 4)]
        start = threading.active_count()
        self.run(good)
        assert threading.active_count() == start
        mixed = [good[0], random_divfree(1e3, 1, 2.0, grid), good[1]]
        *_, (_, last, _) = march(mixed, 0.05, 1e-2)
        assert last[1] is None
        assert threading.active_count() == start
        with pytest.raises(BlowupError):
            list(semigroup_flow._unretired(march(mixed, 0.05, 1e-2)))
        assert threading.active_count() == start
        steps = march(good, 0.05, 1e-2)
        next(steps)  # t = 0: no thread yet
        assert threading.active_count() == start
        next(steps)  # the first step, on every worker but the calling thread
        helpers = semigroup_flow._worker_count(len(good)) - 1  # P = 24: stacks of one
        assert threading.active_count() == start + helpers
        steps.close()
        assert threading.active_count() == start


class TestMarchH1:
    """``march`` yields each state's H^1 norm, read once per stack and
    yield for the Galerkin ball: bitwise the state's ``hs_norm(u, 1.0)``
    while it marches, NaN once it has retired."""

    @staticmethod
    def assert_h1_readings(steps, count):
        retired = 0
        for _, states, h1 in steps:
            assert h1.dtype == np.float64 and h1.shape == (count,)
            for u, value in zip(states, h1.tolist()):
                if u is None:
                    assert math.isnan(value)
                else:
                    assert value == hs_norm(u, 1.0)
            retired += states.count(None)
        return retired

    def test_stacked_states_with_a_retirement(self):
        grid = GridSpec(16)  # P = 16: stacks of 2 and 3
        assert semigroup_flow._split(5, semigroup_flow._stack_size(grid)) == [(0, 2), (2, 5)]
        states = [random_divfree(0.5, seed, 2.0, grid) for seed in (2, 3, 4, 6)]
        states.insert(3, random_divfree(1e3, 1, 2.0, grid))  # leaves its ball before T
        assert self.assert_h1_readings(march(states, 0.05, 1e-2), 5) > 0

    def test_lone_states_on_two_threads(self, monkeypatch):
        monkeypatch.setattr(semigroup_flow, "_usable_cores", lambda: 2)
        grid = GridSpec(32)  # P = 32: every state is a stack
        states = [random_divfree(1.0, seed, 2.0, grid) for seed in (1, 2)]
        assert semigroup_flow._worker_count(len(states)) == 2
        assert self.assert_h1_readings(march(states, 2.5e-3, 1e-3), 2) == 0

    def test_one_h1_pass_per_stack_and_yield(self, monkeypatch):
        # the march's ball reading is the only per-step H^1 pass: simulate and
        # the ensemble read the norms it yields instead of their own hs_norm
        from mildns import explorer_cli

        passes, hs_orders = [], []
        stack_norms, plain = semigroup_flow._stack_norms, semigroup_flow.hs_norm

        def counted_stack_norms(coefs, grid, s):
            passes.append((s, len(coefs)))
            return stack_norms(coefs, grid, s)

        def counted_hs_norm(f, s):
            hs_orders.append(s)
            return plain(f, s)

        monkeypatch.setattr(semigroup_flow, "_stack_norms", counted_stack_norms)
        monkeypatch.setattr(semigroup_flow, "hs_norm", counted_hs_norm)
        monkeypatch.setattr(explorer_cli, "hs_norm", counted_hs_norm)
        grid = GridSpec(16)
        states = [random_divfree(0.5, seed, 2.0, grid) for seed in range(5)]
        yields = sum(1 for _ in march(states, 0.03, 1e-2))
        assert yields == 4
        assert [rows for s, rows in passes if s == 1.0] == [2, 3] * yields
        assert [rows for s, rows in passes if s == 0.0] == [2, 3]  # the ball, once

        passes.clear()
        traj = simulate(states[0], 0.03, 1e-2)
        assert [rows for s, rows in passes if s == 1.0] == [1] * len(traj.norm_series.times)
        assert 1.0 not in hs_orders

        cfg = explorer_cli.ExperimentConfig(grid_n=16, horizon=0.03, dt=1e-2,
                                            a_list=(0.5,), samples_per_a=5)
        passes.clear()
        explorer_cli.estimate_F(cfg)  # chunks of 2 and 3 samples, one march each
        assert [rows for s, rows in passes if s == 1.0] == [2] * yields + [3] * yields
        assert 1.0 not in hs_orders


class TestNormSeriesCsv:
    def test_round_trip(self, tmp_path, grid8):
        traj = simulate(named_flow("shear", 1.0, grid8), 0.05, 1e-2)
        path = tmp_path / "norms.csv"
        norms_to_csv(traj.norm_series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,l2,h1,enstrophy,div_linf"
        for row in lines[1:]:
            _, _, h1, enstrophy, _ = row.split(",")
            assert enstrophy == f"{float(h1) ** 2:.17g}"
        back = norms_from_csv(path)
        for a, b in (
            (back.times, traj.norm_series.times),
            (back.l2, traj.norm_series.l2),
            (back.h1, traj.norm_series.h1),
            (back.div_linf, traj.norm_series.div_linf),
        ):
            assert np.array_equal(a, b)  # 17 significant digits round-trip doubles

    @pytest.mark.parametrize("row, count", [("0,1,2,4,0,99,98", 7), ("0,1,2,4", 4)],
                             ids=["long", "short"])
    def test_row_field_count_checked(self, tmp_path, row, count):
        path = tmp_path / "norms.csv"
        path.write_text(f"t,l2,h1,enstrophy,div_linf\n0.5,1,2,4,0\n{row}\n")
        with pytest.raises(ValueError, match=f"^line 3 has {count} fields, not 5$"):
            norms_from_csv(path)

    @pytest.mark.parametrize("row, column, value", [("0.5,x,2,4,0", "l2", "'x'"),
                                                    ("0.5,1,2,4,", "div_linf", "''")])
    def test_non_numeric_value_named(self, tmp_path, row, column, value):
        # the line was named only for a wrong field count
        path = tmp_path / "norms.csv"
        path.write_text(f"t,l2,h1,enstrophy,div_linf\n0,1,2,4,0\n{row}\n")
        with pytest.raises(ValueError, match=f"^line 3, column {column}: {value} is not a number$"):
            norms_from_csv(path)

    @pytest.mark.parametrize("text", ["", "\n"], ids=["empty", "blank_first_line"])
    def test_missing_header_rejected(self, tmp_path, text):
        # an empty file raised StopIteration
        path = tmp_path / "norms.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^CSV header missing$"):
            norms_from_csv(path)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            NormSeries(np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0]),
                       np.array([0.0]))
        with pytest.raises(ValueError, match="increasing"):
            NormSeries(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2),
                       np.zeros(2))
        with pytest.raises(ValueError, match="nonnegative"):
            NormSeries(np.array([0.0, 1.0]), np.array([1.0, -1.0]), np.zeros(2),
                       np.zeros(2))
