"""Space-time norms, the Duhamel map, and the fixed-point solver."""

import json
import math

import numpy as np
import pytest

from mildns import (
    GridSpec,
    SpectralField,
    TimeGrid,
    TrajectoryX,
    heat_propagate,
    heat_trajectory,
    hs_norm,
    local_time,
    named_flow,
    phi_map,
    picard_solve,
    random_divfree,
    simulate,
    single_mode_field,
    tail_decay_profile,
    xt_norm,
)
from mildns.picard_wellposedness import report_to_json


def constant_trajectory(f, tgrid):
    return TrajectoryX(f.grid, tgrid, [f.copy() for _ in tgrid.nodes])


class TestTimeGrid:
    def test_uniform(self):
        tg = TimeGrid(0.5, 10)
        assert tg.nodes[0] == 0.0 and tg.nodes[-1] == 0.5
        assert tg.nodes.size == 11
        assert np.sum(tg.trapezoid_weights) == pytest.approx(0.5, rel=1e-15)

    def test_too_few_intervals(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 4)

    @pytest.mark.parametrize("T", [0.0, math.nan, math.inf])
    def test_horizon_positive_and_finite(self, T):
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(T, 16)


class TestXtNorm:
    def test_zero_trajectory(self, grid16):
        tg = TimeGrid(1.0, 16)
        z = constant_trajectory(SpectralField.zero(grid16), tg)
        assert xt_norm(z, 1.0) == 0.0

    def test_constant_unit_pair(self, grid16):
        # constant-in-time pair at |k|=1 with spatial norm sqrt(2) on [0,1]:
        # sup term sqrt(2); integral term (int_0^1 2 dt)^(1/2) = sqrt(2);
        # the quadrature is exact for a constant integrand
        f = single_mode_field(grid16, (1, 0, 0), (0.0, 1.0, 0.0), math.sqrt(2.0))
        assert hs_norm(f, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        tg = TimeGrid(1.0, 64)
        u = constant_trajectory(f, tg)
        assert xt_norm(u, 1.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)

    def test_heat_flow_closed_form(self, grid16):
        # heat flow of the same pair: sup sqrt(2) at t=0, integral term
        # (int_0^1 2 e^(-2t) dt)^(1/2) = sqrt(1 - e^-2); trapezoid converges
        # to it at second order
        f = single_mode_field(grid16, (1, 0, 0), (0.0, 1.0, 0.0), math.sqrt(2.0))
        want = math.sqrt(2.0) + math.sqrt(1.0 - math.exp(-2.0))
        errs = []
        for n in (64, 128, 256):
            u = heat_trajectory(f, TimeGrid(1.0, n))
            errs.append(abs(xt_norm(u, 1.0) - want))
        assert errs[0] <= 1e-4 * want
        order = math.log2(errs[0] / errs[1])
        assert abs(order - 2.0) <= 0.3


class TestLocalTime:
    def test_values(self):
        assert local_time(1.0, 0.01) == pytest.approx(0.01)
        assert local_time(2.0, 0.01) == pytest.approx(0.000625)
        assert local_time(0.1, 0.01) == 1.0  # capped from 100

    def test_zero_amplitude_caps(self):
        assert local_time(0.0, 0.01) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            local_time(-1.0, 0.01)
        with pytest.raises(ValueError):
            local_time(1.0, 0.0)


class TestPhiMap:
    def test_zero_input_gives_heat_flow(self, grid8):
        u0 = random_divfree(1.0, 3, 2.0, grid8)
        tg = TimeGrid(0.05, 32)
        zero = constant_trajectory(SpectralField.zero(grid8), tg)
        out = phi_map(zero, u0)
        want = heat_trajectory(u0, tg)
        assert xt_norm(out - want, 1.0) <= 1e-13

    def test_shear_heat_flow_is_fixed_point(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        tg = TimeGrid(0.1, 32)
        u = heat_trajectory(u0, tg)
        out = phi_map(u, u0)
        assert xt_norm(out - u, 1.0) <= 1e-13

    def test_initial_node_exact(self, grid8):
        u0 = random_divfree(0.7, 5, 2.0, grid8)
        tg = TimeGrid(0.02, 16)
        out = phi_map(heat_trajectory(u0, tg), u0)
        assert np.array_equal(out.fields[0].coef, u0.coef)

    def test_grid_mismatch_rejected(self, grid8, grid16):
        u0 = random_divfree(1.0, 3, 2.0, grid16)
        tg = TimeGrid(0.05, 16)
        u = heat_trajectory(random_divfree(1.0, 3, 2.0, grid8), tg)
        with pytest.raises(ValueError, match="grid"):
            phi_map(u, u0)

    def test_second_order_refinement(self, grid8):
        u0 = random_divfree(1.0, 9, 2.0, grid8)
        T = local_time(hs_norm(u0, 1.0), 0.01)

        def final(n):
            tg = TimeGrid(T, n)
            return phi_map(heat_trajectory(u0, tg), u0).fields[-1]

        ref = final(2048)
        errs = [hs_norm(final(n) - ref, 1.0) for n in (32, 64, 128)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert abs(p - 2.0) <= 0.3


class TestPicardSolve:
    def test_shear_converges_immediately(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        _, rep = picard_solve(u0, c=0.05, tol=1e-10)
        assert rep.converged
        assert rep.iterate_count <= 2

    def test_random_contracts(self, grid8):
        u0 = random_divfree(0.5, 11, 2.0, grid8)
        traj, rep = picard_solve(u0, c=0.01, tol=1e-10)
        assert rep.converged
        assert all(f <= 0.5 for f in rep.contraction_factors)
        assert rep.T_used == pytest.approx(local_time(rep.A_measured, 0.01))
        # recorded space-time bound constant
        assert xt_norm(traj, 1.0) <= rep.bound_constant * rep.A_measured * (1 + 1e-12)

    def test_matches_simulate(self, grid8):
        u0 = random_divfree(0.5, 11, 2.0, grid8)
        traj, rep = picard_solve(u0, c=0.01, tol=1e-10)
        sim = simulate(u0, rep.T_used, rep.T_used / 256, store_every=4)
        worst = 0.0
        for t_node, f in zip(traj.tgrid.nodes, traj.fields):
            for ft, fs in zip(sim.field_times, sim.fields):
                if abs(ft - t_node) < 1e-13:
                    worst = max(worst, hs_norm(f - fs, 1.0))
        assert worst <= 1e-4

    def test_two_seed_uniqueness_surrogate(self, grid8):
        u0 = random_divfree(0.6, 4, 2.0, grid8)
        tol = 1e-11
        a, ra = picard_solve(u0, c=0.01, tol=tol)
        # the same iteration started from the zero trajectory instead of the heat flow
        b = constant_trajectory(SpectralField.zero(grid8), a.tgrid)
        converged = False
        for _ in range(40):
            nxt = phi_map(b, u0)
            converged = xt_norm(nxt - b, 1.0) <= tol
            b = nxt
            if converged:
                break
        assert ra.converged and converged
        assert xt_norm(a - b, 1.0) <= 10 * tol

    def test_contraction_scaling_under_amplitude_doubling(self, grid8):
        # same data shape at A and 2A, each on its own horizon c A^-4
        base = random_divfree(0.5, 8, 2.0, grid8)
        bounds = []
        for fac in (1.0, 2.0):
            _, rep = picard_solve(fac * base, c=0.01, tol=1e-10)
            assert rep.converged
            bounds.append(max(rep.contraction_factors))
        assert max(bounds) < 0.9

    def test_lipschitz_data_dependence(self, grid8):
        u0 = random_divfree(0.5, 8, 2.0, grid8)
        A = hs_norm(u0, 1.0)
        direction = single_mode_field(grid8, (1, 1, 0), (0.0, 0.0, 1.0), 1.0)
        ls = []
        for delta in (1e-3 * A, 5e-4 * A):
            u, _ = picard_solve(u0, c=0.01, tol=1e-12)
            up, _ = picard_solve(u0 + delta * direction, c=0.01, tol=1e-12)
            # compare on the common time grid (same measured horizon scale)
            n = min(up.tgrid.nodes.size, u.tgrid.nodes.size)
            worst = max(
                hs_norm(a - b, 1.0) for a, b in zip(up.fields[:n], u.fields[:n])
            )
            ls.append(worst / delta)
        assert abs(ls[0] - ls[1]) <= 0.2 * ls[1]

    def test_nonconvergence_reported(self, grid8):
        u0 = random_divfree(5.0, 2, 2.0, grid8)
        _, rep = picard_solve(u0, c=1e5, tol=1e-10, max_iter=8)
        assert not rep.converged
        assert rep.T_used == 1.0  # capped horizon

    def test_divergence_flagged(self, grid8):
        u0 = random_divfree(20.0, 2, 2.0, grid8)
        _, rep = picard_solve(u0, c=1e7, tol=1e-10, max_iter=10)
        assert not rep.converged
        assert rep.diverged

    def test_auto_shrink_recovers(self, grid8):
        u0 = random_divfree(2.0, 2, 2.0, grid8)
        _, rep = picard_solve(u0, c=8.0, tol=1e-10, max_iter=10, auto_shrink=True)
        assert rep.converged
        assert rep.c_used < 8.0

    def test_report_invariant_and_json(self, grid8, tmp_path):
        u0 = random_divfree(0.5, 11, 2.0, grid8)
        _, rep = picard_solve(u0, c=0.01, tol=1e-10)
        assert len(rep.contraction_factors) == rep.iterate_count - 2
        assert len(rep.diff_norms) == rep.iterate_count - 1
        path = tmp_path / "report.json"
        report_to_json(rep, path)
        obj = json.loads(path.read_text())
        assert set(obj) == {
            "iterate_count", "T_used", "c_used", "A_measured",
            "x1_norms", "diff_norms", "contraction_factors", "converged",
        }
        assert obj["converged"] is True


class TestTailDecayProfile:
    def test_heat_flow_monotone_and_bounded(self, grid16):
        u0 = random_divfree(1.0, 6, 2.0, grid16)
        tg = TimeGrid(0.2, 32)
        prof = tail_decay_profile(heat_trajectory(u0, tg))
        K = grid16.cutoff
        for s in (1.0, 1.5):
            r = prof.ratios[s]
            assert np.all(np.diff(r) <= 1e-12)          # decreasing in time
            assert np.all(r <= r[0] + 1e-12)            # bounded by t=0 value
            # mode-wise decay bound at t = 0.1
            i = int(np.argmin(np.abs(prof.times - 0.1)))
            bound = math.exp(-((K / 2.0) ** 2) * 0.1 * 0.75) * r[0]
            assert r[i] <= bound

    def test_shear_has_no_tail(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        tg = TimeGrid(0.2, 16)
        prof = tail_decay_profile(heat_trajectory(u0, tg))
        for s in (1.0, 1.5):
            assert np.all(prof.ratios[s] == 0.0)

    def test_zero_field_all_zero(self, grid8):
        tg = TimeGrid(0.2, 16)
        prof = tail_decay_profile(constant_trajectory(SpectralField.zero(grid8), tg))
        for s in (1.0, 1.5):
            assert np.all(prof.ratios[s] == 0.0)

    def test_accepts_simulated_trajectory(self, grid8):
        traj = simulate(random_divfree(0.5, 3, 2.0, grid8), 0.1, 1e-2, store_every=2)
        prof = tail_decay_profile(traj)
        assert prof.times.size == len(traj.fields)
