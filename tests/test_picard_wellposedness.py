"""Space-time norms, the Duhamel map, and the fixed-point solver."""

import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from mildns import (
    GridSpec,
    SpectralField,
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
    xt_norm,
)
from mildns import picard_wellposedness, semigroup_flow
from mildns.apriori_diagnostics import compactness_horizon

from oracles import reference_phi_map


def constant_trajectory(f, T, n):
    """f at each of the n + 1 nodes of [0, T]."""
    return TrajectoryX(T, [f.copy() for _ in range(n + 1)])


class TestTrajectoryX:
    def test_uniform(self, grid8):
        u = constant_trajectory(SpectralField.zero(grid8), 0.5, 10)
        assert np.array_equal(u.nodes, np.linspace(0.0, 0.5, 11))
        assert u.grid == grid8
        assert np.sum(u.trapezoid_weights) == pytest.approx(0.5, rel=1e-15)

    def test_too_few_intervals(self, grid8):
        with pytest.raises(ValueError, match="8 sub-intervals"):
            constant_trajectory(SpectralField.zero(grid8), 1.0, 7)

    @pytest.mark.parametrize("T", [0.0, math.nan, math.inf])
    def test_horizon_positive_and_finite(self, grid8, T):
        with pytest.raises(ValueError, match="horizon"):
            constant_trajectory(SpectralField.zero(grid8), T, 16)

    def test_underflowing_node_spacing_rejected(self, grid8):
        # 1e-307 / 64 is subnormal, so phi_map's 1 / spacing would overflow
        u0 = random_divfree(7e76, 2, 2.0, grid8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="node spacing"):
                phi_map(heat_trajectory(u0, 1e-307, 64), u0)
        heat_trajectory(u0, 64 * sys.float_info.min, 64)  # the smallest accepted

    def test_fields_on_two_grids_rejected(self, grid8, grid16):
        fields = [SpectralField.zero(grid8) for _ in range(16)] + [SpectralField.zero(grid16)]
        with pytest.raises(ValueError, match="different grids"):
            TrajectoryX(1.0, fields)

    @pytest.mark.parametrize("T, n", [(0.5, 16), (1.0, 32)])
    def test_subtracting_another_time_grid_rejected(self, grid8, T, n):
        u = constant_trajectory(SpectralField.zero(grid8), 1.0, 16)
        with pytest.raises(ValueError, match="do not match"):
            u - constant_trajectory(SpectralField.zero(grid8), T, n)


class TestXtNorm:
    def test_zero_trajectory(self, grid16):
        z = constant_trajectory(SpectralField.zero(grid16), 1.0, 16)
        assert xt_norm(z, 1.0) == 0.0

    def test_constant_unit_pair(self, grid16):
        # constant-in-time pair at |k|=1 with spatial norm sqrt(2) on [0,1]:
        # sup term sqrt(2); integral term (int_0^1 2 dt)^(1/2) = sqrt(2);
        # the quadrature is exact for a constant integrand
        f = single_mode_field(grid16, (1, 0, 0), (0.0, 1.0, 0.0), math.sqrt(2.0))
        assert hs_norm(f, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        u = constant_trajectory(f, 1.0, 64)
        assert xt_norm(u, 1.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)

    def test_heat_flow_closed_form(self, grid16):
        # heat flow of the same pair: sup sqrt(2) at t=0, integral term
        # (int_0^1 2 e^(-2t) dt)^(1/2) = sqrt(1 - e^-2); trapezoid converges
        # to it at second order
        f = single_mode_field(grid16, (1, 0, 0), (0.0, 1.0, 0.0), math.sqrt(2.0))
        want = math.sqrt(2.0) + math.sqrt(1.0 - math.exp(-2.0))
        errs = []
        for n in (64, 128, 256):
            u = heat_trajectory(f, 1.0, n)
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

    @pytest.mark.parametrize("A, c, named", [(math.nan, 0.01, "A must"),
                                             (1.0, math.nan, "c must")])
    def test_nan_rejected(self, A, c, named):
        with pytest.raises(ValueError, match=named):
            local_time(A, c)

    def test_infinite_c_rejected(self, grid8):
        # it would cap the horizon at T = 1 without a word
        u0 = random_divfree(1.0, 3, 2.0, grid8)
        for run in (lambda: local_time(1.0, math.inf),
                    lambda: picard_solve(u0, c=math.inf),
                    lambda: compactness_horizon(u0, math.inf)):
            with pytest.raises(ValueError, match="^c must be positive and finite$"):
                run()


class TestPhiMap:
    def test_zero_input_gives_heat_flow(self, grid8):
        u0 = random_divfree(1.0, 3, 2.0, grid8)
        zero = constant_trajectory(SpectralField.zero(grid8), 0.05, 32)
        out = phi_map(zero, u0)
        want = heat_trajectory(u0, 0.05, 32)
        assert xt_norm(out - want, 1.0) <= 1e-13

    def test_shear_heat_flow_is_fixed_point(self, grid8):
        u0 = named_flow("shear", 1.0, grid8)
        u = heat_trajectory(u0, 0.1, 32)
        out = phi_map(u, u0)
        assert xt_norm(out - u, 1.0) <= 1e-13

    def test_initial_node_exact(self, grid8):
        u0 = random_divfree(0.7, 5, 2.0, grid8)
        out = phi_map(heat_trajectory(u0, 0.02, 16), u0)
        assert np.array_equal(out.fields[0].coef, u0.coef)

    def test_grid_mismatch_rejected(self, grid8, grid16):
        u0 = random_divfree(1.0, 3, 2.0, grid16)
        u = heat_trajectory(random_divfree(1.0, 3, 2.0, grid8), 0.05, 16)
        with pytest.raises(ValueError, match="grid"):
            phi_map(u, u0)

    @pytest.mark.parametrize("intervals", [8, 11, 12, 64])
    def test_batched_nodes_equal_per_node_map(self, grid16, intervals):
        # node counts below, at and off multiples of STACK_SIZE
        u0 = random_divfree(1.0, 3, 2.0, grid16)
        u = phi_map(heat_trajectory(u0, 0.01, intervals), u0)
        got, want = phi_map(u, u0), reference_phi_map(u, u0)
        assert len(got.fields) == len(want.fields) == intervals + 1
        assert all(np.array_equal(a.coef, b.coef) for a, b in zip(got.fields, want.fields))

    @pytest.mark.parametrize("n, sizes", [(16, [3, 3, 3, 4]), (32, [1] * 13)])
    def test_stacks_follow_the_march_rule(self, monkeypatch, n, sizes):
        # balanced stacks of up to STACK_SIZE below P = 24, one node per call
        # from there on, as march steps its states; threads may compute them
        # in any order, so each stack is named by its first node
        seen = []
        stack = picard_wellposedness._nonlinear_stack
        u0 = random_divfree(1.0, 3, 2.0, GridSpec(n))
        u = heat_trajectory(u0, 0.01, 12)

        def recording(coefs, grid):
            first = next(j for j, f in enumerate(u.fields) if np.array_equal(f.coef, coefs[0]))
            seen.append((first, len(coefs)))
            return stack(coefs, grid)

        monkeypatch.setattr(picard_wellposedness, "_nonlinear_stack", recording)
        got, want = phi_map(u, u0), reference_phi_map(u, u0)
        firsts = np.cumsum([0] + sizes[:-1]).tolist()
        assert sorted(seen) == list(zip(firsts, sizes))
        assert all(np.array_equal(a.coef, b.coef) for a, b in zip(got.fields, want.fields))

    @pytest.mark.parametrize("n", [16, 32])
    def test_threaded_map_equals_per_node_map(self, monkeypatch, n):
        # two threads with a tiny switch interval: a workspace shared between
        # them would mix their transforms
        monkeypatch.setattr(semigroup_flow, "_usable_cores", lambda: 2)
        threads = set()
        stack = picard_wellposedness._nonlinear_stack

        def recording(coefs, grid):
            threads.add(threading.get_ident())
            return stack(coefs, grid)

        monkeypatch.setattr(picard_wellposedness, "_nonlinear_stack", recording)
        u0 = random_divfree(1.0, 3, 2.0, GridSpec(n))
        u = phi_map(heat_trajectory(u0, 0.01, 16), u0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = phi_map(u, u0)
        finally:
            sys.setswitchinterval(interval)
        want = reference_phi_map(u, u0)
        assert len(threads) == 2
        assert all(np.array_equal(a.coef, b.coef) for a, b in zip(got.fields, want.fields))

    @pytest.mark.parametrize("failing", [0, 1], ids=["calling-thread", "helper-thread"])
    def test_helper_threads_end_with_the_map(self, monkeypatch, grid16, failing):
        monkeypatch.setattr(semigroup_flow, "_usable_cores", lambda: 2)
        u0 = random_divfree(1.0, 3, 2.0, grid16)
        u = heat_trajectory(u0, 0.01, 16)  # 17 nodes: stacks of 3, 3, 4, 3, 4
        start = threading.active_count()
        phi_map(u, u0)
        assert threading.active_count() == start
        stack = picard_wellposedness._nonlinear_stack
        # stack 0 is the calling thread's, stack 1 the helper's
        bad = u.fields[3 * failing].coef

        def failing_stack(coefs, grid):
            if np.array_equal(coefs[0], bad):
                raise RuntimeError("transform failed")
            return stack(coefs, grid)

        monkeypatch.setattr(picard_wellposedness, "_nonlinear_stack", failing_stack)
        with pytest.raises(RuntimeError, match="transform failed"):
            phi_map(u, u0)
        assert threading.active_count() == start

    @pytest.mark.parametrize("faults", [("gradient", "nan"), ("nan", "gradient")])
    def test_first_faulty_node_reported(self, monkeypatch, grid16, faults):
        # nodes 1 and 4 sit on stacks 0 and 1, which two threads would compute
        monkeypatch.setattr(semigroup_flow, "_usable_cores", lambda: 2)
        u0 = random_divfree(1.0, 3, 2.0, grid16)
        u = heat_trajectory(u0, 0.01, 16)
        K = grid16.cutoff
        for node, fault in zip((1, 4), faults):
            bad = u.fields[node].coef
            if fault == "gradient":  # (2 cos x1, 0, 0) added
                bad[0, K + 1, K, 0] += 1.0
                bad[0, K - 1, K, 0] += 1.0
            else:
                bad[1, K, K, 1] = np.nan
        message = {"gradient": r"^nonlinear_term requires a divergence-free field \(div_linf=",
                   "nan": r"^field has non-finite coefficients$"}[faults[0]]
        with pytest.raises(ValueError, match=message):
            phi_map(u, u0)

    @pytest.mark.parametrize("node", [0, 5, 16])
    @pytest.mark.parametrize("fault, message", [
        ("gradient", r"nonlinear_term requires a divergence-free field \(div_linf="),
        ("nan", r"field has non-finite coefficients"),
    ])
    def test_faulty_node_rejected(self, grid8, node, fault, message):
        u0 = random_divfree(1.0, 3, 2.0, grid8)
        u = heat_trajectory(u0, 0.01, 16)
        K = grid8.cutoff
        bad = u.fields[node].coef
        if fault == "gradient":  # (2 cos x1, 0, 0) added
            bad[0, K + 1, K, 0] += 1.0
            bad[0, K - 1, K, 0] += 1.0
        else:
            bad[1, K, K, 1] = np.nan
        with pytest.raises(ValueError, match=message):
            phi_map(u, u0)

    def test_non_projected_datum_rejected(self, grid8):
        u0 = random_divfree(1.0, 3, 2.0, grid8)
        u = heat_trajectory(u0, 0.01, 16)
        bad = u0.copy()
        K = grid8.cutoff
        bad.coef[0, K + 1, K, 0] += 1.0
        bad.coef[0, K - 1, K, 0] += 1.0
        with pytest.raises(ValueError, match="divergence-free"):
            phi_map(u, bad)

    def test_second_order_refinement(self, grid8):
        u0 = random_divfree(1.0, 9, 2.0, grid8)
        T = local_time(hs_norm(u0, 1.0), 0.01)

        def final(n):
            return phi_map(heat_trajectory(u0, T, n), u0).fields[-1]

        ref = final(2048)
        errs = [hs_norm(final(n) - ref, 1.0) for n in (32, 64, 128)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert abs(p - 2.0) <= 0.3


class TestPicardSolve:
    @pytest.mark.parametrize("A", [0.5, 1.0, 1.5])
    def test_report_bytes_equal_per_node_map(self, A, monkeypatch):
        # the picard16 benchmark cases: N=16, c=0.01
        u0 = random_divfree(A, 2, 2.0, GridSpec(16))
        traj, rep = picard_solve(u0, c=0.01)
        monkeypatch.setattr(picard_wellposedness, "phi_map", reference_phi_map)
        ref_traj, ref = picard_solve(u0, c=0.01)
        assert rep.to_json() == ref.to_json()
        assert all(np.array_equal(a.coef, b.coef)
                   for a, b in zip(traj.fields, ref_traj.fields))

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
        # the last recorded space-time norm is the returned trajectory's
        assert xt_norm(traj, 1.0) == rep.x1_norms[-1]

    def test_matches_simulate(self, grid8):
        u0 = random_divfree(0.5, 11, 2.0, grid8)
        traj, rep = picard_solve(u0, c=0.01, tol=1e-10)
        sim = simulate(u0, rep.T_used, rep.T_used / 256, store_every=4)
        # the IF-RK4 run stores a field at every Picard node, in order
        assert len(sim.field_times) == len(traj.fields)
        assert np.all(np.abs(sim.field_times - traj.nodes) <= 1e-12)
        worst = max(hs_norm(f - fs, 1.0) for f, fs in zip(traj.fields, sim.fields))
        assert worst <= 1e-4

    def test_two_seed_uniqueness_surrogate(self, grid8):
        u0 = random_divfree(0.6, 4, 2.0, grid8)
        tol = 1e-11
        a, ra = picard_solve(u0, c=0.01, tol=tol)
        # the same iteration started from the zero trajectory instead of the heat flow
        b = constant_trajectory(SpectralField.zero(grid8), a.T, len(a.fields) - 1)
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
            n = min(len(up.fields), len(u.fields))
            worst = max(
                hs_norm(a - b, 1.0) for a, b in zip(up.fields[:n], u.fields[:n])
            )
            ls.append(worst / delta)
        assert abs(ls[0] - ls[1]) <= 0.2 * ls[1]

    @pytest.mark.parametrize("kw, named", [
        ({"tol": 0.0}, "tolerance"),
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": -3}, "max_iter"),
    ])
    def test_bad_tolerance_or_iteration_count_rejected(self, grid8, kw, named):
        with pytest.raises(ValueError, match=named):
            picard_solve(random_divfree(0.5, 2, 2.0, grid8), **kw)

    @pytest.mark.parametrize("kw, named", [({"tol": math.nan}, "tolerance must"),
                                           ({"c": math.nan}, "c must")])
    def test_nan_rejected(self, grid8, kw, named):
        with pytest.raises(ValueError, match=named):
            picard_solve(random_divfree(0.5, 2, 2.0, grid8), **kw)

    def test_nonconvergence_reported(self, grid8):
        u0 = random_divfree(5.0, 2, 2.0, grid8)
        _, rep = picard_solve(u0, c=1e5, tol=1e-10, max_iter=8)
        assert not rep.converged
        assert rep.T_used == 1.0  # capped horizon

    def test_divergence_flagged(self, grid8):
        u0 = random_divfree(20.0, 2, 2.0, grid8)
        _, rep = picard_solve(u0, c=1e7, tol=1e-10, max_iter=10)
        assert not rep.converged
        assert rep.iterate_count < 11  # aborted before max_iter ran out

    @pytest.mark.parametrize("A, c", [
        (1e80, 1.0),  # subnormal
        (7e76, 1.0),  # normal, but its node spacing is subnormal
    ])
    def test_underflowing_horizon_rejected(self, grid8, A, c):
        u0 = random_divfree(A, 2, 2.0, grid8)
        with pytest.raises(ValueError, match="underflows to 0"):
            picard_solve(u0, c=c)

    def test_shortest_accepted_horizon_solves_cleanly(self, grid8):
        # twice the threshold: node spacing 2 * sys.float_info.min, no overflow
        u0 = random_divfree(7e76, 2, 2.0, grid8)
        c = 128 * sys.float_info.min * hs_norm(u0, 1.0) ** 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, rep = picard_solve(u0, c=c)
        assert rep.converged

    def test_report_invariant_and_json(self, grid8, tmp_path):
        u0 = random_divfree(0.5, 11, 2.0, grid8)
        _, rep = picard_solve(u0, c=0.01, tol=1e-10)
        assert len(rep.contraction_factors) == rep.iterate_count - 2
        assert len(rep.diff_norms) == rep.iterate_count - 1
        path = tmp_path / "report.json"
        rep.to_json(path)
        obj = json.loads(path.read_text())
        assert set(obj) == {
            "iterate_count", "T_used", "c_used", "A_measured",
            "x1_norms", "diff_norms", "contraction_factors", "converged",
        }
        assert obj["converged"] is True
