"""Energy identity, dissipation budgets, pigeonhole/decay fits, compactness."""

import json
import math

import numpy as np
import pytest

from mildns import (
    GridSpec,
    NormSeries,
    SpectralField,
    compactness_experiment,
    decay_envelope,
    energy_budget,
    energy_identity_residual,
    hs_norm,
    named_flow,
    pigeonhole_time,
    poincare_violation,
    random_divfree,
    simulate,
    unit_time_contraction,
)
from mildns import semigroup_flow, spectral_field


def heat_series(rate, h1_0, times):
    """Synthetic norm series of a single-rate heat decay (|k|^2 = rate)."""
    t = np.asarray(times, dtype=np.float64)
    h1 = h1_0 * np.exp(-rate * t)
    l2 = h1 / math.sqrt(rate)
    return NormSeries(t, l2, h1, np.zeros_like(t))


class TestEnergyIdentity:
    def test_shear_flow_trapezoid_only(self, grid8):
        traj = simulate(named_flow("shear", 1.0, grid8), 0.5, 5e-4)
        res = energy_identity_residual(traj.norm_series)
        assert res.max_residual <= 1e-10

    def test_zero_trajectory(self, grid8):
        traj = simulate(SpectralField.zero(grid8), 0.1, 1e-2)
        res = energy_identity_residual(traj.norm_series)
        assert np.all(res.residuals == 0.0)

    def test_random_run_within_default_tolerance(self, grid16):
        u0 = random_divfree(1.0, 3, 2.0, grid16)
        traj = simulate(u0, 0.25, 1e-3)
        res = energy_identity_residual(traj.norm_series)
        tol = 1e-6 * max(1.0, traj.norm_series.l2[0] ** 2)
        assert res.max_residual <= tol


class TestEnergyBudget:
    def test_heat_flow_closed_form(self, grid8):
        # single-rate decay: dissipation^2 = l2(0)^2 (1 - e^-10) at T=5
        traj = simulate(named_flow("shear", 1.0, grid8), 5.0, 2.5e-3)
        sup, dissip = energy_budget(traj.norm_series)
        l20 = traj.norm_series.l2[0]
        assert sup == pytest.approx(l20, rel=1e-12)
        assert dissip**2 == pytest.approx(l20**2 * (1 - math.exp(-10.0)), rel=1e-5)

    def test_zero_field(self, grid8):
        traj = simulate(SpectralField.zero(grid8), 0.1, 1e-2)
        assert energy_budget(traj.norm_series) == (0.0, 0.0)

    def test_random_run_contracts(self, grid8):
        u0 = random_divfree(1.0, 5, 2.0, grid8)
        traj = simulate(u0, 0.5, 1e-3)
        sup, dissip = energy_budget(traj.norm_series)
        l20 = traj.norm_series.l2[0]
        assert sup <= l20 * (1 + 1e-6)
        assert dissip <= l20 * (1 + 1e-6)


class TestPigeonholeTime:
    def test_monotone_decreasing_picks_window_end(self):
        t = np.linspace(0.0, 2.0, 201)
        s = heat_series(1.0, 1.0, t)
        out = pigeonhole_time(s, 1.0)  # window = 1
        assert out.T_prime == pytest.approx(1.0)
        assert not out.partial
        assert out.gradient_l2_at_T_prime == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_constant_series_ties_to_earliest(self):
        t = np.linspace(0.0, 2.0, 21)
        ones = np.ones_like(t)
        s = NormSeries(t, ones, ones, np.zeros_like(t))
        out = pigeonhole_time(s, 1.0)
        assert out.T_prime == 0.0
        # equality case of the mean-value bound: e0 * window = integral
        assert out.budget_bound == pytest.approx(1.0)

    def test_mean_value_bound_on_ns_run(self, grid8):
        u0 = random_divfree(1.0, 5, 2.0, grid8)
        traj = simulate(u0, 4.0, 2e-3)
        eps = 0.5
        out = pigeonhole_time(traj.norm_series, eps)  # window = 4
        assert not out.partial
        ens_at = out.gradient_l2_at_T_prime**2
        assert ens_at <= eps**2 * out.budget_bound * (1 + 1e-12)
        # discrete mean-value inequality is exact
        window_span = min(1.0 / eps**2, traj.norm_series.times[-1])
        assert ens_at * window_span <= out.budget_bound * (1 + 1e-12)

    def test_partial_window_flagged(self):
        t = np.linspace(0.0, 0.5, 51)
        s = heat_series(1.0, 1.0, t)
        out = pigeonhole_time(s, 0.5)  # window = 4 > covered 0.5
        assert out.partial
        assert out.T_prime <= 0.5

    def test_json_export(self, tmp_path):
        t = np.linspace(0.0, 2.0, 21)
        out = pigeonhole_time(heat_series(1.0, 1.0, t), 1.0)
        text = out.to_json(tmp_path / "p.json")
        obj = json.loads(text)
        assert obj["epsilon_used"] == 1.0
        assert "T_prime" in obj and "budget_bound" in obj


class TestDecayEnvelope:
    def test_heat_flow_rate_one(self, grid8):
        traj = simulate(named_flow("shear", 1.0, grid8), 1.0, 1e-3)
        rate = decay_envelope(traj.norm_series, 0.0)
        assert rate == pytest.approx(-1.0, abs=1e-6)

    def test_taylor_green_rate_two(self, grid8):
        traj = simulate(named_flow("taylor_green", 1.0, grid8), 1.0, 1e-3)
        rate = decay_envelope(traj.norm_series, 0.0)
        assert rate == pytest.approx(-2.0, abs=1e-6)

    def test_small_data_decays_at_least_unit_rate(self, grid8):
        u0 = random_divfree(0.1, 6, 2.0, grid8)
        traj = simulate(u0, 2.0, 2e-3)
        rate = decay_envelope(traj.norm_series, 0.5)
        assert rate <= -0.9

    def test_errors(self):
        t = np.linspace(0.0, 1.0, 11)
        s = heat_series(1.0, 1.0, t)
        with pytest.raises(ValueError, match="4 samples"):
            decay_envelope(s, 0.9)
        z = NormSeries(t, np.zeros_like(t), np.zeros_like(t),
                       np.zeros_like(t))
        with pytest.raises(ValueError, match="zero"):
            decay_envelope(z, 0.0)


class TestUnitTimeContraction:
    def test_heat_flow_constant_ratio(self):
        t = np.round(np.arange(0, 301) * 0.01, 10)
        s = heat_series(1.0, 1.0, t)
        offsets, ratios = unit_time_contraction(s)
        assert list(offsets) == [0.0, 1.0, 2.0]
        assert np.allclose(ratios, math.exp(-1.0), rtol=1e-9)

    def test_zero_tail_convention(self):
        t = np.linspace(0.0, 3.0, 31)
        z = NormSeries(t, np.zeros_like(t), np.zeros_like(t),
                       np.zeros_like(t))
        _, ratios = unit_time_contraction(z)
        assert np.all(ratios == 0.0)

    def test_small_data_ns_contracts(self, grid8):
        u0 = random_divfree(0.2, 9, 2.0, grid8)
        traj = simulate(u0, 2.5, 2.5e-3)
        _, ratios = unit_time_contraction(traj.norm_series)
        assert np.all(ratios <= 1.0)

    def test_short_horizon_rejected(self):
        t = np.linspace(0.0, 1.5, 16)
        with pytest.raises(ValueError, match="horizon"):
            unit_time_contraction(heat_series(1.0, 1.0, t))


class TestCompactness:
    def test_distances_decrease_in_frequency(self):
        grid = GridSpec(16)
        u0 = named_flow("shear", 1.0, grid)
        rep = compactness_experiment(u0, [2, 4], 0.05, 2.0, dt=2e-3)
        assert rep.distances[1] < rep.distances[0]
        assert rep.T_used > 0.05

    def test_zero_base_matches_heat_majorant(self):
        # a single x1-frequency pair with y polarization has no
        # self-interaction, so its run is exactly the heat flow
        grid = GridSpec(16)
        rep = compactness_experiment(SpectralField.zero(grid), [2, 3], 0.05, 2.0,
                                     dt=1e-3)
        for n, d in zip(rep.frequencies, rep.distances):
            assert d == pytest.approx(math.exp(-n * n * 0.05), rel=1e-9)

    def test_frequency_beyond_cutoff_rejected(self):
        grid = GridSpec(16)  # K = 5
        with pytest.raises(ValueError, match="cutoff"):
            compactness_experiment(named_flow("shear", 1.0, grid), [2, 8], 0.05, 2.0)

    def test_frequencies_must_increase(self):
        grid = GridSpec(16)
        with pytest.raises(ValueError, match="increasing"):
            compactness_experiment(named_flow("shear", 1.0, grid), [4, 2], 0.05, 2.0)

    def test_window_must_fit_horizon(self):
        grid = GridSpec(16)
        u0 = named_flow("shear", 1.0, grid)
        with pytest.raises(ValueError, match="eps_window"):
            compactness_experiment(u0, [2], 0.5, 0.01)  # T = c(A+1)^-4 << 0.5

    @pytest.mark.parametrize("eps_window, c, named", [(math.nan, 2.0, "eps_window"),
                                                      (0.0, math.nan, "c must")])
    def test_nan_rejected(self, eps_window, c, named):
        u0 = named_flow("shear", 1.0, GridSpec(8))
        with pytest.raises(ValueError, match=named):
            compactness_experiment(u0, [1, 2], eps_window, c, dt=1e-2)

    def test_base_run_shared_across_frequencies(self, monkeypatch):
        # zero base: T = local_time(1, c) = c, so c = 0.05 at dt = 0.01 is
        # 5 steps; one base run plus one run per frequency, 4 stages a step,
        # counted as the states (rows) every nonlinear evaluation runs through,
        # whether the march sends a stack or a lone state (via nonlinear_term)
        grid = GridSpec(8)
        rows = []
        original = spectral_field._nonlinear_stack

        def counted(coefs, grid):
            rows.append(coefs.shape[0])
            return original(coefs, grid)

        monkeypatch.setattr(spectral_field, "_nonlinear_stack", counted)
        monkeypatch.setattr(semigroup_flow, "_nonlinear_stack", counted)
        rep = compactness_experiment(SpectralField.zero(grid), [1, 2], 0.01, 0.05,
                                     dt=0.01)
        assert rep.T_used == 0.05
        assert sum(rows) == 4 * (2 + 1) * 5

    def test_json_export(self, tmp_path):
        grid = GridSpec(16)
        rep = compactness_experiment(SpectralField.zero(grid), [2], 0.05, 2.0, dt=5e-3)
        obj = json.loads(rep.to_json(tmp_path / "c.json"))
        assert obj["frequencies"] == [2]
        assert len(obj["distances"]) == 1


class TestPoincare:
    def test_holds_along_trajectories(self, grid8):
        u0 = random_divfree(1.0, 4, 2.0, grid8)
        traj = simulate(u0, 0.2, 2e-3)
        assert poincare_violation(traj.norm_series) <= 1e-12
