"""Energy identity, the Poincare check, the compactness experiment and the
small-data decay that the a priori estimates predict."""

import json
import math
import re

import numpy as np
import pytest

from mildns import (
    GridSpec,
    NormSeries,
    SpectralField,
    compactness_experiment,
    energy_identity_residual,
    hs_norm,
    march,
    named_flow,
    poincare_violation,
    random_divfree,
    simulate,
    single_mode_field,
)
from mildns import apriori_diagnostics, semigroup_flow, spectral_field


class TestEnergyIdentity:
    def test_shear_flow_trapezoid_only(self, grid8):
        traj = simulate(named_flow("shear", 1.0, grid8), 0.5, 5e-4)
        res = energy_identity_residual(traj.norm_series)
        assert res.max_residual <= 1e-10

    def test_zero_trajectory(self, grid8):
        traj = simulate(SpectralField.zero(grid8), 0.1, 1e-2)
        res = energy_identity_residual(traj.norm_series)
        assert np.all(res.residuals == 0.0)

    def test_verify_march_at_n32_within_tolerance(self):
        # run_verify's own energy march at N = 32: 250 steps of dt 1e-3, where
        # the trapezoid rule's error alone read 3.9e-6 against the 1e-6 bound
        u0 = random_divfree(1.0, 7, 2.0, GridSpec(32))
        traj = simulate(u0, 0.25, 1e-3)
        res = energy_identity_residual(traj.norm_series)
        assert res.residuals.size == 125
        assert res.max_residual <= 1e-6 * max(1.0, traj.norm_series.l2[0] ** 2)

    def test_pairs_exact_for_quadratic_dissipation_on_unequal_steps(self):
        # h1^2 = 1 + t + t^2 and l2^2 = 10 - 2 (t + t^2/2 + t^3/3) satisfy the
        # identity exactly; the three-point rule integrates the quadratic
        # exactly on unequal steps, and an odd last step is a trapezoid
        t = np.array([0.0, 0.1, 0.3, 0.4, 0.45, 0.6])
        h1sq = 1.0 + t + t**2
        l2sq = 10.0 - 2.0 * (t + t**2 / 2 + t**3 / 3)
        res = energy_identity_residual(NormSeries(t, np.sqrt(l2sq), np.sqrt(h1sq), 0 * t))
        assert list(res.times) == [0.3, 0.45, 0.6]
        assert np.max(res.residuals[:2]) <= 1e-14
        trapezoid = 0.5 * (h1sq[-2] + h1sq[-1]) * 0.15
        exact = 0.15 + (0.6**2 - 0.45**2) / 2 + (0.6**3 - 0.45**3) / 3
        assert res.residuals[2] == pytest.approx(2.0 * abs(trapezoid - exact), rel=1e-9)

    def test_random_run_within_default_tolerance(self, grid16):
        u0 = random_divfree(1.0, 3, 2.0, grid16)
        traj = simulate(u0, 0.25, 1e-3)
        res = energy_identity_residual(traj.norm_series)
        tol = 1e-6 * max(1.0, traj.norm_series.l2[0] ** 2)
        assert res.max_residual <= tol


class TestDecayEnvelope:
    def test_small_data_decays_at_least_unit_rate(self, grid8):
        # H^1 size 0.1 is below 1/C_K ~ 0.183 at K = 2 (C_K^2 the sum of
        # |k|^-2 over the active modes), where the flux cannot outrun
        # dissipation: H^1 falls at every step (the largest change read
        # -1.4e-5), and log H^1 decays at least at unit rate past t = 0.5
        # up to quadratic corrections (the fitted slope read -1.10)
        s = simulate(random_divfree(0.1, 6, 2.0, grid8), 2.0, 2e-3).norm_series
        assert np.all(np.diff(s.h1) < 0.0)
        late = s.times >= 0.5
        assert np.polyfit(s.times[late], np.log(s.h1[late]), 1)[0] <= -0.9


class TestUnitTimeContraction:
    def test_small_data_ns_contracts(self, grid8):
        # H^1(t + 1) <= H^1(t) at the integer offsets t = 0, 1 of a small-data
        # run, the norm read between samples by linear interpolation
        s = simulate(random_divfree(0.2, 9, 2.0, grid8), 2.5, 2.5e-3).norm_series
        offsets = np.arange(0.0, np.floor(s.times[-1]))
        assert list(offsets) == [0.0, 1.0]
        h_at = np.interp(offsets, s.times, s.h1)
        assert np.all(h_at > 0.0)
        assert np.all(np.interp(offsets + 1.0, s.times, s.h1) <= h_at)


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

    @pytest.mark.parametrize("fault, message", [
        ("nan", r"^field has non-finite coefficients$"),
        ("inf", r"^field has non-finite coefficients$"),
        ("gradient", r"^nonlinear_term requires a divergence-free field \(div_linf="),
    ])
    def test_faulty_datum_rejected_before_its_norm_is_read(self, fault, message):
        # read later, a NaN norm is a negative A to local_time, and an infinite
        # norm or the gradient's H^1 size a horizon shorter than eps_window,
        # which would hide the fault
        grid = GridSpec(8)
        u0 = named_flow("shear", 1.0, grid)
        K = grid.cutoff
        if fault == "gradient":  # (2 cos x1, 0, 0) added
            u0.coef[0, K + 1, K, 0] += 1.0
            u0.coef[0, K - 1, K, 0] += 1.0
        else:
            u0.coef[1, K, K, 1] = float(fault)
        with pytest.raises(ValueError, match=message):
            compactness_experiment(u0, [1, 2], 0.01, 0.05, dt=0.01)

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

    @pytest.mark.parametrize("freqs", [[], ()])
    def test_empty_freqs_rejected(self, monkeypatch, freqs):
        # an empty list marched the base flow to T and reported no distances
        marches = []
        monkeypatch.setattr(semigroup_flow, "_lockstep", lambda *args: marches.append(args))
        u0 = named_flow("shear", 1.0, GridSpec(8))
        with pytest.raises(ValueError, match="^freqs must hold at least one frequency$"):
            compactness_experiment(u0, freqs, 0.0, 2.0)
        assert marches == []

    @pytest.mark.parametrize("bad, named", [
        (1.7, "1.7"), ("2", "'2'"), (math.nan, "nan"), (math.inf, "inf"), (True, "True"),
    ])
    def test_non_integer_freq_rejected(self, monkeypatch, bad, named):
        # int() ran 1.7 as frequency 1 and '2' as 2, and NaN raised an
        # unnamed conversion error
        marches = []
        monkeypatch.setattr(semigroup_flow, "_lockstep", lambda *args: marches.append(args))
        u0 = named_flow("shear", 1.0, GridSpec(8))
        with pytest.raises(ValueError, match=rf"^perturbation frequency must be an integer, "
                                             rf"got {re.escape(named)}$"):
            compactness_experiment(u0, [1, bad], 0.0, 2.0)
        assert marches == []

    def test_integer_valued_freqs_accepted(self):
        u0 = named_flow("shear", 1.0, GridSpec(8))
        want = compactness_experiment(u0, [1, 2], 0.0, 2.0, dt=2e-2)
        for freqs in ([1.0, 2.0], np.array([1, 2]), (n for n in (1, 2))):
            assert compactness_experiment(u0, freqs, 0.0, 2.0, dt=2e-2) == want

    def test_window_excludes_initial_gap(self, grid8):
        # the distance starts at the perturbation's H^1 size and decays, so a
        # later window leaves out the larger early distances; every step time
        # in [eps_window, T] enters the supremum, and no earlier one
        u0 = named_flow("shear", 1.0, grid8)
        full = compactness_experiment(u0, [2], 0.0, 2.0, dt=1e-2)
        T = full.T_used
        late = compactness_experiment(u0, [2], T / 2, 2.0, dt=1e-2)
        w = single_mode_field(grid8, (2, 0, 0), (0.0, 1.0, 0.0), 1.0)
        gaps = [(t, hs_norm(v - u, 1.0)) for t, (u, v), _ in march([u0, u0 + w], T, 1e-2)]
        assert full.distances == [max(d for _, d in gaps)] == [gaps[0][1]]
        assert late.distances == [max(d for t, d in gaps if t >= T / 2)]
        assert late.distances[0] < full.distances[0]

    # N=24 (P=26) steps the four states alone, on two threads where two
    # CPUs are usable
    @pytest.mark.parametrize("grid", [GridSpec(8), GridSpec(24)], ids=["N8", "N24"])
    def test_several_freqs_match_each_alone(self, grid):
        u0 = random_divfree(0.8, 2, 2.0, grid)
        together = compactness_experiment(u0, [1, 2], 0.02, 0.5, dt=1e-2)
        alone = [compactness_experiment(u0, [n], 0.02, 0.5, dt=1e-2).distances[0]
                 for n in (1, 2)]
        assert together.distances == alone

    def test_one_march_per_experiment(self, monkeypatch):
        # the base run and every perturbed run share one lockstep march
        calls = []

        def recording(states, T, dt):
            states = list(states)
            calls.append(len(states))
            return march(states, T, dt)

        monkeypatch.setattr(apriori_diagnostics, "march", recording)
        u0 = named_flow("shear", 1.0, GridSpec(16))
        for freqs in ([2], [1, 2, 4]):
            compactness_experiment(u0, freqs, 0.0, 2.0, dt=2e-2)
        assert calls == [2, 4]

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
