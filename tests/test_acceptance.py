"""Acceptance suite: exact-solution regressions and property gates.

Each test enforces one release criterion at its stated tolerance and prints
one PASS line (run with ``pytest tests/test_acceptance.py -v -s``).  Grids
are desk-scale (N <= 32); the whole suite runs in a few minutes.
"""

import json
import math

import numpy as np
import pytest

from mildns import (
    GridSpec,
    cli_main,
    compactness_experiment,
    divergence_linf,
    energy_identity_residual,
    estimate_F,
    heat_propagate,
    heat_trajectory,
    hs_norm,
    leray_project,
    local_time,
    named_flow,
    nonlinear_term,
    norms_from_csv,
    phi_map,
    picard_solve,
    random_divfree,
    simulate,
    single_mode_field,
    smoothing_ratio,
)
from mildns.explorer_cli import ExperimentConfig

from oracles import dense_convolution_nonlinearity, full_cube


def report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def grid16():
    return GridSpec(16)


@pytest.fixture(scope="module")
def grid32():
    return GridSpec(32)


@pytest.fixture(scope="module")
def taylor_green_run(grid16):
    u0 = named_flow("taylor_green", 1.0, grid16)
    return u0, simulate(u0, 1.0, 1e-3, store_every=250)


@pytest.fixture(scope="module")
def random32_run(grid32):
    # slope 3.5 keeps the fast high-mode transient resolved at dt = 1e-3,
    # which the energy-identity tolerance presumes
    u0 = random_divfree(1.0, 7, 3.5, grid32)
    return u0, simulate(u0, 0.5, 1e-3, store_every=100)


@pytest.fixture(scope="module")
def ensemble_cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "ensemble.cfg"
    p.write_text(
        "grid_n = 16\n"
        "dt = 0.01\n"
        "horizon = 1.0\n"
        "a_list = 0.1,0.2,0.3\n"
        "samples_per_a = 8\n"
        "base_seed = 12345\n"
        "slope = 2.0\n"
    )
    return p


@pytest.fixture(scope="module")
def ensemble_first_run(tmp_path_factory, ensemble_cfg_file):
    out = tmp_path_factory.mktemp("ens1")
    rc = cli_main(["ensemble", "--config", str(ensemble_cfg_file),
                   "--out-dir", str(out), "--threads", "1"])
    assert rc == 0
    return out


def test_criterion_1_shear_regression(tmp_path):
    out = tmp_path / "shear"
    rc = cli_main(["simulate", "--flow", "shear", "--T", "1", "--dt", "1e-3",
                   "--N", "16", "--out-dir", str(out)])
    assert rc == 0
    s = norms_from_csv(out / "norms.csv")
    want = (1.0 / math.sqrt(2.0)) * np.exp(-s.times)
    rel = float(np.max(np.abs(s.h1 - want) / want))
    assert rel <= 1e-10
    report(1, "shear_regression", f"max rel err {rel:.2e} <= 1e-10 over "
                                  f"{s.times.size} samples")


def test_criterion_2_taylor_green_regression(taylor_green_run):
    u0, traj = taylor_green_run
    want = math.exp(-2.0) * u0
    rel = hs_norm(traj.fields[-1] - want, 1.0) / hs_norm(want, 1.0)
    assert rel <= 1e-8
    report(2, "taylor_green_regression", f"rel H1 err {rel:.2e} <= 1e-8 at t=1")


def test_criterion_3_energy_identity(random32_run):
    _, traj = random32_run
    res = energy_identity_residual(traj.norm_series)
    tol = 1e-6 * traj.norm_series.l2[0] ** 2
    assert res.max_residual <= tol
    report(3, "energy_identity", f"max residual {res.max_residual:.2e} <= "
                                 f"{tol:.2e} = 1e-6*l2(0)^2")


def test_criterion_4_leray_and_divergence(grid16, grid32, taylor_green_run,
                                          random32_run):
    worst_proj = 0.0
    for grid, seed in ((grid16, 1), (grid32, 2)):
        u = random_divfree(1.0, seed, 2.0, grid)
        worst_proj = max(worst_proj, divergence_linf(leray_project(u)))
    assert worst_proj <= 1e-12
    worst_traj = max(
        float(np.max(taylor_green_run[1].norm_series.div_linf)),
        float(np.max(random32_run[1].norm_series.div_linf)),
    )
    assert worst_traj <= 1e-10
    report(4, "leray_divergence", f"projected {worst_proj:.2e} <= 1e-12; "
                                  f"along trajectories {worst_traj:.2e} <= 1e-10")


def test_criterion_5_heat_decay_and_smoothing(grid16):
    u = random_divfree(1.0, 9, 2.0, grid16)
    ok_decay = all(
        hs_norm(heat_propagate(u, t), 0.0) <= math.exp(-t) * hs_norm(u, 0.0) * (1 + 1e-12)
        for t in (0.1, 0.5, 1.0, 3.0)
    )
    assert ok_decay
    pair = single_mode_field(grid16, (1, 0, 0), (0.0, 1.0, 0.0), 1.0)
    eq_defect = abs(
        hs_norm(heat_propagate(pair, 1.0), 0.0) - math.exp(-1.0) * hs_norm(pair, 0.0)
    ) / hs_norm(pair, 0.0)
    assert eq_defect <= 1e-12
    worst = max(
        smoothing_ratio(u, 1.0, 1.0, float(t)) for t in np.geomspace(1e-4, 1.0, 200)
    )
    assert worst <= 0.4290 + 1e-6
    report(5, "heat_decay_smoothing", f"|k|=1 equality defect {eq_defect:.2e}; "
                                      f"smoothing sup {worst:.6f} <= 0.429001")


def test_criterion_6_picard_contraction_and_orders(grid16):
    u0 = random_divfree(0.5, 11, 2.0, grid16)
    fixed, rep = picard_solve(u0, c=0.01, tol=1e-10, max_iter=40)
    assert rep.converged
    assert all(f <= 0.5 for f in rep.contraction_factors)

    sim = simulate(u0, rep.T_used, rep.T_used / 256, store_every=4)
    # the IF-RK4 run stores a field at every Picard node, in order
    assert len(sim.field_times) == len(fixed.fields)
    assert np.all(np.abs(sim.field_times - fixed.nodes) <= 1e-12)
    gap = max(hs_norm(f - fs, 1.0) for f, fs in zip(fixed.fields, sim.fields))
    assert gap <= 1e-4

    # quadrature refinement orders, measured against deep references
    g8 = GridSpec(8)
    up = random_divfree(1.0, 9, 2.0, g8)
    T = local_time(hs_norm(up, 1.0), 0.01)

    def phi_final(n):
        return phi_map(heat_trajectory(up, T, n), up).fields[-1]

    ref = phi_final(2048)
    errs = [hs_norm(phi_final(n) - ref, 1.0) for n in (32, 64, 128)]
    phi_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(p - 2.0) <= 0.3 for p in phi_orders)

    us = random_divfree(1.5, 5, 2.0, g8)
    Ts = 0.25
    ref = simulate(us, Ts, Ts / 1024).fields[-1]
    errs = [hs_norm(simulate(us, Ts, Ts / n).fields[-1] - ref, 1.0)
            for n in (16, 32, 64)]
    step_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(p - 4.0) <= 0.3 for p in step_orders)

    report(6, "picard_contraction", f"factors max {max(rep.contraction_factors):.3f}"
                                    f" <= 0.5; simulate gap {gap:.2e} <= 1e-4; "
                                    f"orders phi {phi_orders[0]:.2f}/{phi_orders[1]:.2f},"
                                    f" step {step_orders[0]:.2f}/{step_orders[1]:.2f}")


def test_criterion_7_nonlinearity_oracle():
    worst_rel, worst_inner = 0.0, 0.0
    for n in (8, 12, 16):
        u = random_divfree(1.0, 21 + n, 2.0, GridSpec(n))
        got = full_cube(nonlinear_term(u).coef)
        want = dense_convolution_nonlinearity(u)
        scale = np.max(np.abs(want))
        worst_rel = max(worst_rel, float(np.max(np.abs(got - want))) / scale)
        inner = abs(float(np.real(np.sum(got * np.conj(full_cube(u.coef))))))
        worst_inner = max(worst_inner, inner / hs_norm(u, 1.0) ** 3)
    assert worst_rel <= 1e-10
    assert worst_inner <= 1e-10
    report(7, "nonlinearity_oracle", f"dense-convolution rel err {worst_rel:.2e}; "
                                     f"normalized work {worst_inner:.2e}")


def test_criterion_8_compactness(grid32):
    u0 = named_flow("shear", 1.0, grid32)
    rep = compactness_experiment(u0, [2, 4, 8], 0.1, 2.0, dt=1e-3)
    assert rep.T_used > 0.1
    assert all(b < a for a, b in zip(rep.distances, rep.distances[1:]))
    report(8, "compactness", "sup-[0.1,T] H1 distances strictly decreasing: "
           + " > ".join(f"{d:.4g}" for d in rep.distances))


def test_criterion_9_growth_envelope(ensemble_first_run):
    summary = json.loads((ensemble_first_run / "summary.json").read_text())
    a_vals, f_hat = summary["A"], summary["F_hat"]
    env = summary["envelope"]
    assert all(v is not None for v in f_hat)
    assert all(b >= a for a, b in zip(env, env[1:]))
    for a, f in zip(a_vals, f_hat):
        assert a - 1e-6 <= f <= 3 * a
    assert summary["censored"] == [0, 0, 0]
    report(9, "growth_envelope", "F_hat = "
           + ", ".join(f"{f:.4f}" for f in f_hat) + " within [A, 3A], 0 censored")


def test_criterion_10_determinism_and_parallel_invariance(
        tmp_path, ensemble_cfg_file, ensemble_first_run):
    names = ["summary.json", "ensemble_A0.1.csv", "ensemble_A0.2.csv",
             "ensemble_A0.3.csv", "manifest.json"]
    runs = [ensemble_first_run]
    for sub, threads in (("rerun", "1"), ("threads8", "8")):
        out = tmp_path / sub
        rc = cli_main(["ensemble", "--config", str(ensemble_cfg_file),
                       "--out-dir", str(out), "--threads", threads])
        assert rc == 0
        runs.append(out)
    for name in names:
        blobs = [(r / name).read_bytes() for r in runs]
        assert blobs[0] == blobs[1], f"{name} differs across reruns"
        assert blobs[0] == blobs[2], f"{name} differs across thread counts"

    sim_outs = []
    for sub in ("s1", "s2"):
        out = tmp_path / sub
        rc = cli_main(["simulate", "--flow", "random", "--A", "0.5", "--N", "16",
                       "--seed", "3", "--T", "0.1", "--dt", "1e-2",
                       "--out-dir", str(out)])
        assert rc == 0
        sim_outs.append(out)
    for name in ("norms.csv", "u_initial.nsf1", "u_final.nsf1", "manifest.json"):
        assert ((sim_outs[0] / name).read_bytes()
                == (sim_outs[1] / name).read_bytes()), f"{name} not reproducible"
    report(10, "determinism", f"{len(names)} ensemble files byte-identical across "
                              "reruns and --threads 1/8; simulate outputs reproducible")
