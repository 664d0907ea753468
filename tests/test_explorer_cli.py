"""Configuration, ensemble estimation, verification suite, and the CLI."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mildns import (
    BlowupError,
    ConfigError,
    ExperimentConfig,
    GridSpec,
    SpectralField,
    cli_main,
    estimate_F,
    hs_norm,
    load_nsf1,
    monotone_envelope,
    named_flow,
    norms_from_csv,
    random_divfree,
    run_verify,
    simulate,
)
from mildns import explorer_cli, semigroup_flow
from mildns.explorer_cli import STACK_SIZE, sample_seed
from mildns.semigroup_flow import MAX_STEPS, _plan_steps, _split, march
from mildns.spectral_field import FLOW_NAMES


SMALL = dict(grid_n=8, dt=0.02, horizon=0.5, a_list=(0.1, 0.2), samples_per_a=2,
             base_seed=100)


def small_cfg(**over):
    return ExperimentConfig(**{**SMALL, **over})


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.grid().cutoff == 5

    def test_from_file_with_comments(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# desk-scale ensemble\n"
            "grid_n = 8\n"
            "dt = 0.02        # step\n"
            "horizon = 0.5\n"
            "a_list = 0.1,0.2\n"
            "samples_per_a = 2\n"
            "base_seed = 100\n"
        )
        cfg = ExperimentConfig.from_file(p)
        assert cfg.grid_n == 8
        assert cfg.a_list == (0.1, 0.2)

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("grid_m = 8\n")
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_file(p)
        assert exc.value.key == "grid_m"

    def test_unparseable_value_named(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("dt = fast\n")
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_file(p)
        assert exc.value.key == "dt"

    def test_repeated_key_named(self, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text("dt = 0.01\nhorizon = 0.5\ndt = 0.02\n")
        with pytest.raises(ConfigError, match="line 3") as exc:
            ExperimentConfig.from_file(p)
        assert exc.value.key == "dt"

    def test_colliding_csv_names_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(a_list=(0.1, 0.1000001))
        assert exc.value.key == "a_list"
        ExperimentConfig(a_list=(0.1, 0.100001))  # distinct at 6 digits
        p = tmp_path / "exp.cfg"
        p.write_text("a_list = 0.1,0.1000001\n")
        rc = cli_main(["ensemble", "--config", str(p), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "a_list" in capsys.readouterr().err

    def test_invariants(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dt=-1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(a_list=(0.2, 0.1))
        ExperimentConfig(horizon=2.0)  # horizon alone sets the run length
        ExperimentConfig(horizon=1e6, dt=1e-9)  # march, not the config, limits the steps

    @pytest.mark.parametrize("key", ["dt", "horizon", "c", "picard_tol", "slope"])
    def test_infinite_value_named(self, key):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{key: math.inf})
        assert exc.value.key == key

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(base_seed=-1)
        assert exc.value.key == "base_seed"
        ExperimentConfig(base_seed=0)

    @pytest.mark.parametrize("grid_n", [7, 2])
    def test_bad_grid_names_its_key(self, grid_n):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(grid_n=grid_n)
        assert exc.value.key == "grid_n"

    def test_hash_stable_under_reordering(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("grid_n = 8\ndt = 0.02\n")
        b.write_text("dt = 0.02\ngrid_n = 8\n")
        assert (ExperimentConfig.from_file(a).config_hash()
                == ExperimentConfig.from_file(b).config_hash())

    def test_hash_ignores_out_dir(self):
        c1 = ExperimentConfig(out_dir="x")
        c2 = ExperimentConfig(out_dir="y")
        assert c1.config_hash() == c2.config_hash()
        assert c1.config_hash() != ExperimentConfig(dt=0.02).config_hash()


class TestMonotoneEnvelope:
    def test_running_max(self):
        assert list(monotone_envelope([1.0, 0.5, 2.0])) == [1.0, 1.0, 2.0]

    def test_idempotent_and_fixed_points(self):
        inc = [0.1, 0.2, 0.3]
        assert list(monotone_envelope(inc)) == inc
        same = [2.0, 2.0, 2.0]
        assert list(monotone_envelope(same)) == same
        once = monotone_envelope([3.0, 1.0, 4.0])
        assert np.array_equal(monotone_envelope(once), once)


class TestEstimateF:
    def test_envelope_and_floor(self):
        cfg = small_cfg()
        s = estimate_F(cfg)
        assert all(b >= a for a, b in zip(s.envelope, s.envelope[1:]))
        for a, f in zip(s.a_values, s.f_hat):
            assert f >= a - 1e-6
        assert s.censored == [0, 0]

    def test_deterministic_rerun_and_threads(self):
        cfg = small_cfg()
        j1 = estimate_F(cfg, threads=1).to_json()
        j2 = estimate_F(cfg, threads=1).to_json()
        j4 = estimate_F(cfg, threads=4).to_json()
        assert j1 == j2 == j4

    def test_seed_layout(self):
        assert sample_seed(100, 0, 1) == 101
        assert sample_seed(100, 2, 3) == 2000103

    def test_doubling_samples_only_increases(self):
        s2 = estimate_F(small_cfg(samples_per_a=2))
        s4 = estimate_F(small_cfg(samples_per_a=4))
        for f2, f4 in zip(s2.f_hat, s4.f_hat):
            assert f4 >= f2  # nested seed sets: max over a superset

    def test_shear_generator_override(self):
        def shear_gen(a, seed, grid):
            base = named_flow("shear", 1.0, grid)
            return (a / hs_norm(base, 1.0)) * base

        s = estimate_F(small_cfg(a_list=(0.1,), samples_per_a=1), generator=shear_gen)
        assert s.f_hat[0] == pytest.approx(0.1, abs=1e-9)
        assert s.argmax_time[0] == 0.0  # decaying norm peaks at t=0

    def test_process_pool_matches_in_process_run(self):
        # a local closure cannot be pickled, so this passes only because
        # the pool forks and binds the generator once per worker
        def shear_gen(a, seed, grid):
            base = named_flow("shear", 1.0, grid)
            return (a / hs_norm(base, 1.0)) * (1.0 + 1e-3 * (seed % 7)) * base

        cfg = small_cfg(samples_per_a=3)
        one = estimate_F(cfg, threads=1, generator=shear_gen)
        two = estimate_F(cfg, threads=2, generator=shear_gen)
        assert one.to_json() == two.to_json()
        assert one.samples == two.samples

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_sample_raises_its_error(self, threads):
        bad = sample_seed(100, 1, 0)

        def gen(a, seed, grid):
            if seed == bad:
                raise ValueError(f"no datum for seed {seed}")
            return random_divfree(a, seed, 2.0, grid)

        with pytest.raises(ValueError, match=f"no datum for seed {bad}"):
            estimate_F(small_cfg(), threads=threads, generator=gen)

    @staticmethod
    def pool_sizes(monkeypatch, cpus):
        """Replace the process pool by one that records its size and runs
        the tasks here, on a machine of ``cpus`` usable CPUs."""
        import concurrent.futures.process as cfp
        import mildns.explorer_cli as cli

        seen = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cfp, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli, "_usable_cores", lambda: cpus)
        return seen

    @pytest.mark.parametrize("threads, samples, workers", [(8, 2, 2), (2, 4, 2), (3, 1, None)])
    def test_pool_capped_at_task_count(self, monkeypatch, threads, samples, workers):
        seen = self.pool_sizes(monkeypatch, 8)
        cfg = small_cfg(a_list=(0.1,), samples_per_a=samples)
        assert (estimate_F(cfg, threads=threads).to_json()
                == estimate_F(cfg, threads=1).to_json())
        assert seen == ([] if workers is None else [workers])

    def test_pool_capped_at_usable_cores(self, monkeypatch):
        # --threads is an upper bound: 8 asked for on 2 CPUs fork 2 workers
        seen = self.pool_sizes(monkeypatch, 2)
        cfg = small_cfg(a_list=(0.1, 0.2), samples_per_a=4)
        assert (estimate_F(cfg, threads=8).to_json()
                == estimate_F(cfg, threads=1).to_json())
        assert seen == [2]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError):
            estimate_F(small_cfg(), threads=threads)

    @pytest.mark.parametrize("threads", ["2", 2.5, 1.0, None])
    def test_non_integer_threads_rejected(self, threads):
        # the rule store_every and max_iter follow: an integer >= 1
        with pytest.raises(ValueError, match="threads"):
            estimate_F(small_cfg(), threads=threads)

    def test_censoring_reported_as_infinity(self):
        cfg = small_cfg(a_list=(1e3, 1e4))  # every datum leaves its Galerkin ball
        s = estimate_F(cfg)
        assert s.censored == [2, 2]
        assert all(math.isinf(v) for v in s.f_hat)
        obj = json.loads(s.to_json())
        assert obj["F_hat"] == [None, None]  # JSON infinity marker
        assert obj["censored"] == [2, 2]

    @pytest.mark.parametrize("over", [
        dict(a_list=(1e3,)),
        dict(a_list=(1e3,), horizon=0.02),  # one step: the last yield retires them
    ])
    def test_data_above_ceiling_censored(self, over):
        # the Galerkin ball is each datum's own H1 ceiling; both data leave it
        # on the first step, so their t = 0 norms are read but count for nothing
        s = estimate_F(small_cfg(**over))
        assert s.censored == [2]
        assert math.isinf(s.f_hat[0])
        assert all(rec.censored and math.isnan(rec.sup_h1) for rec in s.samples)

    def test_tiny_horizon_runs_every_sample(self):
        cfg = ExperimentConfig(grid_n=8, horizon=1e-13, dt=1e-13, a_list=(0.5,),
                               samples_per_a=2)
        s = estimate_F(cfg)
        h1_at_0 = [hs_norm(random_divfree(0.5, rec.seed, cfg.slope, cfg.grid()), 1.0)
                   for rec in s.samples]
        assert s.censored == [0]
        assert s.f_hat == [max(h1_at_0)]
        assert all(math.isfinite(rec.sup_h1) for rec in s.samples)

    def test_samples_store_no_fields(self, monkeypatch):
        # a chunk of samples is one march read for H1 norms alone: simulate,
        # which stores fields every store_every steps, is never called
        import mildns.explorer_cli as cli
        marched = []

        def no_simulate(*args, **kwargs):
            raise AssertionError("an ensemble sample ran simulate")

        def recording(states, T, dt):
            marched.append(len(states))
            return march(states, T, dt)

        march = cli.march
        monkeypatch.setattr(cli, "simulate", no_simulate)
        monkeypatch.setattr(cli, "march", recording)
        every = estimate_F(small_cfg(store_every=1))
        assert marched == [4]  # the 2 x 2 samples in one stack
        monkeypatch.undo()
        plain = estimate_F(small_cfg())
        assert every.samples == plain.samples and every.f_hat == plain.f_hat


# Two amplitudes of five samples: the chunks do not divide evenly.  Sample
# (0, 2) leaves its Galerkin ball at t = 0.04; sample (1, 3) overflows on
# its first step, and its row marches on, unread, to T.
CHUNKED = dict(SMALL, a_list=(0.5, 1.0), samples_per_a=5)
RIGGED = {sample_seed(100, 0, 2): 160.0, sample_seed(100, 1, 3): 1e18}


def _rigged_data(a, seed, slope, grid):
    return random_divfree(RIGGED.get(seed, a), seed, slope, grid)


def _oracle_record(cfg, j, i):
    """One sample through its own simulate, as the ensemble ran it before
    samples were marched in chunks."""
    seed = sample_seed(cfg.base_seed, j, i)
    u0 = _rigged_data(cfg.a_list[j], seed, cfg.slope, cfg.grid())
    try:
        traj = simulate(u0, cfg.horizon, cfg.dt, store_every=10**9)
    except BlowupError:
        return (seed, math.nan, math.nan, True)
    k = int(np.argmax(traj.norm_series.h1))
    return (seed, float(traj.norm_series.h1[k]), float(traj.norm_series.times[k]), False)


class TestChunkedEnsemble:
    @pytest.mark.parametrize("count, workers", [(8, 2), (10, 1), (10, 2), (10, 3),
                                                (24, 2), (3, 3), (1, 1), (9, 4)])
    def test_chunk_split(self, count, workers):
        tasks = list(range(count))
        chunks = [tasks[a:b] for a, b in _split(count, STACK_SIZE, workers)]
        assert [t for chunk in chunks for t in chunk] == tasks  # contiguous, in order
        assert all(1 <= len(chunk) <= STACK_SIZE for chunk in chunks)
        assert len(chunks) >= workers
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
        if (count, workers) == (8, 2):
            assert [len(chunk) for chunk in chunks] == [4, 4]

    def test_overflow_and_ceiling_match_single_runs(self, monkeypatch, tmp_path):
        import mildns.explorer_cli as cli

        monkeypatch.setattr(cli, "random_divfree", _rigged_data)
        cfg = ExperimentConfig(**CHUNKED)
        oracle = [_oracle_record(cfg, j, i) for j in range(2) for i in range(5)]
        assert [rec[3] for rec in oracle].count(True) == 2
        stops = []
        for j, i in ((0, 2), (1, 3)):
            seed = sample_seed(100, j, i)
            u0 = _rigged_data(cfg.a_list[j], seed, cfg.slope, cfg.grid())
            with pytest.raises(BlowupError, match="left the Galerkin ball") as exc:
                simulate(u0, cfg.horizon, cfg.dt)
            stops.append(exc.value.time)
        assert stops[1] < stops[0] < cfg.horizon  # (1, 3) on its first step
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text("grid_n = 8\ndt = 0.02\nhorizon = 0.5\na_list = 0.5,1.0\n"
                           "samples_per_a = 5\nbase_seed = 100\n")
        assert ExperimentConfig.from_file(cfgfile) == cfg
        outputs = []
        for threads in (1, 2, 3):
            s = estimate_F(cfg, threads=threads)
            got = [(r.seed, r.sup_h1, r.argmax_time, r.censored) for r in s.samples]
            assert [(r[0], r[3]) for r in got] == [(r[0], r[3]) for r in oracle]
            assert [r[1:3] for r in got if not r[3]] == [r[1:3] for r in oracle if not r[3]]
            assert all(math.isnan(r[1]) and math.isnan(r[2]) for r in got if r[3])
            assert s.censored == [1, 1]
            out = tmp_path / f"t{threads}"
            assert cli_main(["ensemble", "--config", str(cfgfile), "--threads", str(threads),
                             "--out-dir", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert json.loads(outputs[-1]["summary.json"]) == json.loads(s.to_json())
        assert outputs[0] == outputs[1] == outputs[2]
        assert set(outputs[0]) == {"summary.json", "manifest.json",
                                   "ensemble_A0.5.csv", "ensemble_A1.csv"}


class TestVerifySuite:
    def test_all_checks_pass(self):
        checks = run_verify(n=8)
        failed = [name for name, ok, _ in checks if not ok]
        assert failed == []
        assert len(checks) >= 15

    @pytest.mark.parametrize("n", [8, 16])
    def test_reference_flow_check_covers_every_named_flow(self, monkeypatch, n):
        # every named flow's flux is a pure gradient, the identity the
        # five-product tensor relies on; abc is the only one with all three
        # components
        seen = []
        real = explorer_cli.named_flow
        monkeypatch.setattr(explorer_cli, "named_flow",
                            lambda name, a, g: seen.append(name) or real(name, a, g))
        checks = {name: (ok, detail) for name, ok, detail in run_verify(n=n)}
        assert len(checks) == 17
        assert set(FLOW_NAMES) <= set(seen)
        ok, detail = checks["nonlinearity_annihilated_on_reference_flows"]
        assert ok, detail


class TestCli:
    def test_simulate_shear_csv(self, tmp_path):
        out = tmp_path / "run"
        rc = cli_main([
            "simulate", "--flow", "shear", "--N", "8", "--T", "0.2",
            "--dt", "1e-2", "--out-dir", str(out),
        ])
        assert rc == 0
        series = norms_from_csv(out / "norms.csv")
        want = (1.0 / math.sqrt(2.0)) * np.exp(-series.times)
        assert np.max(np.abs(series.h1 - want) / want) <= 1e-10
        u0 = load_nsf1(out / "u_initial.nsf1")
        assert hs_norm(u0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)
        uf = load_nsf1(out / "u_final.nsf1")
        assert hs_norm(uf, 1.0) == pytest.approx(
            math.exp(-0.2) / math.sqrt(2.0), rel=1e-10
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"config_hash", "code_version", "seeds", "files"}
        for name in manifest["files"]:
            assert (out / name).exists()

    def test_simulate_blowup_exit_code(self, tmp_path):
        out = tmp_path / "run"
        rc = cli_main([
            "simulate", "--flow", "random", "--A", "1e3", "--N", "8", "--T", "0.1",
            "--dt", "1e-2", "--out-dir", str(out),
        ])
        assert rc == 3
        assert (out / "norms.csv").exists()  # partial series still written

    def test_horizon_above_one_runs(self, tmp_path):
        out = tmp_path / "run"
        assert cli_main(["simulate", "--flow", "shear", "--N", "8", "--T", "2",
                         "--dt", "0.25", "--out-dir", str(out)]) == 0
        series = norms_from_csv(out / "norms.csv")
        assert series.times[-1] == 2.0
        assert series.h1[-1] == pytest.approx(math.exp(-2.0) / math.sqrt(2.0), rel=1e-10)

    def test_final_field_after_blowup_is_last_norms_row(self, tmp_path):
        # the datum leaves its Galerkin ball after a few steps, and the
        # default store_every stores no field in between
        with pytest.raises(BlowupError) as oracle:
            simulate(random_divfree(150.0, 1, 2.0, GridSpec(16)), 0.1, 0.01)
        last = oracle.value.trajectory.norm_series.times[-1]
        assert last > 0.0
        out = tmp_path / "run"
        rc = cli_main([
            "simulate", "--flow", "random", "--A", "150", "--seed", "1", "--N", "16",
            "--T", "0.1", "--dt", "0.01", "--out-dir", str(out),
        ])
        assert rc == 3
        series = norms_from_csv(out / "norms.csv")
        assert series.times[-1] == last
        assert hs_norm(load_nsf1(out / "u_final.nsf1"), 1.0) == series.h1[-1]

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grid_q = 12\n")
        rc = cli_main(["ensemble", "--config", str(cfgfile),
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "grid_q" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("mode", "short"), ("mode", "long"),
                                            ("grid_k", "4"), ("ceiling", "1e6")])
    def test_mode_key_is_unknown(self, key, value, tmp_path, capsys):
        # horizon alone sets the run length, grid_n alone the cutoff, and each
        # datum's Galerkin ball its H1 ceiling, so a config naming a mode, a
        # cutoff or a ceiling is rejected
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"grid_n = 8\n{key} = {value}\n")
        out = tmp_path / "o"
        assert cli_main(["ensemble", "--config", str(cfgfile), "--out-dir", str(out)]) == 2
        assert f"config key '{key}': unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, written", [
        (["simulate", "--flow", "shear", "--N", "8", "--T", "0.02", "--dt", "1e-2"],
         "norms.csv"),
        (["picard", "--flow", "shear", "--N", "8", "--c", "0.01"], "picard.json"),
        (["compactness", "--flow", "shear", "--N", "8", "--freqs", "1,2",
          "--eps-window", "0.01", "--c", "0.5", "--dt", "1e-2"], "compactness.json"),
        (["ensemble"], "ensemble_A0.1.csv"),
    ])
    def test_config_out_dir_used(self, tmp_path, argv, written):
        target = tmp_path / "from_config"
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "grid_n = 8\ndt = 0.02\nhorizon = 0.04\na_list = 0.1\n"
            f"samples_per_a = 1\nout_dir = {target}\n"
        )
        assert cli_main(argv + ["--config", str(cfgfile)]) == 0
        assert (target / written).exists()
        assert (target / "manifest.json").exists()
        override = tmp_path / "from_flag"
        assert cli_main(argv + ["--config", str(cfgfile), "--out-dir", str(override)]) == 0
        assert (override / written).exists()

    def test_picard_report_written(self, tmp_path):
        out = tmp_path / "p"
        rc = cli_main([
            "picard", "--flow", "random", "--A", "0.5", "--N", "8",
            "--seed", "11", "--c", "0.01", "--out-dir", str(out),
        ])
        assert rc == 0
        obj = json.loads((out / "picard.json").read_text())
        assert obj["converged"] is True
        assert len(obj["contraction_factors"]) == obj["iterate_count"] - 2

    def test_verify_subcommand_passes(self, tmp_path, capsys):
        rc = cli_main(["verify", "--N", "8"])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in captured
        assert captured.count("PASS") >= 15

    def test_ensemble_outputs_and_determinism(self, tmp_path):
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text(
            "grid_n = 8\ndt = 0.02\nhorizon = 0.5\na_list = 0.1,0.2\n"
            "samples_per_a = 2\nbase_seed = 100\n"
        )
        outs = []
        for name, threads in (("o1", "1"), ("o2", "1"), ("o3", "4")):
            out = tmp_path / name
            rc = cli_main(["ensemble", "--config", str(cfgfile),
                           "--out-dir", str(out), "--threads", threads])
            assert rc == 0
            outs.append(out)
        names = ["summary.json", "ensemble_A0.1.csv", "ensemble_A0.2.csv",
                 "manifest.json"]
        for name in names:
            blobs = [(o / name).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2]
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert summary["censored"] == [0, 0]

    def _ensemble(self, tmp_path, name, *flags):
        cfgfile = tmp_path / "seeded.cfg"
        cfgfile.write_text(
            "grid_n = 8\ndt = 0.02\nhorizon = 0.04\na_list = 0.5\n"
            "samples_per_a = 2\nbase_seed = 100\n"
        )
        out = tmp_path / name
        assert cli_main(["ensemble", "--config", str(cfgfile),
                         "--out-dir", str(out), *flags]) == 0
        return out

    def test_ensemble_seed_replaces_base_seed(self, tmp_path):
        a = self._ensemble(tmp_path, "s1", "--seed", "1")
        b = self._ensemble(tmp_path, "s2", "--seed", "2")
        assert (a / "summary.json").read_bytes() != (b / "summary.json").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["seeds"] == [1, 2] and mb["seeds"] == [2, 3]
        assert ma["config_hash"] != mb["config_hash"]

    def test_ensemble_seed_equal_to_base_seed_changes_nothing(self, tmp_path):
        plain = self._ensemble(tmp_path, "plain")
        seeded = self._ensemble(tmp_path, "seeded", "--seed", "100")
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in seeded.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (seeded / name).read_bytes()

    def test_verify_seed_reaches_suite(self, monkeypatch):
        import mildns.explorer_cli as cli
        calls = []
        monkeypatch.setattr(cli, "run_verify", lambda **kw: calls.append(kw) or [])
        assert cli_main(["verify", "--N", "8", "--seed", "5"]) == 0
        assert cli_main(["verify", "--N", "8"]) == 0
        assert calls == [{"n": 8, "seed": 5}, {"n": 8}]

    @pytest.mark.parametrize("command", ["simulate", "picard", "verify", "compactness"])
    def test_threads_only_on_ensemble(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--threads", "2", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_threads_must_be_positive(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["ensemble", "--threads", value, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not tmp_path.joinpath("summary.json").exists()

    @pytest.mark.parametrize("flag", ["--config", "--out-dir"])
    def test_verify_rejects_unused_flags(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--N", "8", flag, str(tmp_path / "x")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_missing_config_file_exit_code(self, command, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.cfg"
        rc = cli_main([command, "--config", str(missing), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'config'" in err and str(missing) in err
        assert not (tmp_path / "o").exists()

    def test_flags_and_config_keys_interchangeable(self, tmp_path):
        by_flag = tmp_path / "flag"
        assert cli_main(["simulate", "--N", "12", "--dt", "0.005", "--T", "0.02",
                         "--seed", "4", "--store-every", "2", "--out-dir", str(by_flag)]) == 0
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grid_n = 12\ndt = 0.005\nhorizon = 0.02\nbase_seed = 4\n"
                           "store_every = 2\n")
        by_key = tmp_path / "key"
        assert cli_main(["simulate", "--config", str(cfgfile), "--out-dir", str(by_key)]) == 0
        names = sorted(p.name for p in by_flag.iterdir())
        assert "snapshot_t0.010000.nsf1" in names
        assert names == sorted(p.name for p in by_key.iterdir())
        for name in names:
            assert (by_flag / name).read_bytes() == (by_key / name).read_bytes()
        assert json.loads((by_key / "manifest.json").read_text())["seeds"] == [4]

    def test_close_snapshots_keep_distinct_names(self, tmp_path):
        # snapshots 1e-7 apart would all read snapshot_t0.000000.nsf1
        out = tmp_path / "o"
        assert cli_main(["simulate", "--flow", "shear", "--N", "8", "--dt", "1e-7",
                         "--T", "5e-7", "--store-every", "1", "--out-dir", str(out)]) == 0
        snaps = sorted(p.name for p in out.glob("snapshot_t*.nsf1"))
        assert len(snaps) == 4
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert len(set(files)) == len(files)
        assert sorted(f for f in files if f.startswith("snapshot_t")) == snaps

    def test_config_hash_covers_flags(self, tmp_path):
        hashes = []
        for dt in ("0.01", "0.005"):
            out = tmp_path / dt
            assert cli_main(["simulate", "--flow", "shear", "--N", "8", "--T", "0.02",
                             "--dt", dt, "--out-dir", str(out)]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    def test_N_flag_resets_config_cutoff(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grid_n = 16\n")
        for flags, cutoff in ((["--N", "8"], 2), (["--N", "12"], 4), ([], 5)):
            out = tmp_path / f"o{cutoff}"
            assert cli_main(["simulate", "--flow", "shear", "--T", "0.02", "--dt", "0.01",
                             "--config", str(cfgfile), "--out-dir", str(out), *flags]) == 0
            assert load_nsf1(out / "u_initial.nsf1").grid.cutoff == cutoff

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--N", "7"], "'grid_n'"),
        (["simulate", "--K", "4"], "unrecognized arguments: --K"),  # grid_n sets K
        (["simulate", "--dt", "-1"], "'dt'"),
        (["simulate", "--dt", "nan"], "'dt'"),
        (["simulate", "--T", "-1"], "'horizon'"),
        (["simulate", "--T", "inf"], "'horizon'"),
        (["simulate", "--store-every", "0"], "'store_every'"),
        (["picard", "--c", "0"], "'c'"),
        (["picard", "--tol", "0"], "'picard_tol'"),
        (["simulate", "--A", "-1"], "--A"),
        (["picard", "--A", "-1"], "--A"),
        (["compactness", "--A", "-1"], "--A"),
        (["compactness", "--freqs", "2,x"], "--freqs"),
        (["compactness", "--freqs", "4,2"], "--freqs"),
        (["verify", "--N", "7"], "--N"),
        (["simulate", "--seed", "-1"], "'base_seed'"),
        (["verify", "--seed", "-1"], "--seed"),
        (["compactness", "--A", "0", "--N", "8", "--freqs", "2,4,8"], "--freqs"),  # 8 > K=2
        (["compactness", "--flow", "shear", "--N", "8", "--freqs", "1,2",
          "--eps-window", "5"], "--eps-window"),
        (["compactness", "--flow", "shear", "--N", "8", "--freqs", "1,2",
          "--eps-window", "-0.1"], "--eps-window"),
        (["simulate", "--flow", "random", "--A", "inf", "--N", "8", "--T", "0.01"],
         "argument --A:"),
        (["simulate", "--dt", "inf"], "'dt'"),
        (["picard", "--c", "inf"], "'c'"),
        (["simulate", "--flow", "shear", "--amplitude", "inf", "--N", "8", "--T", "0.01"],
         "argument --amplitude:"),
        (["picard", "--max-iter", "0"], "--max-iter"),
        (["picard", "--max-iter", "-3"], "--max-iter"),
        (["picard", "--flow", "random", "--A", "1e100", "--N", "8", "--c", "1"],
         "local horizon c A^-4 underflows to 0"),
        # subnormal horizon whose node spacing rounds to 0
        (["picard", "--flow", "random", "--A", "1e80", "--N", "8", "--c", "1e-3"],
         "local horizon c A^-4 underflows to 0"),
        # subnormal horizon; normal horizon whose node spacing is subnormal
        (["picard", "--flow", "random", "--A", "1e80", "--N", "8", "--c", "1"],
         "local horizon c A^-4 underflows to 0"),
        (["picard", "--flow", "random", "--A", "7e76", "--N", "8", "--c", "1"],
         "local horizon c A^-4 underflows to 0"),
        (["picard", "--flow", "shear", "--N", "8", "--auto-shrink"],
         "unrecognized arguments: --auto-shrink"),
        # the amplitude flag the chosen flow does not read
        (["simulate", "--flow", "shear", "--A", "5", "--N", "8", "--T", "0.01",
          "--dt", "0.01"], "--A"),
        (["simulate", "--flow", "random", "--amplitude", "5", "--N", "8", "--T", "0.01",
          "--dt", "0.01"], "--amplitude"),
        (["picard", "--flow", "taylor_green", "--A", "0.5", "--N", "8"], "--A"),
        (["picard", "--amplitude", "0.5", "--N", "8"], "--amplitude"),  # random by default
        (["compactness", "--flow", "abc", "--A", "1", "--N", "16", "--freqs", "1,2"], "--A"),
        (["compactness", "--flow", "random", "--amplitude", "1", "--N", "16",
          "--freqs", "1,2"], "--amplitude"),
    ])
    def test_bad_value_exits_2_naming_it(self, argv, named, tmp_path, capsys):
        out = tmp_path / "o"
        if argv[0] != "verify":
            argv = argv + ["--out-dir", str(out)]
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        if named.startswith("--"):  # argparse's usage line lists every flag
            named = f"argument {named}:"
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text("grid_n = 8\na_list = 0.5\nsamples_per_a = 1\nbase_seed = -5\n")
        out = tmp_path / "o"
        assert cli_main(["ensemble", "--config", str(cfgfile), "--out-dir", str(out)]) == 2
        assert "'base_seed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines, key", [
        ("dt = inf", "'dt'"),
        ("a_list = 0.1, inf", "'a_list'"),
        ("a_list = nan", "'a_list'"),
        ("horizon = inf", "'horizon'"),
    ])
    def test_non_finite_config_value_exits_2(self, lines, key, tmp_path, capsys):
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text(f"grid_n = 8\na_list = 0.5\nsamples_per_a = 1\n{lines}\n")
        out = tmp_path / "o"
        assert cli_main(["ensemble", "--config", str(cfgfile), "--out-dir", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate", "--flow", "shear"], ["ensemble"]])
    @pytest.mark.parametrize("lines", [
        "grid_n = 8\nhorizon = 1e300\ndt = 1e-10",  # T / dt overflows
        "grid_n = 8\nhorizon = 1e6\ndt = 1e-9",     # 10^15 steps
    ])
    def test_run_length_bounded(self, command, lines, tmp_path, monkeypatch, capsys):
        # march refuses the plan before it steps at all
        monkeypatch.setattr(semigroup_flow, "_lockstep", None)
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text(lines + "\n")
        out = tmp_path / "o"
        assert cli_main([*command, "--config", str(cfgfile), "--out-dir", str(out)]) == 2
        dt = float(lines.rsplit("=", 1)[1])
        assert f"error: dt = {dt:.6g} plans" in capsys.readouterr().err
        assert not out.exists()

    def test_compactness_plan_bounded(self, tmp_path, monkeypatch, capsys):
        # the compactness horizon, T = 1 here, not the config's horizon,
        # sets the plan: 10^9 steps, refused before any step
        monkeypatch.setattr(semigroup_flow, "_lockstep", None)
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text("horizon = 0.001\n")
        out = tmp_path / "o"
        rc = cli_main(["compactness", "--flow", "shear", "--N", "8", "--freqs", "1,2",
                       "--c", "1e6", "--dt", "1e-9", "--config", str(cfgfile),
                       "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("mildns compactness: error: dt = 1e-09 plans")
        assert "steps, over the limit of 10000000" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, lines, written", [
        # about 12 steps to the compactness horizon, though horizon / dt = 10^8
        (["compactness", "--flow", "shear", "--N", "8", "--freqs", "1,2", "--c", "1e-6",
          "--dt", "1e-8"], "", "compactness.json"),
        (["picard", "--N", "8"], "horizon = 1e6", "picard.json"),  # picard never marches
    ], ids=["compactness", "picard"])
    def test_horizon_bounds_only_its_own_plans(self, argv, lines, written, tmp_path):
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text(lines + "\n")
        out = tmp_path / "o"
        assert cli_main([*argv, "--config", str(cfgfile), "--out-dir", str(out)]) == 0
        assert (out / written).exists()

    def test_compactness_blowup_exit_code(self, tmp_path, monkeypatch, capsys):
        import mildns.explorer_cli as cli

        def blowup(*args, **kwargs):
            raise BlowupError("left the Galerkin ball at t=0.01", time=0.01)

        monkeypatch.setattr(cli, "compactness_experiment", blowup)
        rc = cli_main(["compactness", "--flow", "shear", "--N", "8", "--freqs", "1,2",
                       "--eps-window", "0", "--out-dir", str(tmp_path / "c")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("blowup: left the Galerkin ball")

    @pytest.mark.parametrize("n, freqs", [(16, [2, 4]), (32, [2, 4, 8]), (4, [1])])
    def test_compactness_default_freqs_are_powers_of_two_up_to_K(self, n, freqs, tmp_path):
        # at the default grid_n = 16 (K = 5), with no other flag
        argv = ["compactness", "--out-dir", str(tmp_path / "c")]
        assert cli_main(argv if n == 16 else [*argv, "--N", str(n)]) == 0
        obj = json.loads((tmp_path / "c" / "compactness.json").read_text())
        assert obj["frequencies"] == freqs

    def test_compactness_blowup_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc = cli_main(["compactness", "--flow", "random", "--A", "200", "--N", "16",
                       "--freqs", "1,2", "--c", "1e12", "--dt", "0.01", "--out-dir", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("blowup: left the Galerkin ball")
        assert not out.exists()

    def test_compactness_default_window_is_half_the_horizon(self, tmp_path):
        out = tmp_path / "c"
        assert cli_main(["compactness", "--flow", "random", "--A", "0", "--N", "16",
                         "--freqs", "1,2", "--out-dir", str(out)]) == 0
        obj = json.loads((out / "compactness.json").read_text())
        assert obj["epsilon_window"] == obj["T_used"] / 2

    def test_compactness_subcommand(self, tmp_path):
        out = tmp_path / "c"
        rc = cli_main([
            "compactness", "--flow", "shear", "--amplitude", "1.0", "--N", "12",
            "--freqs", "2,4", "--eps-window", "0.05", "--c", "2.0",
            "--dt", "5e-3", "--out-dir", str(out),
        ])
        assert rc == 0
        obj = json.loads((out / "compactness.json").read_text())
        assert obj["distances"][1] < obj["distances"][0]


_KEYS = [f.name for f in fields(ExperimentConfig)]
_NUMBERS = st.one_of(st.floats().map(repr), st.integers(-2, 40).map(str),
                     st.sampled_from(["1e999", "-1e999", "NaN", "Infinity", " inf"]))
_VALUES = st.one_of(_NUMBERS, st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join),
                    st.sampled_from(["", "long", "short", "hybrid", "simulate"]), st.text())
_KEYED = st.builds("{}{}={}{}".format, st.sampled_from(_KEYS), st.sampled_from(["", " "]),
                   st.sampled_from(["", " "]), _VALUES)
# runs of about MAX_STEPS steps: only march's step limit rejects the longer ones
_LONG_RUN = st.tuples(st.floats(1e-9, 1e-2), st.floats(0.5 * MAX_STEPS, 2.0 * MAX_STEPS)).map(
    lambda p: f"dt = {p[0]!r}\nhorizon = {p[0] * p[1]!r}")
# the datum a config's run is planned for: the plan does not depend on it
_ZERO8 = SpectralField.zero(GridSpec(8))


class TestConfigProperties:
    """ExperimentConfig.from_file turns any UTF-8 text into a config whose
    float settings are finite, or into a ConfigError; no other exception
    escapes.  A config's run of more than MAX_STEPS steps is refused by
    march, naming dt, not by the config."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.one_of(_KEYED, _KEYED, _KEYED, st.text(), _LONG_RUN), max_size=6))
    def test_parse_or_config_error(self, tmp_path, lines):
        path = tmp_path / "x.cfg"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        try:
            cfg = ExperimentConfig.from_file(path)
        except ConfigError:
            return
        for key in ("dt", "horizon", "c", "picard_tol", "slope"):
            assert math.isfinite(getattr(cfg, key))
        assert all(math.isfinite(a) for a in cfg.a_list)
        try:
            march([_ZERO8], cfg.horizon, cfg.dt)
        except ValueError as exc:
            assert cfg.horizon / cfg.dt > MAX_STEPS
            assert str(exc).startswith(f"dt = {cfg.dt:.6g} plans")
        else:
            assert _plan_steps(cfg.horizon, cfg.dt) <= MAX_STEPS
