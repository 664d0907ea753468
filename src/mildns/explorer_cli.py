"""Configuration, ensemble orchestration, invariant verification, and the CLI.

The ensemble driver estimates the norm-growth envelope F_hat(A): for each
amplitude A it draws seeded random divergence-free data of H^1 size A, runs
them to the horizon, and records the largest H^1 norm seen (the supremum
includes t = 0, so F_hat(A) >= A up to rounding: the drawn data have H^1
norm A only to a few ulps, see ``random_divfree``, so an F_hat equal to its
t = 0 value can read slightly below A).  Runs that leave their Galerkin
ball (a failed time step, see ``march``) are censored: excluded from the
maximum but counted and reported.
"""

import argparse
import csv
import hashlib
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .spectral_field import (
    FLOW_NAMES,
    STACK_SIZE,
    GridSpec,
    SpectralField,
    _inner,
    _planar_divfree,
    _sine_mode,
    _write_json,
    divergence_linf,
    hermitian_residual,
    hs_norm,
    leray_project,
    named_flow,
    nonlinear_term,
    random_divfree,
    sample_on_grid,
    save_nsf1,
)
from .semigroup_flow import (
    MAX_STEPS,
    BlowupError,
    _split,
    _usable_cores,
    heat_propagate,
    march,
    norms_to_csv,
    simulate,
    smoothing_ratio,
)
from .picard_wellposedness import INTERVALS, picard_solve
from .apriori_diagnostics import (
    _compactness_horizon,
    compactness_experiment,
    energy_identity_residual,
    poincare_violation,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "EnsembleSummary",
    "estimate_F",
    "monotone_envelope",
    "run_verify",
    "write_manifest",
    "cli_main",
    "main",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def ensemble_csv_name(a: float) -> str:
    """Per-amplitude ensemble CSV name; amplitudes are written with {a:g}."""
    return f"ensemble_A{a:g}.csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """Ensemble and solver settings, loadable from flat key=value files."""

    grid_n: int = 16
    dt: float = 0.01
    horizon: float = 1.0
    c: float = 0.01
    picard_tol: float = 1e-10
    a_list: tuple = (0.1, 0.2, 0.3)
    samples_per_a: int = 8
    base_seed: int = 12345
    slope: float = 2.0
    store_every: int = 10**9
    out_dir: str = "."

    def __post_init__(self):
        # one stored type per key, so that equal settings hash equally
        for key, lo in {"grid_n": 1, "samples_per_a": 1, "base_seed": 0, "store_every": 1}.items():
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or value < lo:
                raise ConfigError(key, f"must be an integer >= {lo}, got {value!r}")
            object.__setattr__(self, key, int(value))
        for key in ("dt", "horizon", "c", "picard_tol", "slope"):
            value = getattr(self, key)
            if not (isinstance(value, numbers.Real) and 0 < value < math.inf):  # NaN fails too
                raise ConfigError(key, f"must be a positive finite number, got {value!r}")
            object.__setattr__(self, key, float(value))
        if len(self.a_list) == 0:
            raise ConfigError("a_list", "must not be empty")
        if not all(isinstance(a, numbers.Real) and 0 < a < math.inf  # NaN fails too
                   for a in self.a_list):
            raise ConfigError("a_list", "amplitudes must be positive and finite numbers")
        object.__setattr__(self, "a_list", tuple(map(float, self.a_list)))
        if any(b <= a for a, b in zip(self.a_list, self.a_list[1:])):
            raise ConfigError("a_list", "amplitudes must be strictly increasing")
        names = [ensemble_csv_name(a) for a in self.a_list]
        if len(set(names)) < len(names):
            raise ConfigError("a_list", "amplitudes must differ in their first 6 significant "
                                        "digits, which name the ensemble_A*.csv files")
        try:
            self.grid()
        except ValueError as exc:
            raise ConfigError("grid_n", str(exc)) from exc

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_n)

    def config_hash(self) -> str:
        """Stable hash over the scientific settings, sorted by key.

        ``out_dir`` is excluded so relocation does not change the hash.
        """
        items = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name == "out_dir":
                continue
            v = getattr(self, f.name)
            canon = ",".join(map(repr, v)) if isinstance(v, tuple) else repr(v)
            items.append(f"{f.name}={canon}")
        return hashlib.sha256("\n".join(items).encode()).hexdigest()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Parse a flat key=value file with # comments; each key at most once."""
        converters = {f.name: type(f.default) for f in fields(cls)}
        converters["a_list"] = lambda text: tuple(map(float, text.split(",")))
        values = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(line, f"line {lineno} is not key=value")
                key, _, text = line.partition("=")
                key, text = key.strip(), text.strip()
                if key not in converters:
                    raise ConfigError(key, "unknown key")
                if key in values:
                    raise ConfigError(key, f"given twice (again on line {lineno})")
                try:
                    values[key] = converters[key](text)
                except ValueError as exc:
                    raise ConfigError(key, f"cannot parse {text!r}: {exc}") from exc
        return cls(**values)


@dataclass
class SampleRecord:
    a_index: int
    sample: int
    seed: int
    sup_h1: float
    argmax_time: float
    censored: bool


@dataclass
class EnsembleSummary:
    """Per-amplitude envelope of observed H^1 growth with provenance."""

    a_values: list[float]
    f_hat: list[float]
    envelope: list[float]
    censored: list[int]
    argmax_seed: list
    argmax_time: list
    samples: list = field(default_factory=list)
    config_hash: str = ""

    def to_json(self, path=None) -> str:
        def marker(x):
            return None if x is None or (isinstance(x, float) and math.isinf(x)) else x

        obj = {
            "A": self.a_values,
            "F_hat": [marker(v) for v in self.f_hat],
            "envelope": [marker(v) for v in self.envelope],
            "censored": self.censored,
            "argmax_seed": self.argmax_seed,
            "argmax_time": self.argmax_time,
            "config_hash": self.config_hash,
        }
        return _write_json(obj, path)


def monotone_envelope(values) -> np.ndarray:
    """Running maximum over an increasing amplitude grid; idempotent."""
    return np.maximum.accumulate(np.asarray(values, dtype=np.float64))


def sample_seed(base_seed: int, a_index: int, sample: int) -> int:
    """Seed layout base + j*10^6 + i keeps ensembles extensible per amplitude."""
    return base_seed + a_index * 10**6 + sample


def _run_chunk(cfg: ExperimentConfig, grid: GridSpec, tasks, generator) -> list:
    """The records of a chunk of (j, i) samples, marched together in one
    lockstep march: each sample's largest H^1 norm (t = 0 included) and the
    first time it is reached; a sample the march retired is censored."""
    seeds = [sample_seed(cfg.base_seed, j, i) for j, i in tasks]
    data = [generator(cfg.a_list[j], seed, grid) for (j, _), seed in zip(tasks, seeds)]
    best, at = np.full(len(tasks), -math.inf), np.zeros(len(tasks))
    for t, _, h1 in march(data, cfg.horizon, cfg.dt):
        up = h1 > best  # strict: the first time the maximum is reached; NaN never wins
        best[up], at[up] = h1[up], t
    best, at = np.where(np.isnan(h1), math.nan, (best, at))  # retired: censored
    return [SampleRecord(j, i, seed, sup, when, math.isnan(sup))
            for (j, i), seed, sup, when in zip(tasks, seeds, best.tolist(), at.tolist())]


# The ensemble a pool worker runs: bound once per forked worker by the pool
# initializer, so that only its chunks of (j, i) travel to it.  Only the
# workers read it.
_bound = None


def _bind(cfg: ExperimentConfig, grid: GridSpec, generator):
    global _bound
    _bound = (cfg, grid, generator)


def _run_task(chunk) -> list:
    cfg, grid, generator = _bound
    return _run_chunk(cfg, grid, chunk, generator)


def estimate_F(cfg: ExperimentConfig, threads: int = 1, generator=None) -> EnsembleSummary:
    """Empirical norm-growth envelope over a seeded random ensemble.

    Deterministic in the configuration: per-sample seeds are fixed up front
    and results are merged by an associative max keyed on (amplitude,
    sample), so the worker count does not affect the output.  The (j, i)
    samples are split (``_split``) into contiguous chunks of at most
    STACK_SIZE, at least one per worker, and each chunk runs as one lockstep
    march, whose rows are bitwise those of the samples' own marches.  There
    are min(threads, samples, usable CPUs) workers, forked processes if more
    than one: at N=16 a chunk is one stack, which its march steps on one
    thread.  Forking lets ``generator`` be any callable, a local closure
    included; call it from a process that runs no other threads.
    """
    if not isinstance(threads, numbers.Integral) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    grid = cfg.grid()
    if generator is None:
        def generator(a, seed, g):
            return random_divfree(a, seed, cfg.slope, g)
    tasks = [(j, i) for j in range(len(cfg.a_list)) for i in range(cfg.samples_per_a)]
    workers = min(threads, len(tasks), _usable_cores())
    chunks = [tasks[a:b] for a, b in _split(len(tasks), STACK_SIZE, workers)]
    if workers > 1:
        # imported here so that only parallel ensembles pay for the import
        from concurrent.futures.process import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                                 initializer=_bind,
                                 initargs=(cfg, grid, generator)) as pool:
            done = list(pool.map(_run_task, chunks))
    else:
        done = [_run_chunk(cfg, grid, chunk, generator) for chunk in chunks]
    records = {(rec.a_index, rec.sample): rec for chunk in done for rec in chunk}

    a_values, f_hat, censored, argmax_seed, argmax_time, rows = [], [], [], [], [], []
    for j, a in enumerate(cfg.a_list):
        best, best_seed, best_time, ncens = -math.inf, None, None, 0
        for i in range(cfg.samples_per_a):
            rec = records[(j, i)]
            rows.append(rec)
            if rec.censored:
                ncens += 1
                continue
            if rec.sup_h1 > best:
                best, best_seed, best_time = rec.sup_h1, rec.seed, rec.argmax_time
        a_values.append(a)
        f_hat.append(best if best > -math.inf else math.inf)
        censored.append(ncens)
        argmax_seed.append(best_seed)
        argmax_time.append(best_time)
    env = monotone_envelope(f_hat)
    return EnsembleSummary(
        a_values=a_values,
        f_hat=f_hat,
        envelope=[float(v) for v in env],
        censored=censored,
        argmax_seed=argmax_seed,
        argmax_time=argmax_time,
        samples=rows,
        config_hash=cfg.config_hash(),
    )


def write_manifest(out_dir, cfg_hash: str, seeds, file_names) -> Path:
    """Record provenance for one run: config hash, code version, seeds, files.

    Paths are stored relative to the manifest so runs relocate cleanly; the
    file list is ``file_names`` plus ``manifest.json`` itself, sorted.
    """
    out = Path(out_dir)
    obj = {
        "config_hash": cfg_hash,
        "code_version": __version__,
        "seeds": list(seeds),
        "files": sorted(str(f) for f in [*file_names, "manifest.json"]),
    }
    path = out / "manifest.json"
    _write_json(obj, path)
    return path


# ---------------------------------------------------------------------------
# invariant verification suite


def _report(checks, name, ok, detail):
    checks.append((name, bool(ok), detail))


def run_verify(n: int = 16, seed: int = 7) -> list[tuple[str, bool, str]]:
    """Run the invariant suite; returns (name, passed, detail) per check."""
    checks: list[tuple[str, bool, str]] = []
    grid = GridSpec(n)
    u = random_divfree(1.0, seed, 2.0, grid)

    p1 = leray_project(u)
    p2 = leray_project(p1)
    d = float(np.max(np.abs(p2.coef - p1.coef)))
    _report(checks, "leray_idempotent", d <= 1e-15, f"max coef change {d:.3e} <= 1e-15")

    dv = divergence_linf(p1)
    _report(checks, "divergence_after_projection", dv <= 1e-12,
            f"div_linf {dv:.3e} <= 1e-12")

    vals = sample_on_grid(u)
    rms = float(np.sqrt(np.mean(np.sum(vals**2, axis=0))))
    l2 = hs_norm(u, 0.0)
    rel = abs(rms - l2) / l2
    _report(checks, "parseval_rms", rel <= 1e-10, f"rel err {rel:.3e} <= 1e-10")

    nl = nonlinear_term(u)
    herm = hermitian_residual(nl)
    _report(checks, "hermitian_symmetry_nonlinear", herm <= 1e-12,
            f"residual {herm:.3e} <= 1e-12")

    inner = _inner(nl, u, 0.0)
    bound = 1e-10 * hs_norm(u, 1.0) ** 3
    _report(checks, "nonlinear_energy_orthogonality", abs(inner) <= bound,
            f"|<D(uxu),u>| {abs(inner):.3e} <= {bound:.3e}")

    # planar data: every 2D triad conserves enstrophy, so the flux does no
    # enstrophy transfer at any amplitude, and H1 falls along the march
    planar = _planar_divfree(100.0, seed, 2.0, grid)
    nl = nonlinear_term(planar)
    transfer = abs(_inner(nl, planar, 1.0))
    bound = 1e-12 * hs_norm(nl, 1.0) * hs_norm(planar, 1.0)
    # store_every=MAX_STEPS: a run that reads only its norms or its last
    # field keeps the fields at t = 0 and at its end, no others
    run = simulate(planar, 20 * 1e-4, 1e-4, store_every=MAX_STEPS)
    rise = float(np.max(np.diff(run.norm_series.h1)))
    _report(checks, "planar_enstrophy_transfer", transfer <= bound and rise <= 0.0,
            f"|<N(u),Lap u>| {transfer:.3e} <= {bound:.3e}; max H1 rise {rise:.3e} <= 0")

    worst = 0.0
    for name in FLOW_NAMES:  # each flux is a pure gradient
        f = named_flow(name, 1.0, grid)
        worst = max(worst, float(np.max(np.abs(nonlinear_term(f).coef))))
    _report(checks, "nonlinearity_annihilated_on_reference_flows", worst <= 1e-12,
            f"max coef {worst:.3e} <= 1e-12")

    two_hops = heat_propagate(heat_propagate(u, 0.3), 0.7)
    one_hop = heat_propagate(u, 1.0)
    d = float(np.max(np.abs(two_hops.coef - one_hop.coef)))
    _report(checks, "semigroup_law", d <= 1e-14, f"max coef diff {d:.3e} <= 1e-14")

    ok = True
    for t in (0.1, 1.0, 3.0):
        lhs = hs_norm(heat_propagate(u, t), 0.0)
        rhs = math.exp(-t) * hs_norm(u, 0.0)
        ok &= lhs <= rhs * (1 + 1e-12)
    pair = _sine_mode(grid, 1)
    eq = abs(hs_norm(heat_propagate(pair, 1.0), 0.0) - math.exp(-1) * hs_norm(pair, 0.0))
    ok &= eq <= 1e-12 * hs_norm(pair, 0.0)
    _report(checks, "heat_decay", ok, f"spectral-gap decay holds; |k|=1 defect {eq:.3e}")

    sup_bound = math.sqrt(0.5) * math.exp(-0.5)
    worst = max(smoothing_ratio(u, 1.0, t)
                for t in np.geomspace(1e-4, 1.0, 60))
    _report(checks, "smoothing_bound", worst <= sup_bound + 1e-6,
            f"max ratio {worst:.6f} <= {sup_bound + 1e-6:.6f}")

    dt = 1e-3
    traj = simulate(named_flow("shear", 1.0, grid), 1.0, dt, store_every=MAX_STEPS)
    s = traj.norm_series
    exact = (1.0 / math.sqrt(2.0)) * np.exp(-s.times)
    rel = float(np.max(np.abs(s.h1 - exact) / exact))
    _report(checks, "shear_regression", rel <= 1e-10, f"max rel err {rel:.3e} <= 1e-10")

    tg = named_flow("taylor_green", 1.0, grid)
    traj_tg = simulate(tg, 1.0, dt, store_every=MAX_STEPS)
    err = hs_norm(traj_tg.fields[-1] - math.exp(-2.0) * tg, 1.0) / (math.exp(-2.0) * hs_norm(tg, 1.0))
    _report(checks, "taylor_green_regression", err <= 1e-8,
            f"rel H1 err {err:.3e} <= 1e-8")

    traj_r = simulate(u, 0.25, dt)
    res = energy_identity_residual(traj_r.norm_series).max_residual
    tol = 1e-6 * max(1.0, traj_r.norm_series.l2[0] ** 2)
    _report(checks, "energy_identity", res <= tol, f"max residual {res:.3e} <= {tol:.3e}")

    v = poincare_violation(traj_r.norm_series)
    _report(checks, "poincare_series", v <= 1e-12, f"max l2-h1 {v:.3e} <= 1e-12")

    K = grid.cutoff
    mom = max(float(np.max(np.abs(t.coef[:, K, K, 0]))) for t in traj_r.fields)
    _report(checks, "momentum_conservation", mom == 0.0, f"|k=0 coef| = {mom:.3e}")

    inc = float(np.max(np.diff(traj_r.norm_series.l2)))
    _report(checks, "l2_monotonicity", inc <= 1e-10 * dt,
            f"max per-step increase {inc:.3e} <= {1e-10 * dt:.1e}")

    dvmax = float(np.max(traj_r.norm_series.div_linf))
    _report(checks, "divergence_along_trajectory", dvmax <= 1e-10,
            f"max div_linf {dvmax:.3e} <= 1e-10")

    small_grid = GridSpec(8)
    u_small = random_divfree(0.5, seed, 2.0, small_grid)
    fixed, rep = picard_solve(u_small, c=0.01, tol=1e-10, max_iter=40)
    worst = math.inf  # unless converged and aligned with the IF-RK4 fields
    if rep.converged:
        # 8 steps per Picard interval, so a field is stored at every node
        sim = simulate(u_small, rep.T_used, rep.T_used / (8 * INTERVALS), store_every=8)
        if len(sim.field_times) == len(fixed.fields) and np.all(
                np.abs(sim.field_times - fixed.nodes) <= 1e-12):
            worst = max(hs_norm(a - b, 1.0) for a, b in zip(fixed.fields, sim.fields))
    _report(checks, "mild_solution_consistency", worst <= 1e-4,
            f"converged={rep.converged}, max node H1 gap {worst:.3e} <= 1e-4")
    return checks


# ---------------------------------------------------------------------------
# command-line interface


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value experiment config file")
    p.add_argument("--seed", type=int, dest="base_seed",
                   help="seed for random data (overrides base_seed)")
    p.add_argument("--out-dir", help="output directory (overrides out_dir)")


def _flag_type(convert, what, ok=lambda value: True):
    """An argparse type: ``convert`` the text and check it with ``ok``, or
    exit 2 saying that the flag must be ``what``."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_positive_int = _flag_type(int, "a positive integer", lambda n: n >= 1)
_seed = _flag_type(int, "a nonnegative integer", lambda n: n >= 0)
_amplitude = _flag_type(float, "a finite nonnegative number", lambda a: 0 <= a < math.inf)
_finite = _flag_type(float, "a finite number", math.isfinite)
_resolution = _flag_type(lambda text: GridSpec(int(text)).n, "an even integer >= 4")
_frequencies = _flag_type(lambda text: [int(v) for v in text.split(",")],
                          "increasing positive integers separated by commas",
                          lambda f: f[0] >= 1 and all(a < b for a, b in zip(f, f[1:])))


def _load_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with every given flag applied over it.

    A flag that overrides a config key has that key as its argparse dest.
    """
    try:
        cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
    over = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
            if getattr(args, f.name, None) is not None}
    return replace(cfg, **over)


def _initial_field(args, cfg: ExperimentConfig) -> SpectralField:
    """The datum of ``--flow``, each amplitude flag 1 unless given; exits 2
    on the amplitude flag that flow does not read."""
    if args.flow == "random":
        if args.amplitude is not None:
            args.parser.error("argument --amplitude: only the named flows read it; "
                              "random data take --A")
        return random_divfree(1.0 if args.A is None else args.A,
                              cfg.base_seed, cfg.slope, cfg.grid())
    if args.A is not None:
        args.parser.error(f"argument --A: only --flow random reads it; "
                          f"{args.flow} takes --amplitude")
    return named_flow(args.flow, 1.0 if args.amplitude is None else args.amplitude,
                      cfg.grid())


def _add_field_flags(p: argparse.ArgumentParser):
    p.add_argument("--flow", choices=FLOW_NAMES + ("random",), default="random")
    p.add_argument("--amplitude", type=_finite,
                   help="amplitude for named flows (default 1)")
    p.add_argument("--A", type=_amplitude,
                   help="target H1 norm for random data (default 1)")
    p.add_argument("--N", type=int, dest="grid_n", help="grid resolution (overrides grid_n)")
    p.set_defaults(parser=p)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    u0 = _initial_field(args, cfg)
    status = 0
    try:
        traj = simulate(u0, cfg.horizon, cfg.dt, cfg.store_every)
    except BlowupError as exc:
        print(f"blowup: {exc}", file=sys.stderr)
        traj = exc.trajectory
        status = 3
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = ["u_initial.nsf1", "norms.csv"]
    save_nsf1(u0, out / "u_initial.nsf1")
    norms_to_csv(traj.norm_series, out / "norms.csv")
    # snapshot times get 6 decimals, or more when snapshots lie closer than
    # 1e-5 apart, so consecutive names differ by at least 10 in the last digit
    digits = 6
    while cfg.store_every * cfg.dt * (1 + 1e-9) < 10.0 ** (1 - digits):
        digits += 1
    for ft, f in zip(traj.field_times[1:-1], traj.fields[1:-1]):
        name = f"snapshot_t{ft:.{digits}f}.nsf1"
        save_nsf1(f, out / name)
        files.append(name)
    save_nsf1(traj.fields[-1], out / "u_final.nsf1")
    files.append("u_final.nsf1")
    write_manifest(out, cfg.config_hash(), [cfg.base_seed], files)
    print(f"simulated to t={traj.norm_series.times[-1]:.6g}; "
          f"final H1 {traj.norm_series.h1[-1]:.6g}")
    return status


def _cmd_picard(args) -> int:
    cfg = _load_config(args)
    u0 = _initial_field(args, cfg)
    _, report = picard_solve(u0, c=cfg.c, tol=cfg.picard_tol, max_iter=args.max_iter)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.to_json(out / "picard.json")
    write_manifest(out, cfg.config_hash(), [cfg.base_seed], ["picard.json"])
    print(f"picard: converged={report.converged} iterates={report.iterate_count} "
          f"T={report.T_used:.6g} c={report.c_used:.6g}")
    return 0


def _cmd_verify(args) -> int:
    kw = {} if args.seed is None else {"seed": args.seed}
    checks = run_verify(n=args.N, **kw)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    summary = estimate_F(cfg, threads=args.threads)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = ["summary.json"]
    summary.to_json(out / "summary.json")
    for j, a in enumerate(summary.a_values):
        name = ensemble_csv_name(a)
        with open(out / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("sample", "seed", "sup_h1", "argmax_time", "censored"))
            for rec in summary.samples:
                if rec.a_index != j:
                    continue
                writer.writerow((
                    rec.sample, rec.seed,
                    f"{rec.sup_h1:.17g}", f"{rec.argmax_time:.17g}",
                    int(rec.censored),
                ))
        files.append(name)
    seeds = [rec.seed for rec in summary.samples]
    write_manifest(out, cfg.config_hash(), seeds, files)
    shown = ", ".join(
        "inf" if math.isinf(v) else f"{v:.6g}" for v in summary.f_hat
    )
    print(f"F_hat over A={list(summary.a_values)}: [{shown}] "
          f"(censored {sum(summary.censored)})")
    return 0


def _cmd_compactness(args) -> int:
    cfg = _load_config(args)
    u0 = _initial_field(args, cfg)
    K, T = cfg.grid().cutoff, _compactness_horizon(u0, cfg.c)
    freqs = args.freqs or [2**p for p in range(1, K.bit_length())] or [1]
    if freqs[-1] > K:  # argparse's usage error, exit code 2
        args.parser.error(f"argument --freqs: must not exceed the cutoff K={K}")
    eps_window = T / 2 if args.eps_window is None else args.eps_window
    if not 0 <= eps_window < T:
        args.parser.error(f"argument --eps-window: must lie in [0, T) with T={T:.6g}")
    report = compactness_experiment(u0, freqs, eps_window, cfg.c, dt=cfg.dt)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.to_json(out / "compactness.json")
    write_manifest(out, cfg.config_hash(), [cfg.base_seed], ["compactness.json"])
    print("distances:", " ".join(f"{d:.6g}" for d in report.distances))
    return 0


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mildns",
        description="Pseudo-spectral Navier-Stokes on the periodic 3-torus: "
                    "simulation, fixed-point solves, invariant verification, "
                    "and norm-growth ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trajectory; write NSF1 + CSV")
    _common_flags(p_sim)
    _add_field_flags(p_sim)
    p_sim.add_argument("--T", type=float, dest="horizon", help="horizon (overrides horizon)")
    p_sim.add_argument("--dt", type=float, help="time step (overrides dt)")
    p_sim.add_argument("--store-every", type=int, dest="store_every",
                       help="also write intermediate snapshots every this many steps "
                            "(overrides store_every)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_pic = sub.add_parser("picard", help="fixed-point solve; write JSON report")
    _common_flags(p_pic)
    _add_field_flags(p_pic)
    p_pic.add_argument("--c", type=float, help="local horizon constant (overrides c)")
    p_pic.add_argument("--tol", type=float, dest="picard_tol",
                       help="stopping tolerance (overrides picard_tol)")
    p_pic.add_argument("--max-iter", type=_positive_int, default=40, dest="max_iter")
    p_pic.set_defaults(func=_cmd_picard)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--seed", type=_seed, help="seed for the suite's random field")
    p_ver.add_argument("--N", type=_resolution, default=16,
                       help="grid resolution for the suite")
    p_ver.set_defaults(func=_cmd_verify)

    p_ens = sub.add_parser("ensemble", help="estimate the growth envelope F_hat(A)")
    _common_flags(p_ens)
    p_ens.add_argument("--threads", type=_positive_int, default=1,
                       help="worker processes that run the samples")
    p_ens.set_defaults(func=_cmd_ensemble)

    p_cmp = sub.add_parser("compactness", help="perturbation-convergence experiment")
    _common_flags(p_cmp)
    _add_field_flags(p_cmp)
    p_cmp.add_argument("--freqs", type=_frequencies,
                       help="comma list of frequencies; default the powers of two "
                            "up to the cutoff K (2,4,8 at N=32), or 1 when K = 1")
    p_cmp.add_argument("--eps-window", type=float, dest="eps_window",
                       help="start of the window the distances are taken over; "
                            "default half the compactness horizon")
    p_cmp.add_argument("--c", type=float, help="local horizon constant (overrides c)")
    p_cmp.add_argument("--dt", type=float, help="time step (overrides dt)")
    p_cmp.set_defaults(func=_cmd_compactness)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included: bad input, nothing written
        print(f"mildns {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except BlowupError as exc:
        print(f"blowup: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
