"""The four benchmark workloads: job inputs, output checks and work units.

Every job is one ``mildns`` command line run through the public
``mildns.cli_main`` entry point.  A workload turns the workload seed into an
endless, reproducible sequence of jobs; ``mildns`` only ever sees the
generated command lines and config files.

The jobs avoid three known CLI defects without relying on them:

* the config key ``out_dir`` is ignored, so every job passes ``--out-dir``;
* ``ensemble --seed`` is ignored, so the ensemble seed goes into ``base_seed``;
* ``grid_k =`` with an empty value exits 2, so no config writes ``grid_k``.
"""

import csv
import json
import math
import random
import struct
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

# Jobs of every workload cycle through three input classes (amplitudes, or
# three independent draws), so averages over whole cycles repeat exactly.
CYCLE = 3


@dataclass
class Job:
    """One command line plus what the output check needs to know."""

    index: int
    argv: list
    units: float
    params: dict = field(default_factory=dict)
    config_text: str | None = None

    def materialize(self, out_dir: Path) -> list:
        """Write the job's config file (if any) and return the full argv."""
        argv = list(self.argv) + ["--out-dir", str(out_dir / "out")]
        if self.config_text is not None:
            cfg = out_dir / "job.cfg"
            cfg.write_text(self.config_text)
            argv += ["--config", str(cfg)]
        return argv


def import_program():
    """Import ``mildns`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "mildns" / "__init__.py").is_file():
        raise SystemExit(f"error: no mildns package under {src}")
    sys.path.insert(0, str(src))
    import mildns
    if Path(mildns.__file__).resolve().parent != (src / "mildns").resolve():
        raise SystemExit(f"error: imported mildns from {mildns.__file__}, not {src}")
    return mildns


class CheckFailed(Exception):
    """A job's outputs are wrong; the message says which check failed."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _read_norms_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    _require(header == ["t", "l2", "h1", "enstrophy", "div_linf"], f"bad CSV header {header}")
    cols = {name: [float(r[i]) for r in body] for i, name in enumerate(header)}
    _require(len(body) >= 2, "norm series has fewer than two rows")
    _require(all(math.isfinite(v) for col in cols.values() for v in col),
             "norm series has non-finite values")
    return cols


def _check_nsf1_header(path: Path, n: int, k: int):
    raw = path.read_bytes()
    _require(raw[:4] == b"NSF1", f"{path.name}: bad magic")
    _require(struct.unpack("<III", raw[4:16]) == (n, k, 3), f"{path.name}: bad header")
    m = 2 * k + 1
    _require(len(raw) == 16 + 16 * 3 * m**3, f"{path.name}: wrong size")


def galerkin_bound(h1_series, l2_initial: float, cutoff: int) -> bool:
    """sup_t |u|_H1 <= sqrt(3) K |u0|_L2: every retained mode has |k|^2 <= 3K^2
    and the dealiased, projected flux does no work, so L2 never grows."""
    return max(h1_series) <= math.sqrt(3.0) * cutoff * l2_initial * (1.0 + 1e-12)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Workload:
    """Base class: a named job generator with a check per job."""

    name = ""
    unit = ""          # what one work unit is, for the printed table

    def jobs(self, seed: int):
        """Endless reproducible job sequence for a workload seed."""
        rng = random.Random(f"{self.name}:{seed}")
        index = 0
        while True:
            yield self.make_job(index, rng)
            index += 1

    def make_job(self, index: int, rng: random.Random) -> Job:
        raise NotImplementedError

    def probe_job(self) -> Job:
        """A one-step job with the same grid and flags, for set-up probes: it
        takes every first call the real job takes, at little cost, so that
        subtracting its warm time leaves little noise."""
        raise NotImplementedError

    def single_thread_twin(self, job: Job):
        """The same job on one worker thread, for workloads that use threads."""
        return None

    def check(self, job: Job, out: Path, mildns) -> dict:
        """Raise CheckFailed if the outputs are wrong; return facts for tracing."""
        raise NotImplementedError


class Ensemble16(Workload):
    """F_hat(A) ensembles at N=16 with two worker threads, one amplitude per job.

    The amplitudes and the steep spectrum (slope 6) put the flow where the
    nonlinear term outgrows viscosity at first: in every reference job the
    largest H1 norm comes after t=0, so F_hat is set by the march, not by the
    initial field alone.
    """

    name = "ensemble16"
    unit = "samples"
    amplitudes = (16.0, 20.0, 24.0)
    samples = 8
    horizon = 0.25
    dt = 0.01
    slope = 6.0
    threads = 2

    def __init__(self):
        self.refs = _load_references()["ensemble16"]
        self.base_seeds = sorted({int(key.split(":")[0]) for key in self.refs})

    def config(self, base_seed: int, a: float, samples: int, horizon: float) -> str:
        return (
            "grid_n = 16\n"
            f"dt = {self.dt!r}\n"
            f"horizon = {horizon!r}\n"
            f"a_list = {a!r}\n"
            f"samples_per_a = {samples}\n"
            f"base_seed = {base_seed}\n"
            f"slope = {self.slope!r}\n"
        )

    def make_job(self, index, rng):
        a = self.amplitudes[index % CYCLE]
        base_seed = rng.choice(self.base_seeds)
        return Job(
            index,
            ["ensemble", "--threads", str(self.threads)],
            self.samples,
            {"a": a, "base_seed": base_seed},
            self.config(base_seed, a, self.samples, self.horizon),
        )

    def single_thread_twin(self, job):
        return replace(job, argv=["ensemble", "--threads", "1"])

    def probe_job(self):
        return Job(0, ["ensemble", "--threads", str(self.threads)], 2,
                   {}, self.config(self.base_seeds[0], self.amplitudes[0], 2, self.dt))

    def check(self, job, out, mildns):
        """Every sample's sup_h1 and argmax_time match the seed commit's, and
        the summary is their maximum."""
        a, base_seed = job.params["a"], job.params["base_seed"]
        ref = self.refs[f"{base_seed}:{a!r}"]
        with open(out / f"ensemble_A{a:g}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == self.samples, "ensemble CSV has the wrong number of samples")
        grid = mildns.GridSpec(16)
        for i, row in enumerate(rows):
            seed = int(row["seed"])
            _require(seed == base_seed + i and row["censored"] == "0",
                     f"sample {i}: seed {seed}, censored {row['censored']}")
            sup_h1, t_max = float(row["sup_h1"]), float(row["argmax_time"])
            _require(_close(sup_h1, ref["sup_h1"][i], 1e-9)
                     and abs(t_max - ref["argmax_time"][i]) <= 1e-9,
                     f"seed {seed}: sup_h1 {sup_h1} at t={t_max}, reference "
                     f"{ref['sup_h1'][i]} at t={ref['argmax_time'][i]}")
            u0 = mildns.random_divfree(a, seed, self.slope, grid)
            _require(galerkin_bound([sup_h1], mildns.hs_norm(u0, 0.0), grid.cutoff),
                     f"seed {seed}: sup_h1 {sup_h1} above the Galerkin bound")
        best = max(range(self.samples), key=lambda i: ref["sup_h1"][i])
        summary = json.loads((out / "summary.json").read_text())
        _require(summary["A"] == [a] and summary["censored"] == [0],
                 f"summary A {summary['A']}, censored {summary['censored']}")
        _require(_close(summary["F_hat"][0], ref["sup_h1"][best], 1e-9)
                 and summary["argmax_seed"] == [base_seed + best],
                 f"F_hat {summary['F_hat']} from seed {summary['argmax_seed']}, reference "
                 f"{ref['sup_h1'][best]} from seed {base_seed + best}")
        return {"censored": 0, "samples": len(rows)}


class Simulate32(Workload):
    """Single random-data runs at N=32 with snapshot writes."""

    name = "simulate32"
    unit = "state-steps"
    steps = 20          # even, for the Simpson check
    dt = 1e-3
    store_every = 5

    def argv(self, seed, steps, store_every):
        return ["simulate", "--flow", "random", "--A", "1", "--N", "32",
                "--dt", repr(self.dt), "--T", repr(steps * self.dt),
                "--seed", str(seed), "--store-every", str(store_every)]

    def make_job(self, index, rng):
        seed = rng.randrange(1, 2**31)
        return Job(index, self.argv(seed, self.steps, self.store_every), self.steps,
                   {"seed": seed, "steps": self.steps, "store_every": self.store_every})

    def probe_job(self):
        return Job(0, self.argv(1, 1, 1), 1, {"seed": 1, "steps": 1, "store_every": 1})

    def check(self, job, out, mildns):
        n, k = 32, 10
        cols = _read_norms_csv(out / "norms.csv")
        steps = job.params["steps"]
        _require(len(cols["t"]) == steps + 1, f"{len(cols['t'])} rows for {steps} steps")
        l2, ens, t = cols["l2"], cols["enstrophy"], cols["t"]
        # d/dt |u|^2 = -2 |grad u|^2, integrated by Simpson's rule over pairs
        # of steps.  At the stiffest retained rate (2 * 3K^2 * dt = 0.6) the
        # trapezoid rule's own error is ~40x this tolerance; Simpson's stays
        # below half of it.
        tol = 1e-6 * l2[0] ** 2
        for i in range(0, steps - 1, 2):
            integral = (t[i + 2] - t[i]) / 6.0 * (ens[i] + 4.0 * ens[i + 1] + ens[i + 2])
            res = abs(l2[i + 2] ** 2 - l2[i] ** 2 + 2.0 * integral)
            _require(res <= tol, f"energy identity residual {res:.3e} > {tol:.3e} at t={t[i + 2]}")
        _require(all(b <= a for a, b in zip(l2, l2[1:])), "L2 rose")
        _require(max(cols["div_linf"]) <= 1e-10, f"div_linf {max(cols['div_linf']):.3e}")
        _require(galerkin_bound(cols["h1"], l2[0], k), "H1 above the Galerkin bound")
        snaps = sorted(out.glob("snapshot_t*.nsf1"))
        _require(len(snaps) == len(range(job.params["store_every"], steps, job.params["store_every"])),
                 f"{len(snaps)} snapshots written")
        for path in snaps + [out / "u_initial.nsf1", out / "u_final.nsf1"]:
            _check_nsf1_header(path, n, k)
        return {}


class Picard16(Workload):
    """Picard fixed-point solves at N=16 on the local horizon T = c A^-4."""

    name = "picard16"
    unit = "solves"
    amplitudes = (0.5, 1.0, 1.5)

    def argv(self, a, seed, max_iter=None):
        argv = ["picard", "--flow", "random", "--N", "16", "--c", "0.01",
                "--A", repr(a), "--seed", str(seed)]
        return argv + (["--max-iter", str(max_iter)] if max_iter else [])

    def make_job(self, index, rng):
        a = self.amplitudes[index % CYCLE]
        seed = rng.randrange(1, 2**31)
        return Job(index, self.argv(a, seed), 1, {"a": a, "seed": seed})

    def probe_job(self):
        return Job(0, self.argv(1.0, 1, max_iter=1), 1, {"probe": True})

    def check(self, job, out, mildns):
        report = json.loads((out / "picard.json").read_text())
        _require(report["converged"] is True, "Picard solve did not converge")
        factors = report["contraction_factors"]
        _require(all(f <= 0.5 for f in factors), f"contraction factor above 0.5: {max(factors)}")
        return {}


class Compactness32(Workload):
    """Perturbation-compactness experiments on shear flow at N=32."""

    name = "compactness32"
    unit = "frequencies"
    freqs = (2, 4, 8)
    dt = 1e-3
    steps = 5

    def __init__(self):
        self.refs = _load_references()["compactness32"]
        self.amplitudes = sorted(float(a) for a in self.refs)

    def argv(self, amplitude, steps, freqs):
        # The horizon is T = c (A + 1)^-4 with A = |shear|_H1 = amplitude / sqrt(2);
        # c is chosen so every amplitude marches the same number of steps.
        h1 = amplitude / math.sqrt(2.0)
        c = steps * self.dt * (h1 + 1.0) ** 4
        return ["compactness", "--flow", "shear", "--N", "32",
                "--amplitude", repr(amplitude), "--freqs", ",".join(map(str, freqs)),
                "--c", repr(c), "--dt", repr(self.dt),
                "--eps-window", repr(0.5 * steps * self.dt)]

    def make_job(self, index, rng):
        amplitude = rng.choice(self.amplitudes)
        return Job(index, self.argv(amplitude, self.steps, self.freqs), len(self.freqs),
                   {"amplitude": amplitude})

    def probe_job(self):
        return Job(0, self.argv(self.amplitudes[0], 1, (2,)), 1, {"probe": True})

    def check(self, job, out, mildns):
        report = json.loads((out / "compactness.json").read_text())
        d = report["distances"]
        _require(report["frequencies"] == list(self.freqs), "frequencies differ")
        _require(all(b < a for a, b in zip(d, d[1:])), f"distances not decreasing: {d}")
        ref = self.refs[repr(job.params["amplitude"])]
        _require(all(_close(x, r, 1e-9) for x, r in zip(d, ref)),
                 f"distances {d} differ from reference {ref}")
        return {}


WORKLOADS = {w.name: w for w in (Ensemble16, Simulate32, Picard16, Compactness32)}
