"""mildns benchmark: four closed-loop workloads through the public CLI entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The benchmark uses the ``src/`` of the checkout it sits in, and exits
non-zero without a result if that is missing.

``--workload all`` runs the four workloads one after another, each in a
process of its own, and its last line maps each workload name to that
workload's result object.

``--trace 0`` measures the end-to-end metrics: jobs back to back in this
process for ``--seconds``, with the calibration kernel timed between jobs and
the program's set-up time measured in fresh forks spread over the run (see
``ProbeServer``).  ``--trace 1`` measures the
per-layer metrics: every job runs untraced and then traced, with span
wrappers swapped into the ``mildns`` modules for the traced run only.

Every job's outputs are checked; a job that raises, exits non-zero or fails
its check counts as failed.  Job and set-up times are reference seconds (see
``calib.py``); raw seconds appear as ``raw_job_p50_s`` in the traced run.
The last line of standard output of a single-workload run is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table and the environment.  The full record,
and for traced runs the spans, are written under ``.perfbench/results/`` in
the checkout.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calib import REFERENCE_S, Kernel  # noqa: E402
from spans import Tracer, job_profiles  # noqa: E402
from workloads import CYCLE, ROOT, WORKLOADS, CheckFailed, import_program  # noqa: E402

SETUP_PROBES = 16
PROBE_TIMEOUT_S = 120
WORKDIR = ROOT / ".perfbench"


@dataclass
class JobResult:
    index: int
    units: float
    raw_s: float
    ok: bool
    detail: str = ""
    facts: dict = field(default_factory=dict)
    factor: float = math.nan      # reference seconds per raw second

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.factor


class Runner:
    """Runs one workload's jobs in this process, checks them, times the kernel."""

    def __init__(self, mildns, workload, scratch: Path):
        self.mildns = mildns
        self.workload = workload
        self.scratch = scratch
        self.kernel = Kernel()
        self.kernel_s = []
        self._count = 0

    def run_job(self, job, tracer=None, capture=False) -> JobResult:
        """Run one job; with ``capture`` its output files land in ``facts``."""
        self._count += 1
        workdir = self.scratch / f"job{self._count}"
        workdir.mkdir()
        res = JobResult(job.index, job.units, math.nan, False)
        try:
            argv = job.materialize(workdir)
            out, err = io.StringIO(), io.StringIO()
            span = tracer.job(job.index) if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                t0 = time.perf_counter()
                code = self.mildns.cli_main(argv)
                res.raw_s = time.perf_counter() - t0
            if code != 0:
                res.detail = f"exit code {code}: {err.getvalue()[-300:]}"
                return res
            res.facts = self.workload.check(job, workdir / "out", self.mildns)
            if capture:
                res.facts["files"] = {p.name: p.read_bytes()
                                      for p in sorted((workdir / "out").iterdir())}
            res.ok = True
        except CheckFailed as exc:
            res.detail = f"check failed: {exc}"
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            res.detail = traceback.format_exc(limit=4)[-600:]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return res

    def calibrate(self) -> float:
        k = self.kernel.measure()
        self.kernel_s.append(k)
        return k


def calibrated(runner, step, between=lambda: False):
    """Closed loop: calls ``step()`` (which runs one or more jobs and
    returns their results) between kernel timings and sets each result's
    factor from the kernel times on both sides.  ``between()`` runs after a
    step's closing kernel timing; when it ran something it returns True and
    the kernel is timed again before the next step."""
    before = runner.calibrate()
    while True:
        results = step()
        if results is None:
            return
        after = runner.calibrate()
        for r in results:
            r.factor = REFERENCE_S / (0.5 * (before + after))
        before = runner.calibrate() if between() else after


def tail_stat(values):
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, sample count).  With ten or fewer samples no
    such percentile exists; the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    idx = n - 11
    return xs[idx], math.floor(100 * (idx + 1) / n), n


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


class ProbeFailed(Exception):
    """The set-up probe server stopped or sent no reply."""


class ProbeServer:
    """probe.py running beside the jobs: each ``probe()`` times one fresh
    fork of the program, ``import mildns`` plus the cold probe job minus the
    same job warm, and returns it in reference seconds.

    Each probe is calibrated by the kernel time the server measures just
    before it: import times follow the machine's speed as job times do,
    drifting by a quarter within a minute.
    """

    def __init__(self, workload_name, scratch):
        (scratch / "probes").mkdir()
        self._err = open(scratch / "probes.err", "w+")
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload_name, str(scratch / "probes")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err, text=True,
            cwd=str(ROOT))

    def __enter__(self):
        self._reply()           # "ready": numpy and scipy are imported
        return self

    def __exit__(self, *exc):
        with contextlib.suppress(OSError):
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._err.close()

    def _reply(self):
        if select.select([self._proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            line = self._proc.stdout.readline()
            if line:
                return line
        self._proc.kill()
        self._proc.wait()
        self._err.seek(0)
        raise ProbeFailed(f"set-up probe server stopped: {self._err.read()[-300:]}")

    def probe(self) -> float:
        try:
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
        except OSError:
            pass                # the server is gone; _reply reports it
        rec = json.loads(self._reply())
        return (rec["import_s"] + rec["cold_s"] - rec["warm_s"]) * REFERENCE_S / rec["kernel_s"]


def end_to_end(runner, args):
    """Jobs back to back for ``--seconds`` of job time, with set-up probes
    spread evenly over it; time spent in probes does not count."""
    workload = runner.workload
    probes = 1 if args.tiny else SETUP_PROBES
    min_jobs = 1 if args.tiny else 3
    jobs = workload.jobs(args.seed)
    results, setup, probe_failures = [], [], []
    with ProbeServer(workload.name, runner.scratch) as server:
        warm = runner.run_job(next(jobs))          # first-call costs stay out of the loop
        start = time.perf_counter()
        paused = 0.0

        def step():
            done = time.perf_counter() - start - paused >= args.seconds
            if results and len(results) >= min_jobs and done:
                return None
            results.append(runner.run_job(next(jobs)))
            return results[-1:]

        def between():
            nonlocal paused
            t0 = time.perf_counter()
            elapsed = t0 - start - paused
            due = probes if elapsed >= args.seconds else 1 + int(elapsed * probes / args.seconds)
            ran = len(setup) < due
            while len(setup) < due:
                setup.append(server.probe())
            paused += time.perf_counter() - t0
            return ran

        try:
            calibrated(runner, step, between)
            while len(setup) < probes:
                setup.append(server.probe())
        except ProbeFailed as exc:
            probe_failures.append(str(exc))
    attempted = len(results) + 1 + probes
    failures = [r.detail for r in [warm] + results if not r.ok] + probe_failures
    good = [r for r in results if r.ok]
    cal = [r.cal_s for r in good]
    p50 = statistics.median(cal) if cal else math.nan
    tail, pct, n = tail_stat(cal) if cal else (math.nan, 0, 0)
    metrics = {
        "setup_s": (statistics.median(setup) if setup else math.nan, "s"),
        "throughput": (sum(r.units for r in good) / sum(cal) if cal else math.nan, "1/s"),
        "job_p50_s": (p50, "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_rate": ((attempted - len(failures)) / attempted, "share"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh forks between jobs",
        "throughput": f"{workload.unit} per reference second",
        "job_p50_s": f"median of {n} jobs",
        "job_tail_s": f"p{pct} of {n} jobs (ten or more above it)",
        "pass_rate": f"{attempted - len(failures)} of {attempted} jobs passed",
    }
    record = {
        "jobs": n, "tail_percentile": pct,
        "raw_job_p50_s": statistics.median([r.raw_s for r in good]) if good else None,
        "raw_job_spread": quartile_spread([r.raw_s for r in good]),
        "cal_job_spread": quartile_spread(cal),
        "setup_samples_s": setup,
        "job_cal_s": cal,
        "failures": failures,
    }
    return metrics, notes, record, attempted, failures, None


def per_layer(runner, args):
    """Each job untraced, then traced; whole input cycles only."""
    workload = runner.workload
    tracer = Tracer()
    jobs = workload.jobs(args.seed)
    warm = runner.run_job(next(jobs))
    rows, extra, scaling = [], [], []
    start = cycle_start = time.perf_counter()
    twin_s = 0.0

    def step():
        nonlocal cycle_start, twin_s
        if rows and not len(rows) % CYCLE:
            now = time.perf_counter()
            cycle_s = now - cycle_start - twin_s
            cycle_start, twin_s = now, 0.0
            # stop before a cycle that would end past the time budget
            if args.tiny or now + cycle_s > start + args.seconds:
                return None
        job = next(jobs)
        twin = workload.single_thread_twin(job) if len(rows) < CYCLE else None
        plain = runner.run_job(job, capture=twin is not None)
        with tracer.installed(runner.mildns):
            traced = runner.run_job(job, tracer)
        rows.append((plain, traced))
        if twin is None:
            return [plain, traced]
        t0 = time.perf_counter()
        one = runner.run_job(twin, capture=True)
        twin_s += time.perf_counter() - t0
        extra.append((plain, one))
        return [plain, traced, one]

    calibrated(runner, step)
    for plain, one in extra:
        if plain.ok and one.ok:
            if one.facts.pop("files") != plain.facts.pop("files"):
                one.ok, one.detail = False, "outputs differ between --threads 1 and 2"
            else:
                scaling.append(one.cal_s / (2.0 * plain.cal_s))
    results = [warm] + [r for row in rows for r in row] + [one for _, one in extra]
    attempted = len(results)
    failures = [r.detail for r in results if not r.ok]
    metrics = layer_metrics(job_profiles(tracer.spans), rows, workload, scaling)
    plain_ok = [p for p, _ in rows if p.ok]
    traced_ok = [t for _, t in rows if t.ok]
    metrics.update({
        "calib_ms": (1e3 * statistics.median(runner.kernel_s), "ms"),
        "raw_job_p50_s": (statistics.median([p.raw_s for p in plain_ok]) if plain_ok else math.nan, "s"),
        "trace_overhead": (statistics.median([t.cal_s for t in traced_ok])
                           / statistics.median([p.cal_s for p in plain_ok])
                           if plain_ok and traced_ok else math.nan, "ratio"),
    })
    notes = {
        "nl_calls": f"per job: mean over {len(rows)} traced jobs",
        "fft_bytes_computed": "computed from array sizes, not measured",
        "io_bytes": "computed from array sizes, not measured",
        "scaling_eff_2w": f"median over {len(scaling)} jobs" if scaling else "not applicable",
    }
    record = {"traced_jobs": len(rows), "spans": len(tracer.spans), "failures": failures}
    return metrics, notes, record, attempted, failures, tracer


def layer_metrics(profiles, rows, workload, scaling):
    """Per-layer metrics as per-job means over the traced jobs.

    Times are reference seconds per job.  Layers that some workloads never
    enter are reported as shares of job wall time, so a workload that skips
    the layer reads 0 rather than a time.
    """
    per_job = []
    for _, traced in rows:
        p = profiles.get(traced.index)
        if not traced.ok or p is None:
            continue
        f, wall = traced.factor, p["wall"]
        calls, incl, self_, pay = p["calls"], p["incl"], p["self"], p["payload"]
        under = p["under"]
        nl_picard = under.get("picard_solve", {}).get("nonlinear_term", 0)
        per_job.append({
            "nl_calls": calls["nonlinear_term"],
            "nl_s": incl["nonlinear_term"] * f,
            "fft_s": (incl["rfftn"] + incl["irfftn"]) * f,
            "glue_s": self_["tensor_product_coef"] * f,
            "flux_s": self_["nonlinear_term"] * f,
            "norm_calls": calls["hs_norm"] + calls["divergence_linf"],
            "norm_s": (incl["hs_norm"] + incl["divergence_linf"]) * f,
            "fft_bytes_computed": pay["rfftn"] + pay["irfftn"],
            "random_divfree_share": incl["random_divfree"] / wall,
            "io_bytes": pay["save_nsf1"],
            "io_share": incl["save_nsf1"] / wall,
            # IF-RK4 takes four nonlinear evaluations per step
            "state_steps": (calls["nonlinear_term"] - nl_picard) / 4.0,
            "steps_in_compactness": under.get("compactness_experiment", {}).get("nonlinear_term", 0) / 4.0,
            "march_self_share": (self_["simulate"] + self_["pair_distance"]) / wall,
            "csv_share": incl["norms_to_csv"] / wall,
            "iterates": pay["picard_solve"],
            "solves": calls["picard_solve"],
            "heat_trajectories": calls["heat_trajectory"],
            "phi_calls": calls["phi_map"],
            "nl_picard": nl_picard,
            "phi_self_share": self_["phi_map"] / wall,
            "xt_norm_share": incl["xt_norm"] / wall,
            "compactness_self_share": self_["compactness_experiment"] / wall,
            "orchestration_s": self_["cli_main"] * f,
            "estimate_s": incl["estimate_F"],
            "sim_in_estimate_s": under.get("estimate_F", {}).get("simulate:s", 0.0),
            "span_coverage": p["coverage"],
            "censored_share": traced.facts.get("censored", 0) / traced.facts.get("samples", 1),
        })
    total = {k: sum(j[k] for j in per_job) for k in per_job[0]} if per_job else {}
    g = lambda k: total.get(k, 0.0) / max(len(per_job), 1)  # noqa: E731  (mean per job)
    ratio = lambda a, b: total[a] / total[b] if total.get(b) else 0.0  # noqa: E731
    freqs = len(getattr(workload, "freqs", ()))
    return {
        "nl_calls": (g("nl_calls"), "count"),
        "nl_ms": (1e3 * ratio("nl_s", "nl_calls"), "ms"),
        "fft_s": (g("fft_s"), "s"),
        "glue_s": (g("glue_s"), "s"),
        "flux_s": (g("flux_s"), "s"),
        "norm_calls": (g("norm_calls"), "count"),
        "norm_s": (g("norm_s"), "s"),
        "fft_bytes_computed": (g("fft_bytes_computed"), "bytes"),
        "random_divfree_share": (g("random_divfree_share"), "share"),
        "io_bytes": (g("io_bytes"), "bytes"),
        "io_share": (g("io_share"), "share"),
        "state_steps": (g("state_steps"), "count"),
        "march_self_share": (g("march_self_share"), "share"),
        "csv_share": (g("csv_share"), "share"),
        "iterates": (ratio("iterates", "solves"), "count"),
        "attempts_per_solve": (ratio("heat_trajectories", "solves"), "ratio"),
        "phi_self_share": (g("phi_self_share"), "share"),
        "xt_norm_share": (g("xt_norm_share"), "share"),
        "nl_per_iterate": (ratio("nl_picard", "phi_calls"), "count"),
        "compactness_self_share": (g("compactness_self_share"), "share"),
        "steps_per_freq": (g("steps_in_compactness") / freqs if freqs else 0.0, "count"),
        "orchestration_s": (g("orchestration_s"), "s"),
        "worker_util": (ratio("sim_in_estimate_s", "estimate_s") / 2.0, "ratio"),
        "scaling_eff_2w": (statistics.median(scaling) if scaling else 0.0, "ratio"),
        "censored_share": (g("censored_share"), "share"),
        "span_coverage": (g("span_coverage"), "share"),
    }


def environment(kernel_s):
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level").strip(), read(index / "type").strip()
        if kind in ("Unified", "Data"):
            caches[f"l{level}"] = read(index / "size").strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calib_reference_s": REFERENCE_S,
        "calib_median_s": statistics.median(kernel_s) if kernel_s else None,
        "calib_spread": quartile_spread(kernel_s),
        "calib_samples": len(kernel_s),
    }


def run_one(mildns, name, args):
    """Run one workload; returns the result object the last line carries."""
    workload = WORKLOADS[name]()
    WORKDIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    tracer = None
    try:
        runner = Runner(mildns, workload, scratch)
        measure = per_layer if args.trace else end_to_end
        metrics, notes, record, attempted, failures, tracer = measure(runner, args)
        env = environment(runner.kernel_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct = not failures and all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    mode = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"{name}  seed {args.seed}  {mode}  jobs {attempted}  failed {len(failures)}")
    for k, (v, u) in metrics.items():
        print(f"  {k:24s} {v:14.6g} {u:8s} {notes.get(k, '')}")
    for detail in failures[:5]:
        print(f"  FAILED: {detail.strip().splitlines()[-1] if detail.strip() else detail}")
    print("env " + json.dumps(env, sort_keys=True))
    results = WORKDIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{int(args.trace)}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": name, "seed": args.seed, "seconds": args.seconds,
         "trace": int(args.trace), "result": result, "notes": notes, "record": record,
         "env": env}, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl.gz")
    return result


def run_all(args):
    """Each workload in its own process, so that peak RSS and warm caches
    belong to that workload; returns the exit code and the results by name."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
                              timeout=900 + 2 * args.seconds)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    return code, results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one set-up probe and the fewest jobs (self-test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        code, results = run_all(args)
        print(json.dumps(results))
        return code
    print(json.dumps(run_one(import_program(), args.workload, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
