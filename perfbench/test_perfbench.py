"""Self-test of the benchmark harness (not of mildns).

    python3 -m pytest -q perfbench

Runs every workload once in each mode with the fewest jobs, and checks the
harness's own guarantees: the result line matches ``BENCHMARK.json``, the
calibration kernel never imports ``mildns``, the tracer puts every original
function back, and work done outside the traced process lowers coverage.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import tail_stat  # noqa: E402
from spans import Tracer, job_profiles  # noqa: E402
from workloads import WORKLOADS, import_program  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    result = _last_json([sys.executable, str(HERE / "run.py"), "--workload", name,
                         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_all_runs_every_workload():
    results = _last_json([sys.executable, str(HERE / "run.py"), "--workload", "all",
                          "--seed", "1", "--seconds", "0", "--tiny"])
    assert sorted(results) == sorted(WORKLOADS)
    assert all(r["correct"] and r["failed"] == 0 for r in results.values())


def test_calibration_kernel_never_imports_mildns():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import calib; "
            "calib.Kernel().measure(); "
            "print(any(m.split('.')[0] == 'mildns' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tracer_restores_originals_and_links_spans(tmp_path):
    mildns = import_program()
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "mildns"}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    tracer = Tracer()
    argv = ["simulate", "--flow", "random", "--A", "1", "--N", "8", "--dt", "1e-3",
            "--T", "0.002", "--seed", "3", "--out-dir", str(tmp_path)]
    with tracer.installed(mildns):
        assert mildns.cli_main is not before[("mildns", "cli_main")]
        with tracer.job(7), contextlib.redirect_stdout(io.StringIO()):
            assert mildns.cli_main(argv) == 0
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    ids = {s[0] for s in tracer.spans}
    assert all(s[2] == 7 for s in tracer.spans)
    assert all(s[1] in ids for s in tracer.spans if s[3] != "job")
    prof = job_profiles(tracer.spans)[7]
    assert prof["calls"]["nonlinear_term"] == 8          # 2 steps x 4 stages
    assert prof["calls"]["rfftn"] == prof["calls"]["irfftn"] == 8
    assert 0.0 < prof["coverage"] <= 1.0


def test_coverage_drops_when_work_leaves_the_process(tmp_path):
    """A job whose solver runs in another process, behind a parent span that
    waits for it (as a process pool would), reads near-zero coverage."""
    mildns = import_program()
    argv = ["simulate", "--flow", "random", "--A", "1", "--N", "8", "--dt", "1e-3",
            "--T", "0.004", "--seed", "3"]
    code = ("import sys; sys.path.insert(0, 'src'); import mildns; "
            f"sys.exit(mildns.cli_main({argv + ['--out-dir', str(tmp_path / 'sub')]!r}))")
    tracer = Tracer()
    waiting = tracer._wrap("estimate_F", lambda: subprocess.run(
        [sys.executable, "-c", code], capture_output=True, cwd=str(ROOT), check=True))
    with tracer.installed(mildns), contextlib.redirect_stdout(io.StringIO()):
        with tracer.job(1):
            assert mildns.cli_main(argv + ["--out-dir", str(tmp_path / "in")]) == 0
        with tracer.job(2):
            waiting()
    prof = job_profiles(tracer.spans)
    assert prof[1]["coverage"] > 0.3
    assert prof[2]["coverage"] == 0.0 and prof[2]["incl"]["estimate_F"] > 0.9 * prof[2]["wall"]


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_stat(list(range(100))) == (89, 90, 100)
    assert tail_stat(list(range(11))) == (0, 9, 11)
    assert tail_stat([3.0, 1.0]) == (3.0, 100, 2)
