"""Record the reference outputs the ensemble16 and compactness32 checks compare to.

    python3 perfbench/record_references.py

The committed ``references.json`` was recorded from the seed commit of the
benchmark.  Re-recording on a later commit would make the checks compare that
commit with itself, so only do it when the benchmark itself changes its inputs.
"""

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import REFERENCES, ROOT, Compactness32, Ensemble16, Job, import_program  # noqa: E402

ENSEMBLE_BASE_SEEDS = [10_000 + 1000 * i for i in range(24)]
COMPACTNESS_AMPLITUDES = [0.5 + 0.1 * i for i in range(11)]


def scratch_dir():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".perfbench")


def run(mildns, job: Job, scratch: Path) -> Path:
    with contextlib.redirect_stdout(io.StringIO()):
        code = mildns.cli_main(job.materialize(scratch))
    if code != 0:
        raise SystemExit(f"reference job {job.argv} exited with {code}")
    return scratch / "out"


def main():
    mildns = import_program()
    refs = {"ensemble16": {}, "compactness32": {}}
    ens = Ensemble16.__new__(Ensemble16)      # without loading the file being written
    for base_seed in ENSEMBLE_BASE_SEEDS:
        for a in ens.amplitudes:
            job = Job(0, ["ensemble", "--threads", "1"], ens.samples, {},
                      ens.config(base_seed, a, ens.samples, ens.horizon))
            with scratch_dir() as tmp:
                out = run(mildns, job, Path(tmp))
                with open(out / f"ensemble_A{a:g}.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
            if any(r["censored"] != "0" for r in rows):
                raise SystemExit(f"base_seed {base_seed}, A={a}: a sample was censored")
            sup = [float(r["sup_h1"]) for r in rows]
            t_max = [float(r["argmax_time"]) for r in rows]
            if t_max[sup.index(max(sup))] <= 0.0:
                raise SystemExit(f"base_seed {base_seed}, A={a}: F_hat is the initial H1 norm")
            refs["ensemble16"][f"{base_seed}:{a!r}"] = {"sup_h1": sup, "argmax_time": t_max}
    cmp_ = Compactness32.__new__(Compactness32)
    for amplitude in COMPACTNESS_AMPLITUDES:
        amplitude = round(amplitude, 10)
        job = Job(0, cmp_.argv(amplitude, cmp_.steps, cmp_.freqs), 3)
        with scratch_dir() as tmp:
            out = run(mildns, job, Path(tmp))
            report = json.loads((out / "compactness.json").read_text())
        refs["compactness32"][repr(amplitude)] = report["distances"]
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
