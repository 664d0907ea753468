"""Set-up probe server: fresh copies of the program, forked from one interpreter.

    python3 perfbench/probe.py <workload> <empty work dir>

This interpreter imports numpy, scipy.fft and the benchmark's own modules,
never ``mildns``, and prints ``ready``.  Then, for every line it reads from
standard input, it times the calibration kernel and forks a child.  The child
is a fresh start of the program: it times ``import mildns`` plus the
workload's probe job (cold), then the same job once more (warm), and sends
the times back through a pipe.  The server prints them with the kernel time
as one JSON line, and exits at the end of its input.  run.py asks for probes
between its jobs, so set-up is measured over the same minutes as the jobs.

numpy and scipy.fft are imported before any clock starts: their import takes
~0.45 s, no change to mildns moves it, and on a shared machine it drifted by
50% within half an hour, far more than the ~45 ms that the program's own
imports and first calls cost.  Forking instead of starting an interpreter per
probe saves that import for every probe, so a run can afford many of them.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy  # noqa: F401  (third-party dependencies, untimed)
import scipy.fft  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parent))
from calib import Kernel  # noqa: E402
from workloads import WORKLOADS, import_program  # noqa: E402


def child(job, scratch: Path) -> dict:
    runs = []
    for i in range(2):
        (scratch / str(i)).mkdir()
        runs.append(job.materialize(scratch / str(i)))
    times = []
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        mildns = import_program()
        import_s = time.perf_counter() - t0
        for argv in runs:
            t0 = time.perf_counter()
            if mildns.cli_main(argv) != 0:
                raise RuntimeError(f"probe job {argv} failed")
            times.append(time.perf_counter() - t0)
    return {"import_s": import_s, "cold_s": times[0], "warm_s": times[1]}


def fork_probe(job, scratch: Path) -> dict:
    """Run ``child`` in a forked process and wait for it to end."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            os.write(write_fd, json.dumps(child(job, scratch)).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as fh:
        while chunk := fh.read(65536):
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"set-up probe exited with status {status}")
    return json.loads(b"".join(chunks))


def main():
    name, scratch = sys.argv[1], Path(sys.argv[2])
    job = WORKLOADS[name]().probe_job()
    kernel = Kernel()
    print("ready", flush=True)
    for i, _ in enumerate(sys.stdin):
        kernel_s = kernel.measure()
        (scratch / str(i)).mkdir()
        print(json.dumps(dict(fork_probe(job, scratch / str(i)), kernel_s=kernel_s)), flush=True)


if __name__ == "__main__":
    main()
