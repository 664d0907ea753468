"""Span tracing of the five ``mildns`` layers from outside the package.

The tracer swaps each traced function for a timing wrapper in every
``mildns`` module namespace that holds it, which is where callers look it up
(``from .spectral_field import nonlinear_term`` binds the name in the
importing module too).  ``spectral_field._fft``, the ``scipy.fft`` module the
transforms go through, is swapped for a proxy whose ``rfftn``/``irfftn`` are
wrapped.  Nothing under ``src/`` changes, and leaving the ``installed()``
block puts every original object back.

A span is (id, parent id, job id, name, start, end, thread, payload).  Spans
are kept in memory and only recorded while a job is open, so checks run
between jobs leave no trace.  A span opened on a worker thread with no open
span of its own is parented to the innermost span open on the job's thread.
"""

import contextlib
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import scipy.fft

LAYERS = {
    "spectral_field": ("nonlinear_term", "tensor_product_coef", "hs_norm",
                       "divergence_linf", "random_divfree", "save_nsf1"),
    "semigroup_flow": ("simulate", "pair_distance", "norms_to_csv"),
    "picard_wellposedness": ("picard_solve", "heat_trajectory", "phi_map", "xt_norm"),
    "apriori_diagnostics": ("compactness_experiment",),
    "explorer_cli": ("cli_main", "estimate_F"),
}
FFT_NAMES = ("rfftn", "irfftn")
# The numerical work every workload ends in.  span_coverage is the share of
# job wall time inside these spans: work moved out of the traced process
# (a process pool, say) leaves no spans behind, so it shows as lost coverage
# even where a parent span such as estimate_F still covers the wait.
LEAF_NAMES = LAYERS["spectral_field"]


def _nsf1_bytes(args, result):
    return 16 + args[0].coef.nbytes


def _fft_bytes(args, result):
    # computed from array sizes, not measured traffic
    return args[0].nbytes + result.nbytes


def _picard_iterates(args, result):
    return result[1].iterate_count


PAYLOADS = {"save_nsf1": _nsf1_bytes, "picard_solve": _picard_iterates,
            "rfftn": _fft_bytes, "irfftn": _fft_bytes}


class Tracer:
    """Collects spans for the jobs run inside ``installed()``."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job = None
        self._job_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        payload = PAYLOADS.get(name)

        def traced(*args, **kwargs):
            job = self._job
            if job is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._job_stack[-1]
            sid = next(self._ids)
            stack.append(sid)
            result, done = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = payload(args, result) if payload and done else 0
                self.spans.append((sid, parent, job, name, t0, t1,
                                   threading.get_ident(), extra))

        return traced

    @contextlib.contextmanager
    def installed(self, mildns):
        """Swap in the wrappers for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mildns" or n.startswith("mildns."))]
        wrappers = {}      # keyed by id: module attributes need not be hashable
        for layer, names in LAYERS.items():
            mod = getattr(mildns, layer)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    wrappers[id(fn)] = self._wrap(name, fn)
        proxy = _ModuleProxy(scipy.fft, {n: self._wrap(n, getattr(scipy.fft, n))
                                         for n in FFT_NAMES})
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is scipy.fft:
                    replacement = proxy
                elif id(value) in wrappers:
                    replacement = wrappers[id(value)]
                else:
                    continue
                setattr(mod, attr, replacement)
                undo.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in reversed(undo):
                setattr(mod, attr, value)

    @contextlib.contextmanager
    def job(self, job_id):
        """Open the root span of one job on the calling thread."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        self._job, self._job_stack = job_id, stack
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._job = self._job_stack = None
            self.spans.append((sid, 0, job_id, "job", t0, t1, threading.get_ident(), 0))

    def write(self, path):
        """Write all spans as gzipped JSON lines."""
        keys = ("id", "parent", "job", "name", "start", "end", "thread", "payload")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _ModuleProxy:
    """Stands in for a module: wrapped names first, then the real module."""

    def __init__(self, module, wrapped):
        self._module = module
        vars(self).update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _union_length(intervals):
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def job_profiles(spans):
    """Per-job aggregates: inclusive and self seconds, calls and payloads per
    name, and ``coverage``, the share of wall time inside LEAF_NAMES spans.

    Self time is a span's duration minus the union of its children's
    intervals, so children on parallel worker threads are not double counted.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    profiles = {}
    for s in spans:
        prof = profiles.setdefault(s[2], {
            "wall": 0.0, "calls": defaultdict(int), "incl": defaultdict(float),
            "self": defaultdict(float), "payload": defaultdict(float),
            "under": defaultdict(lambda: defaultdict(float)), "leaf": [],
        })
        dur = s[5] - s[4]
        self_t = dur - _union_length([(c[4], c[5]) for c in children[s[0]]])
        name = s[3]
        if name == "job":
            prof["wall"] = dur
            continue
        if name in LEAF_NAMES:
            prof["leaf"].append((s[4], s[5]))
        prof["calls"][name] += 1
        prof["incl"][name] += dur
        prof["self"][name] += self_t
        prof["payload"][name] += s[7]
        # which traced ancestors this span sits under (for per-layer splits)
        seen = set()
        p = by_id.get(s[1])
        while p is not None and p[3] != "job":
            if p[3] not in seen:
                seen.add(p[3])
                prof["under"][p[3]][name] += 1
                prof["under"][p[3]][name + ":s"] += dur
            p = by_id.get(p[1])
    for prof in profiles.values():
        prof["coverage"] = _union_length(prof.pop("leaf")) / prof["wall"]
    return profiles
