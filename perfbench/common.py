"""Helpers shared by the workloads: inputs, timing statistics and result output."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@contextlib.contextmanager
def work_dir(prefix):
    """A scratch directory inside the checkout, removed with its contents on exit."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it


def load_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def program_env():
    """Environment for child interpreters that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def population(name, n_rows, n_attributes, n_classes, separation):
    """A fixed pool of labelled points per dataset stand-in.

    The class structure (cluster centres) depends only on the dataset name,
    so every seed draws from the same problem; the seed picks which rows a
    run trains and predicts on.  Drawing fresh centres per seed would make
    the tree size, and so every timing, vary several-fold between seeds.
    """
    from repro.data.synthetic import ClassificationSpec, make_classification_points

    spec = ClassificationSpec(n_rows, n_attributes, n_classes, class_separation=separation)
    values, labels = make_classification_points(
        spec, np.random.default_rng(zlib.crc32(name.encode()))
    )
    return values, np.asarray(labels)


def draw(pool, n, rng):
    """``n`` distinct rows of a pool, in the order ``rng`` picks them."""
    values, labels = pool
    index = rng.choice(len(values), size=n, replace=False)
    return values[index], labels[index]


def median(values):
    return float(statistics.median(values))


def measure(recorder, prepare, seconds, check, min_repeats=2):
    """Time ``prepare()()`` repeatedly for ``seconds``; return median seconds by mode.

    ``prepare`` builds the call outside the timed region (copies, inputs).
    With a recorder the repeats alternate tracing off and on, so both
    medians come from the same stretch of time; each traced repeat is one
    root span.  Returns ``(medians, roots)``: ``medians`` maps ``False``
    (untraced) and, when tracing, ``True`` to the median time of one
    repeat; ``roots`` are the traced repeats' root spans.
    """
    from spans import ROOT_SPAN

    modes = (False,) if recorder is None else (False, True)
    times = {mode: [] for mode in modes}
    roots = []
    budget_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < budget_end or min(map(len, times.values())) < min_repeats:
        traced = modes[i % len(modes)]
        i += 1
        call = prepare()
        gc.collect()
        root = None
        if traced:
            recorder.enabled = True
            root = recorder.open(ROOT_SPAN)
        started = time.perf_counter()
        output = call()
        times[traced].append(time.perf_counter() - started)
        if root is not None:
            recorder.close(root)
            recorder.enabled = False
            roots.append(root)
        check(output)
        output = None
    return {mode: median(values) for mode, values in times.items()}, roots


def peak_rss_mb(pid=None):
    """Peak resident set size of this process, or of a live child ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Result:
    """Counts operations and collects metrics for the final JSON line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.metrics = {}

    def check(self, ok, what):
        """Record one checked operation; a failed check fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(what)

    def ops(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def layers(self, *groups):
        """Add per-layer metric dicts, summing a metric that several report."""
        for group in groups:
            for name, value in group.items():
                previous = self.metrics.get(name, {}).get("value", 0.0)
                self.metric(name, previous + value)

    def metric(self, name, value, unit=""):
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self, wanted, absent=()):
        """Print the report lines and the final JSON line; return the exit code.

        ``wanted`` maps every metric this mode must report to its unit.  A
        metric the workload does not exercise reads 0; one whose layer is
        missing from the program is listed as absent and also reads 0.
        """
        for name, unit in wanted.items():
            if name not in self.metrics:
                self.metric(name, 0.0, unit)
        for name in sorted(self.metrics):
            entry = self.metrics[name]
            print(f"{name:40s} {entry['value']:.6g} {wanted.get(name, entry['unit'])}")
        if absent:
            print("absent (layer callable not found): " + ", ".join(absent))
        for what in self.mismatches[:20]:
            print(f"MISMATCH: {what}", file=sys.stderr)
        correct = not self.mismatches and self.attempted > 0
        print(json.dumps({
            "correct": correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": self.metrics[name]["value"], "unit": unit}
                for name, unit in wanted.items()
            },
        }), flush=True)
        return 0 if correct else 1
