"""Benchmark of eistheta, timed from outside, one fresh interpreter per sample.

    python3 bench/run.py --workload ladder_deg1_cold --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The workloads (bench/plan.json gives the
reason for each, its ROADMAP label and the layer map):

    ladder_deg1_cold    verify-main p=7 k=2 degree 1 B=50 m<=3, empty cache dir
    ladder_deg2_warm    verify-main p=7 k=2 degree 2 B=16 m<=2, genus cache filled
    density_dual_route  bench/dual_route.py: closed forms against local densities

Closed loop with one client: samples run one after another, each in a new
``python`` process, until ``--seconds`` have passed and at least
``MIN_SAMPLES`` have run, so that no run reports a single sample.  A
fresh process per sample matters: the module-level caches of eistheta would
otherwise turn every sample after the first into a memory-warm run that no
CLI user sees.  Every report goes through the correctness gate
(bench/gate.py) against bench/reference/.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json as medians
over the samples: wall time, set-up time (spawn until ``import eistheta``
has returned, sampled also by import-only children) and peak RSS of one
child.  ``--trace 1`` runs the untraced samples and then one sample under
bench/tracer.py, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is the JSON result.

The ladder workloads are fixed CLI commands; ``--seed`` drives the index
order and basis changes of the dual route.  Scratch files go to
.bench_work/ in the repository root.  The genus cache of ladder_deg2_warm
is filled there by the program itself once per source tree, and checked
against the reference on every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import gate
from tracer import ROOT, layer_metrics, read_spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
CHILD = os.path.join(HERE, "child.py")
GENERA_FILE = "genera_r4_L7.json"
SETUP_PROBES = 8
MIN_SAMPLES = 2
DEADLINE_S = 170  # every run must end within 180 s


@dataclass(frozen=True)
class Workload:
    kind: str  # which facts the gate checks: "ladder" or "dual"
    mode: str  # child entry point: "cli" or "dual"
    args: tuple
    cache: str | None  # None, "cold" (a new empty dir) or "warm" (filled)


LADDER = ("verify-main", "--p", "7", "--k", "2", "--j", "0")
WORKLOADS = {
    "ladder_deg1_cold": Workload(
        "ladder", "cli",
        LADDER + ("--degree", "1", "--bound", "50", "--m-max", "3"), "cold"),
    "ladder_deg2_warm": Workload(
        "ladder", "cli",
        LADDER + ("--degree", "2", "--bound", "16", "--m-max", "2"), "warm"),
    "density_dual_route": Workload("dual", "dual", (), None),
}


@dataclass
class Sample:
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    returncode: int
    problems: list
    report: bytes | None = None


def _read(path, mode="rb"):
    try:
        with open(path, mode) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def spawn(argv, root, env, err_path, stamp_path, deadline):
    """Run one child to its end and measure it alone (wait4 on its pid)."""
    with open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stamp = _read(stamp_path, "r")
    problems = [] if time.monotonic() < deadline else ["killed at the run deadline"]
    if not stamp:
        problems.append("no import stamp")
    return Sample(wall, float(stamp) - start if stamp else None,
                  usage.ru_maxrss / 1024, proc.returncode, problems)


class Run:
    """One invocation: a workload, its scratch directory, its samples."""

    def __init__(self, root, name, seed, deadline):
        self.root, self.name, self.seed, self.deadline = root, name, seed, deadline
        self.workload = WORKLOADS[name]
        with open(os.path.join(REFERENCE, f"{name}.json")) as fh:
            self.reference = json.load(fh)
        self.env = dict(os.environ)
        self.env.pop("EISTHETA_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_work")
        self.dir = os.path.join(self.work, f"run-{os.getpid()}")
        self.problems = []
        self.filled = None
        self._n = 0

    def _new_dir(self):
        self._n += 1
        d = os.path.join(self.dir, str(self._n))
        os.makedirs(d)
        return d

    def probe(self):
        """Set-up time of an import-only child."""
        d = self._new_dir()
        stamp = os.path.join(d, "stamp")
        argv = [sys.executable, CHILD, stamp, "-", "import"]
        s = spawn(argv, self.root, self.env, os.path.join(d, "err"), stamp,
                  self.deadline)
        if s.returncode or s.problems:
            self.problems.append(f"import probe: exit {s.returncode} {s.problems}")
        return s.setup_s

    def fill_warm_cache(self):
        """The genus cache, built once per source tree by ``eistheta genera``."""
        target = os.path.join(self.work, f"genera-{source_digest(self.root)}")
        if not os.path.isdir(target):
            d = self._new_dir()
            cache = os.path.join(d, "cache")
            argv = [sys.executable, CHILD, os.path.join(d, "stamp"), "-", "cli",
                    "genera", "--rank", "4", "--level", "7", "--cache-dir", cache,
                    "--out", os.path.join(d, "genera.json")]
            s = spawn(argv, self.root, self.env, os.path.join(d, "err"),
                      os.path.join(d, "stamp"), self.deadline)
            if s.returncode or not os.path.isdir(cache):
                self.problems.append(f"filling the genus cache: exit {s.returncode}")
                return
            os.replace(cache, target)
        want = _read(os.path.join(REFERENCE, GENERA_FILE))
        if _read(os.path.join(target, GENERA_FILE)) != want:
            self.problems.append("filled genus cache differs from the reference")
        self.filled = target

    def sample(self, trace_path=None):
        wl = self.workload
        d = self._new_dir()
        stamp, out = os.path.join(d, "stamp"), os.path.join(d, "report.json")
        args = list(wl.args) + ["--out", out]
        if wl.mode == "dual":
            args += ["--seed", str(self.seed)]
        if wl.cache:
            cache = os.path.join(d, "cache")
            if wl.cache == "warm" and self.filled:
                shutil.copytree(self.filled, cache)
            else:
                os.makedirs(cache)
            args += ["--cache-dir", cache]
        argv = [sys.executable, CHILD, stamp, trace_path or "-", wl.mode] + args
        err = os.path.join(d, "err")
        s = spawn(argv, self.root, self.env, err, stamp, self.deadline)
        s.report = _read(out)
        stderr = (_read(err) or b"").decode("utf-8", "replace")
        s.problems += gate.problems(wl.kind, s.returncode, stderr, s.report,
                                    self.reference)
        return s


def source_digest(root):
    """Hash of every file under src/, so a changed program refills its cache."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            h.update(_read(path) + b"\0")
    return h.hexdigest()[:16]


def summary(values):
    """(median, first quartile, third quartile, count)."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eistheta", "__init__.py")):
        print("bench: src/eistheta not found; run from the repository root",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec(root)

    run = Run(root, args.workload, args.seed, started + DEADLINE_S)
    os.makedirs(run.dir)
    try:
        run.probe()  # compiles and caches bytecode; not counted
        if run.workload.cache == "warm":
            run.fill_warm_cache()
        # half the probes before the samples, half after, so that set-up
        # time is sampled over the same stretch of machine load as wall time
        setups = [run.probe() for _ in range(SETUP_PROBES // 2)]
        samples = []
        begin = time.monotonic()
        while (len(samples) < MIN_SAMPLES
               or time.monotonic() - begin < args.seconds):
            samples.append(run.sample())
        setups += [run.probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        traced = None
        if args.trace:
            trace_path = os.path.join(run.dir, "spans.jsonl")
            traced = run.sample(trace_path)
            if traced.report != samples[0].report:
                traced.problems.append("traced report differs from the untraced one")
            spans = read_spans(trace_path) if os.path.exists(trace_path) else []
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    all_samples = samples + ([traced] if traced else [])
    failed = sum(1 for s in all_samples if s.problems)
    for i, s in enumerate(all_samples):
        for p in s.problems[:5]:
            print(f"sample {i}: {p}")
        if len(s.problems) > 5:
            print(f"sample {i}: ... {len(s.problems) - 5} more problems")
    for p in run.problems:
        print(f"run: {p}")
    setups = [x for x in setups + [s.setup_s for s in samples] if x is not None]
    walls = [s.wall_s for s in samples]
    e2e = {
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
    }
    print(f"{args.workload} seed {args.seed}: {len(all_samples)} samples, "
          f"{failed} failed")
    for name, values in e2e.items():
        med, q1, q3, n = summary(values)
        print(f"  {name:<12} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"n={n}  {end_to_end[name]}")
    print(f"  {'failed_frac':<12} {failed / len(all_samples):.4f}  "
          f"({failed}/{len(all_samples)})  1")

    if args.trace:
        layers = layer_metrics(spans)
        layers["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in per_layer.items()}
        top = sorted(((v, k) for k, v in layers.items()
                      if k.endswith(".self_s") and not k.startswith(ROOT)),
                     reverse=True)[:5]
        print("  largest self times: "
              + ", ".join(f"{k[:-7]} {v:.3f} s" for v, k in top))
    else:
        metrics = {name: {"value": summary(e2e[name])[0], "unit": unit}
                   for name, unit in end_to_end.items()}
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": len(all_samples),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
