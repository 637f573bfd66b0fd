"""Benchmark of sctopo, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trend --seed 0 --seconds 30 --trace 0

``--workload`` is one of trend, real, branch, or ``all``, which runs
each of them in a fresh process of its own.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The library is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("trend", "real", "branch")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
TRACE_METRICS = (("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
                 ("trace.overhead_s", "s"))
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.05
REFERENCE_S = 1.6e-4  # the reference loop's time at the nominal speed
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
_TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(samples, beyond=10):
    """Highest ladder percentile with at least ``beyond`` samples above it.

    Nearest-rank percentiles; returns ``(percentile, value, count_beyond)``
    or ``None`` when even the median has too few samples beyond it.
    """
    xs = sorted(samples)
    best = None
    for p in _TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * len(xs)))
        if len(xs) - rank >= beyond:
            best = (p, xs[rank - 1], len(xs) - rank)
    return best


def layer_names():
    from tracing import LAYER_METRICS, PER_N0
    from workloads import TREND_SIZES

    names = list(LAYER_METRICS)
    units = dict(LAYER_METRICS)
    for n0 in TREND_SIZES:
        names += [(f"{key}.n0_{n0}", units[key]) for key in PER_N0]
    return names + list(TRACE_METRICS)


def _blas_threads():
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _loadavg():
    return Path("/proc/loadavg").read_text().split()[:3]


def environment():
    import numpy

    cpu = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _limit_blas_threads():
    """One BLAS thread: each workload is a single-threaded closed loop.

    On a shared 2-vCPU VM a second BLAS thread made pass times less
    repeatable; one thread also stays within ``nproc``.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _import_library():
    """Import sctopo from the checkout's src/, or exit without a result."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import sctopo
    except ImportError as exc:
        sys.exit(f"error: cannot import sctopo from {ROOT / 'src'}: {exc}")
    if Path(sctopo.__file__).resolve().parent != ROOT / "src" / "sctopo":
        sys.exit(f"error: sctopo was imported from {sctopo.__file__}, "
                 f"not from this checkout")


class SpeedProbe:
    """Samples the speed of the machine while one section is timed.

    Every ``PROBE_INTERVAL_S`` of wall time a SIGALRM handler times a fixed
    loop of Python arithmetic and small numpy products, in the benchmark's
    own thread, after running it once untimed.  ``scaled`` turns the
    section's wall time into the time it would have taken at the speed at
    which that loop takes ``REFERENCE_S``.

    The shared VM the benchmark was written on changed speed by up to 1.7x,
    in phases of seconds to minutes, and pass times moved with it.  The
    loop slows down with the passes, so scaled times move much less (see
    the README).  The samples cost about 1% of a section's wall time.
    """

    def __init__(self):
        import numpy

        self._matrix = numpy.random.default_rng(0).random((30, 30))
        self.samples = []

    def _reference_loop(self):
        x = 0
        for k in range(2000):
            x += k * k
        for _ in range(20):
            self._matrix @ self._matrix[:, 0]

    def _sample(self, *_):
        # The first loop refills the caches the workload has just evicted,
        # so that the timed one sees the machine's speed, not the
        # workload's footprint.
        self._reference_loop()
        t0 = time.perf_counter()
        self._reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.samples:  # a section shorter than one interval
            self._sample()

    def scaled(self, seconds):
        return seconds * REFERENCE_S / statistics.median(self.samples)


@dataclass
class Measured:
    """What ``measure`` collected over one run."""

    setups: list = field(default_factory=list)  # (seconds, scaled seconds)
    untraced: list = field(default_factory=list)  # (s, scaled s, PassResult)
    traced: list = field(default_factory=list)  # (s, scaled s, layers, tracer)
    results: list = field(default_factory=list)  # every pass; None: raised


def measure(workload, workdir, seconds, traced):
    """Set up and run passes for ``seconds``; odd passes are traced if asked.

    The set-ups are spread over the run, one at its start and the others
    once each further share of ``seconds`` has passed, so that their median
    is taken under the same load as the passes.  Every set-up and pass
    runs under a ``SpeedProbe``.
    """
    from tracing import BINDINGS, Tracer, pass_metrics
    from workloads import TREND_SIZES

    out = Measured()
    start = time.perf_counter()
    while True:
        if (len(out.setups) < SETUP_REPEATS and time.perf_counter() - start
                >= len(out.setups) * seconds / SETUP_REPEATS):
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                workload.setup(workdir)
                elapsed = time.perf_counter() - t0
            out.setups.append((elapsed, probe.scaled(elapsed)))
            continue
        trace_this = traced and len(out.results) % 2 == 1
        tracer = Tracer() if trace_this else None
        probe = SpeedProbe()
        installed = tracer.installed(BINDINGS) if tracer else nullcontext()
        try:
            with probe, installed:
                t0 = time.perf_counter()
                result = workload.run_pass(len(out.results))
                elapsed = time.perf_counter() - t0
        except Exception:  # counted as a failed pass by the gate
            traceback.print_exc()
            result = None
        out.results.append(result)
        if result is not None and trace_this:
            layers = pass_metrics(tracer, TREND_SIZES)
            out.traced.append((elapsed, probe.scaled(elapsed), layers, tracer))
        elif result is not None:
            out.untraced.append((elapsed, probe.scaled(elapsed), result))
        done = time.perf_counter() - start >= seconds
        if done and (not traced or len(out.results) >= 2):
            return out


def run_workload(name, seed, seconds, traced):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workdir = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    env = environment()
    env["loadavg_before"] = _loadavg()
    try:
        run = measure(workload, workdir, seconds, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = workload.check(run.results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = _loadavg()

    notes = {}
    if traced:
        if not run.traced or not run.untraced:
            sys.exit("error: no traced or no untraced pass completed")
        # per-layer figures come from the fastest traced pass as a whole;
        # the overhead compares scaled medians, so that the VM's drift
        # between traced and untraced passes cancels
        traced_s, _, layers, tracer = min(run.traced, key=lambda t: t[0])
        layers.update({
            "trace.run_s": traced_s,
            "trace.untraced_run_s": min(t for t, _, _ in run.untraced),
            "trace.overhead_s":
                statistics.median(s for _, s, _, _ in run.traced)
                - statistics.median(s for _, s, _ in run.untraced)})
        metrics = {key: {"value": layers[key], "unit": unit}
                   for key, unit in layer_names()}
        trace_path = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps(tracer.to_json()) + "\n")
        notes["trace file"] = str(trace_path.relative_to(ROOT))
    else:
        if not run.untraced:
            sys.exit("error: no pass completed")
        metrics = {key: {"value": value, "unit": unit}
                   for (key, unit), value in zip(
                       END_TO_END,
                       (statistics.median(s for _, s in run.setups),
                        statistics.median(s for _, s, _ in run.untraced),
                        peak_rss_mb))}
        solves = [t for _, _, r in run.untraced for t in r.joint_latencies]
        notes["joint_p50_ms"] = (
            f"{1e3 * statistics.median(solves):.4f} ms ({len(solves)} solves)"
            if solves else "no solves")
        tail = tail_percentile(solves)
        notes["joint_tail_ms"] = (
            f"p{tail[0]:g} = {1e3 * tail[1]:.4f} ms "
            f"({len(solves)} solves, {tail[2]} beyond)" if tail else
            f"not defined: {len(solves)} solves, fewer than 10 beyond "
            f"the median")
    notes["wall medians"] = (
        f"set-up {statistics.median(t for t, _ in run.setups):.4f} s, "
        f"pass {statistics.median(t for t, _, _ in run.untraced):.4f} s")
    notes["set-up times, wall/scaled"] = " ".join(
        f"{t:.3f}/{s:.3f}" for t, s in run.setups)
    notes["pass times, wall/scaled"] = " ".join(
        [f"{t:.3f}/{s:.3f}" for t, s, _ in run.untraced]
        + [f"{t:.3f}/{s:.3f}*" for t, s, _, _ in run.traced])
    ratio = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    notes["failed_ratio"] = f"{ratio:g} ({verdict.failed} of {verdict.attempted})"

    print(f"workload {name}  seed {seed}  seconds {seconds}  "
          f"trace {int(traced)}")
    print("env " + json.dumps(env))
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:14.6f} {m['unit']}")
    for key, text in notes.items():
        print(f"  {key:34s} {text}")
    for problem in verdict.problems:
        print(f"  FAILED: {problem}")
    return {"correct": verdict.attempted > 0 and verdict.failed == 0,
            "attempted": verdict.attempted, "failed": verdict.failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in a fresh process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        *lines, last = proc.stdout.strip().splitlines() or [""]
        try:
            result = json.loads(last)
        except ValueError:
            sys.exit(f"error: workload {name} printed no result")
        print("\n".join(lines))
        total["correct"] &= result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        _limit_blas_threads()
        _import_library()
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
