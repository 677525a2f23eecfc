"""Benchmark of the trivalent library: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cubic-qp --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  Each
workload runs in its own process and on one thread (the BLAS and OpenMP
thread caps below are set before numpy loads, and passed on to child
processes).

`--trace 0` measures the end-to-end metrics with the library untouched:

* `setup_s`: median over five fresh child processes of the time from spawning
  the process to the first item being ready (interpreter start,
  `import trivalent`, the workload's inputs, catalog enumeration included);
* `items_per_s`: items completed per second of item time, over whole passes,
  repeated until at least `--seconds` of calibrated item time has been
  measured;
* `item_p50_ms`: median item latency;
* `peak_rss_mb`: peak resident set of this process.

`items_per_s` and `item_p50_ms` are calibrated: the speed of the machine
this was written on drifts by tens of percent over minutes, in user time as
much as in wall time, and that drift would swamp the differences the
benchmark is there to show.  So a fixed mix of interpreter and numpy work
(`calibration_unit`, about 15 ms) is timed every CAL_EVERY_S of wall time,
inside long items too, and each item's time is scaled by CAL_REF_S over the
mean calibration unit during it and within CAL_WINDOW_S of it: the time the
item would take with the machine at its reference speed.  Every run prints
both figures of each calibrated metric, raw and calibrated, in a
`{"figures": ...}` line, so that `collect.py` can compare their spreads.
`setup_s` is raw: calibrating the set-up probes widened its spread (see
README.md).

Each item's output is checked afterwards, outside the timed region; an item
that raises or fails its check counts as failed and the run goes on.

`--trace 1` runs each item of pass 0 once without and once with
`tracer.Tracer` installed, in alternating order (`interleaved_passes`), and
reports the per-layer metrics of the traced runs plus `trace_overhead_ratio`
(traced item time / untraced item time; traced runs do not calibrate, so
that no calibration lands inside a span).  The catalog
metrics come from the traced set-up.  It also checks the tracing itself: every
lookup site is wrapped, every span the workload is meant to exercise has
calls, and the elimination counter is never called by the workloads that
must not count.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are notes for a
reader (environment, sample counts, the tail latency, the fail ratio, the
span table).
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)

import numpy as np  # noqa: E402  (after the thread caps)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TAIL_BEYOND = 10
CAL_EVERY_S = 0.25
# Units this close to an item also scale it: the drift is slow, and one unit
# alone varies by 10-20%.
CAL_WINDOW_S = 2.0
# What calibration_unit() takes at the reference speed (its usual time on a 2-core
# x86_64 VM with CPython 3.11 and numpy 2.4).  It sets the unit of the
# calibrated times and cancels out of any comparison between two commits.
CAL_REF_S = 0.015


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_library():
    if os.environ.get("TRIVALENT_VERLINDE_PREC"):
        fail("TRIVALENT_VERLINDE_PREC is set; it changes the work verlinde_count does. Unset it.")
    if not (SRC / "trivalent" / "__init__.py").is_file():
        fail(f"no trivalent sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import trivalent
    import trivalent.cli  # noqa: F401  (cli.computed_tree_table is an item)

    return trivalent


# -- measurement --------------------------------------------------------------


def calibration_unit() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work (about 15 ms)."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(25000):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + i * 3 % 11
    a = (np.arange(30**3, dtype=np.int64) % 5).reshape(30, 30, 30)
    for _ in range(8):
        np.einsum("ijk,jkl->il", a, a)
    return time.perf_counter() - t0


def calibrate(seconds: float) -> float:
    """Mean time of calibration units repeated for about `seconds` (at least one)."""
    units = [calibration_unit()]
    while sum(units) < seconds:
        units.append(calibration_unit())
    return sum(units) / len(units)


class Calibration:
    """Calibration units run by SIGALRM every CAL_EVERY_S of wall time.

    The alarm also fires inside an item, so a 30 s item is calibrated along
    its length and not only at its ends; the time the handler takes is
    subtracted from the item's time (`spent`).
    """

    def __init__(self):
        self.starts: list[float] = []
        self.units: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.units.append(calibration_unit())
        self.starts.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean unit within CAL_WINDOW_S of [start, end].

        The window always reaches the last unit before it and the first after.
        """
        lo = max(bisect.bisect_right(self.starts, start - CAL_WINDOW_S) - 1, 0)
        hi = bisect.bisect_left(self.starts, end + CAL_WINDOW_S)
        window = self.units[lo:hi + 1]
        return CAL_REF_S * len(window) / sum(window)


def run_pass(items, tracer=None, calibrate_items: bool = True):
    """Time each item; return (item, output, error, seconds, scale) per item.

    seconds * scale is the item's calibrated time (see the module docstring);
    scale is 1 when calibrate_items is false.
    """
    rows = []
    with Calibration() if calibrate_items else contextlib.nullcontext() as cal:
        for item in items:
            if tracer is not None:
                tracer.begin_item()
            spent = cal.spent if cal else 0.0
            t0 = time.perf_counter()
            try:
                out, err = item.run(), None
            except Exception as exc:  # an item that raises is one failed item
                out, err = None, exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_item()
            dt = t1 - t0 - ((cal.spent - spent) if cal else 0.0)
            rows.append((item, out, err, dt, t0, t1))
    return [(item, out, err, dt, cal.scale(t0, t1) if cal else 1.0)
            for item, out, err, dt, t0, t1 in rows]


def calibrated(results) -> list[float]:
    return [dt * scale for *_, dt, scale in results]


def interleaved_passes(items, tracer):
    """Run each item once untraced and once traced; return both passes' results.

    Item k runs untraced first when k is even and traced first when k is odd,
    so that neither pass gets the state the other left warm, nor the faster
    stretch of a machine whose speed drifts.
    """
    plain, traced = [], []
    for k, item in enumerate(items):
        for trace in (False, True) if k % 2 == 0 else (True, False):
            if not trace:
                plain += run_pass([item], calibrate_items=False)
                continue
            tracer.install()
            tracer.enabled = True
            traced += run_pass([item], tracer, calibrate_items=False)
            tracer.enabled = False
            tracer.uninstall()
    return plain, traced


def check_pass(results) -> int:
    """Run every item's check; return the number of failed items."""
    outputs = {item.name: out for item, out, err, *_ in results if err is None}
    failed = 0
    for item, out, err, *_ in results:
        if err is not None:
            print(f"item {item.name} raised {type(err).__name__}: {err}")
            failed += 1
            continue
        try:
            ok = item.check(out, outputs)
        except Exception as exc:  # a check that raises fails its item
            print(f"item {item.name} check raised {type(exc).__name__}: {exc}")
            ok = False
        if not ok:
            print(f"item {item.name} failed its check")
            failed += 1
    return failed


def setup_probes(args) -> list[float]:
    """Seconds of fresh processes' set-up, from spawn to first item ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def tail(latencies: list[float]):
    """(percentile, value) with at least TAIL_BEYOND samples beyond it, or None."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    index = n - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / n, ordered[index]


def environment(tv) -> dict:
    import mpmath

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "trivalent": tv.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "thread_caps": THREAD_CAPS,
        "machine": platform.machine(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- modes --------------------------------------------------------------------


def measure(args, tv, workload) -> tuple[dict, int, int]:
    probes = setup_probes(args)
    raw: list[float] = []
    latencies: list[float] = []
    attempted = failed = passes = 0
    while passes == 0 or sum(latencies) < args.seconds:
        results = run_pass(workload.items(passes))
        raw += [r[3] for r in results]
        latencies += calibrated(results)
        attempted += len(results)
        failed += check_pass(results)
        passes += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"setup_s probes: {', '.join(f'{s:.4f}' for s in probes)}")
    print(f"passes: {passes}, item samples: {len(raw)}, item time: {sum(raw):.3f} s, "
          f"calibrated {sum(latencies):.3f} s")
    figures = {
        kind: {"items_per_s": len(times) / sum(times),
               "item_p50_ms": statistics.median(times) * 1e3}
        for kind, times in (("raw", raw), ("calibrated", latencies))
    }
    print(json.dumps({"figures": figures}))
    t = tail(latencies)
    if t is None:
        print(f"item_tail_ms: not reported ({len(latencies)} samples < {2 * TAIL_BEYOND})")
    else:
        print(f"item_tail_ms: {t[1] * 1e3:.4f} ms at p{t[0]:.2f} of {len(latencies)} samples")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    metrics = {
        "setup_s": metric(statistics.median(probes), "s"),
        "items_per_s": metric(figures["calibrated"]["items_per_s"], "1/s"),
        "item_p50_ms": metric(figures["calibrated"]["item_p50_ms"], "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return metrics, attempted, failed


def traced(args, tv, build) -> tuple[dict, int, int]:
    import layers
    from tracer import Tracer

    tracer = Tracer(tv)
    tracer.install()
    tracer.enabled = True
    workload = build(tv, args.seed)
    tracer.enabled = False
    describe(workload, args.seed)
    setup_stats = (tracer.stats, tracer.kept)
    tracer.uninstall()

    items = workload.items(0)
    tracer.reset()
    tracer.install()
    unwrapped = tracer.unwrapped_sites()
    lookup_sites = {site: tracer.is_wrapped(site) for site in layers.LOOKUP_SITES}
    tracer.uninstall()
    plain, traced_results = interleaved_passes(items, tracer)

    failed = check_pass(plain) + check_pass(traced_results)
    attempted = len(plain) + len(traced_results)
    overhead = sum(r[3] for r in traced_results) / sum(r[3] for r in plain)
    values = layers.layer_metrics(tracer, setup_stats, workload, overhead)
    problems = layers.self_test(workload.name, tracer, setup_stats, unwrapped, lookup_sites)
    layers.print_span_table(tracer)
    if problems:
        fail("tracing self-test failed:\n  " + "\n  ".join(problems), code=3)
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    return values, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS

    build = WORKLOADS.get(args.workload)
    if build is None:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    tv = load_library()

    if args.setup_probe:
        build(tv, args.seed).items(0)
        print(repr(time.monotonic()))
        return 0

    print(json.dumps({"env": environment(tv)}, sort_keys=True))
    calibrate(0.05)  # warm-up: the first units of a process run slow
    if args.trace:
        metrics, attempted, failed = traced(args, tv, build)
    else:
        workload = build(tv, args.seed)
        describe(workload, args.seed)
        metrics, attempted, failed = measure(args, tv, workload)
        if workload.fingerprint is not None:
            problems = seed_self_test(workload, args.seed)
            if problems:
                fail("seed self-test failed: " + "; ".join(problems), code=3)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def describe(workload, seed: int) -> None:
    print(f"workload {workload.name}: inputs "
          + (f"drawn from seed {seed}" if workload.seeded else "deterministic (seed ignored)"))


def seed_self_test(workload, seed: int) -> list[str]:
    """One seed gives identical inputs twice; another seed gives other inputs of equal size."""
    a, again, other = (workload.fingerprint(s, 0) for s in (seed, seed, seed + 1))
    problems = []
    if a != again:
        problems.append("the same seed gave different inputs")
    if a == other:
        problems.append(f"seeds {seed} and {seed + 1} gave the same inputs")
    if [len(x) for x in a] != [len(x) for x in other]:
        problems.append(f"seeds {seed} and {seed + 1} gave different item counts")
    return problems


if __name__ == "__main__":
    sys.exit(main())
