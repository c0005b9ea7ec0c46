"""Time to a checked result on the dahakz pipelines.

Run from the root of a checkout (dahakz is imported from its src/):

    python3 perfbench/run.py --workload a1-gamma-sweep --seed 1 --seconds 20 --trace 0

Untraced (--trace 0), the run repeats whole passes over the seed's inputs
while another pass fits in --seconds, and reports the end-to-end metrics,
with times in reference seconds (perfbench/refclock.py).
Traced (--trace 1), it runs one pass untraced and the same pass with the
per-layer wrappers of perfbench/layers.py installed, checks that both give
bit-identical results, writes the spans to perfbench/out/, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
the run record (machine, seed, inputs).  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# the backend the baseline figures in README.md were taken on
BASELINE_BACKEND = "python"
SETUP_REPEATS = 15
# The child times a fixed integer kernel, which needs no import, before it
# imports anything and again after set-up.  Its set-up time is weighted by
# SETUP_KERNEL_S (the kernel's time when the box runs at its faster speed)
# over the mean of the two, as refclock.py does for the stretches of an op.
SETUP_KERNEL_S = 0.00063
SETUP_CODE = """\
import sys, time

def kernel_s():
    def kernel():
        m, acc, mask = 0x9E3779B97F4A7C15F39CC0605CEDC834, 0, (1 << 256) - 1
        for i in range(2500):
            m = (m * 0xD1342543DE82EF95 + i) & mask
            acc ^= m >> (i % 64)
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

t0 = time.perf_counter()
before = sorted(kernel_s() for _ in range(3))[1]
spent = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import dahakz.cli
from dahakz.rootdata import type_a
type_a(1), type_a(2)
print("ready", flush=True)
after = sorted(kernel_s() for _ in range(3))[1]
print(spent, before, after, flush=True)
"""


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import dahakz from this checkout's sources and nowhere else."""
    pkg = SRC / "dahakz"
    if not (pkg / "kz.py").is_file():
        die(f"no dahakz sources at {pkg}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import dahakz.kz
    if Path(dahakz.kz.__file__).resolve().parent != pkg.resolve():
        die(f"imported dahakz from {dahakz.kz.__file__}, not from {pkg}")
    import workloads
    return workloads


def measure_setup() -> tuple:
    """Median seconds from process start until dahakz is imported and the
    root data is built, over fresh interpreters: (wall, reference) seconds."""
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            kernels = proc.stdout.read().split()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0 or len(kernels) != 3:
            die(f"set-up process failed with exit code {code}")
        spent, before, after = map(float, kernels)
        wall = elapsed - spent
        walls.append(wall)
        refs.append(wall * SETUP_KERNEL_S / ((before + after) / 2))
    return statistics.median(walls), statistics.median(refs)


class Pass:
    """Outcomes, wall times and reference times of the ops run so far."""

    def __init__(self):
        self.times, self.ref_times, self.cpu_times, self.scales = [], [], [], []
        self.residuals, self.digests = [], []
        self.failed = 0

    def run(self, op, inputs, tracer=None) -> None:
        for i, inp in enumerate(inputs):
            if tracer is not None:
                tracer.op = i
            clock = RefClock()
            clock.start()
            try:
                outcome = op(inp)
            except Exception:
                traceback.print_exc()
                outcome = None
            finally:
                clock.stop()
            self.times.append(clock.wall)
            self.ref_times.append(clock.ref)
            self.cpu_times.append(clock.cpu)
            self.scales.append(clock.ref / clock.elapsed)
            if outcome is None or not outcome.ok:
                self.failed += 1
            self.digests.append(outcome.digest if outcome else None)
            if outcome is not None:
                self.residuals.append(outcome.residual)

    def accuracy_digits(self, cap: int) -> float:
        """min over ops of -log10(largest residual checked), capped for exact ops."""
        if not self.residuals:
            return 0.0
        worst = float(max(self.residuals))
        return cap if worst <= 10.0 ** -cap else -math.log10(worst)


def machine_record(args) -> dict:
    import mpmath
    backend = mpmath.libmp.BACKEND
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": backend, "loadavg_start": list(os.getloadavg()),
        # figures from another backend are not comparable with the baseline
        "comparable": backend == BASELINE_BACKEND,
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, wl, inputs, record) -> dict:
    setup_wall, setup_s = measure_setup()
    _, op = wl.WORKLOADS[args.workload]
    done = Pass()
    start = time.perf_counter()
    passes = 0
    while True:
        done.run(op, inputs)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > args.seconds:
            break
    attempted = len(done.times)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_s": metric(statistics.median(done.ref_times), "s"),
        "accuracy_digits": metric(done.accuracy_digits(wl.EXACT_DIGITS),
                                  "digits"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record.update(passes=passes, op_ref_s=done.ref_times, op_wall_s=done.times,
                  op_cpu_s=done.cpu_times,
                  setup_wall_s=setup_wall, digests=done.digests,
                  fail_ratio=done.failed / attempted)
    print(f"{'fail_ratio':32} {done.failed / attempted!r} (of {attempted} ops)")
    print(f"{'op_wall_s':32} {statistics.median(done.times)!r} s (not rescaled)")
    print(f"{'op_cpu_s':32} {statistics.median(done.cpu_times)!r} s (process time)")
    return {"correct": done.failed == 0, "attempted": attempted,
            "failed": done.failed, "metrics": metrics}


def traced(args, wl, inputs, record) -> dict:
    from layers import Tracer
    _, op = wl.WORKLOADS[args.workload]
    plain = Pass()
    plain.run(op, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        seen = Pass()
        seen.run(op, inputs, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_file)
    identical = plain.digests == seen.digests
    metrics = tracer.metrics(seen.scales)
    overhead = statistics.median(seen.ref_times) / statistics.median(plain.ref_times)
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    record.update(untraced_op_ref_s=plain.ref_times,
                  traced_op_ref_s=seen.ref_times,
                  digests=plain.digests, traced_identical=identical,
                  spans_file=str(spans_file.relative_to(ROOT)),
                  accuracy_digits=seen.accuracy_digits(wl.EXACT_DIGITS),
                  counters=dict(tracer.counts))
    if not identical:
        print("perfbench: traced results differ from untraced results",
              file=sys.stderr)
    failed = plain.failed + seen.failed
    return {"correct": failed == 0 and identical,
            "attempted": len(plain.times) + len(seen.times), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        die(f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(wl.WORKLOADS)}")
    record = machine_record(args)
    if not record["comparable"]:
        print(f"perfbench: mpmath backend {record['mpmath_backend']!r} is not "
              f"the baseline's {BASELINE_BACKEND!r}; results are not comparable",
              file=sys.stderr)
    make_inputs, _ = wl.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    record["inputs"] = wl.describe(inputs)
    result = (traced if args.trace else untraced)(args, wl, inputs, record)
    for name, m in result["metrics"].items():
        print(f"{name:32} {m['value']!r} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
