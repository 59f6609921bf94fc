"""Benchmark of the toricdeform package.

    python3 perfbench/run.py --workload datum-pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own src/ and from nowhere else, so without it the run stops
with exit code 2 and prints no result.

The benchmark is a closed loop with one client: one process runs the items
of one workload one after another on one thread.  Set-up (import, input
generation from the seed, a fixed warm-up item) is repeated SETUP_ROUNDS
times and reported as its median.  Then:

--trace 0  timed passes over all items, with nothing installed, until
           --seconds have elapsed (at least one pass).  Reports the
           end-to-end metrics listed in BENCHMARK.json, from scaled CPU
           times (see README.md for the clock).
--trace 1  one untraced pass, then traced passes (at least two, more
           until --seconds have elapsed) with every layer wrapped (see
           tracer.py).  Reports the per-layer metrics; work counters must
           repeat exactly between the traced passes, or the run is
           flagged incorrect.  Spans of the last pass are written to
           .bench_out/.

Every item's output is checked (workloads.py) and must be identical in
every pass of the run; a raising item, a failed check or a changed output
counts as a failed item.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record,
with the input and output digests, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_ROUNDS = 3
MIN_TRACED_PASSES = 2
CALIBRATE_EVERY = 4  # items between two calibration samples
# Gated CPU times are scaled by (reference / calibration) ** elasticity.
# The reference is calibrate()'s median CPU time on the machine the
# benchmark was written on (a 2-vCPU Intel Xeon VM, Python 3.11).  The
# elasticity is how far the package's CPU time moves when calibrate()'s
# does: least-squares slopes of log item time on log calibration time,
# over 30-45 alternations on that host, were 0.66-0.74 on the workloads.
CALIBRATION_REFERENCE_S = 0.0065
SPEED_ELASTICITY = 0.7
PACKAGE_MODULES = ("lattice", "polyhedral", "datum", "cox", "projective",
                   "mutation", "oracle", "presets", "workbench")


def load_package():
    """Import toricdeform afresh from this checkout's src/.

    Returns a namespace with one attribute per module, plus all_modules:
    every loaded toricdeform module (the tracer rebinds names in each)."""
    for name in [m for m in sys.modules
                 if m == "toricdeform" or m.startswith("toricdeform.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("toricdeform")
    where = Path(package.__file__).resolve().parent
    if where != (SRC / "toricdeform").resolve():
        raise ImportError("toricdeform imported from %s, not from %s" % (where, SRC))
    td = SimpleNamespace(**{name: importlib.import_module("toricdeform." + name)
                            for name in PACKAGE_MODULES})
    td.all_modules = [m for name, m in sys.modules.items()
                      if name == "toricdeform" or name.startswith("toricdeform.")]
    return td


_CALIBRATION_RNG = random.Random("calibration")
_CALIBRATION_MATRICES = [[[_CALIBRATION_RNG.randint(-3, 3) for _ in range(6)]
                          for _ in range(5)] for _ in range(60)]


def calibrate():
    """CPU time of a fixed exact rank computation, written like the
    package's inner loops (rows made primitive through Fraction, then
    fraction-free elimination).  On a shared host the machine's speed
    drifts by up to a factor of two within minutes and the package's CPU
    time follows about SPEED_ELASTICITY of it; scaling by this sample
    removes most of that drift."""
    start = time.process_time()
    for matrix in _CALIBRATION_MATRICES:
        rows = []
        for r in matrix:
            fr = [Fraction(a) for a in r]
            den = math.lcm(*[f.denominator for f in fr])
            ints = [int(f * den) for f in fr]
            g = math.gcd(*ints)
            if g:
                rows.append([a // g for a in ints])
        rank = col = 0
        while col < 6 and rank < len(rows):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if piv is None:
                col += 1
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            p = rows[rank][col]
            for i in range(rank + 1, len(rows)):
                q = rows[i][col]
                if q:
                    rows[i] = [p * a - q * b for a, b in zip(rows[i], rows[rank])]
                    g = math.gcd(*rows[i])
                    if g > 1:
                        rows[i] = [a // g for a in rows[i]]
            rank += 1
            col += 1
    return time.process_time() - start


class Env:
    """What an item runner gets: the package, a scratch directory, and the
    tracer's counters when a traced pass is running."""

    def __init__(self, td, workdir):
        self.td = td
        self.workdir = workdir
        self.tracer = None

    def count(self, key, n):
        if self.tracer is not None:
            self.tracer.count(key, n)


def run_pass(wl, env, items, reference=None):
    """One pass over all items.  Returns per-item CPU and wall-clock
    latencies (s), calibration samples taken between items, per-item
    output digests, and (index, message) for every failed item."""
    gc.collect()
    tracer = env.tracer
    cpu, wall, calibration, digests, errors = [], [], [], [], []
    for i, item in enumerate(items):
        if i % CALIBRATE_EVERY == 0:
            calibration.append(calibrate())
        if tracer is not None:
            tracer.begin_item(i)
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        out = error = None
        try:
            out = wl.run(env, item)
        except Exception as exc:  # a raising item is a failed item; the run goes on
            error = "%s: %s" % (type(exc).__name__, exc)
        cpu.append(time.process_time() - start_cpu)
        wall.append(time.perf_counter() - start_wall)
        if tracer is not None:
            tracer.end_item()
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest() if out is not None else None
        if error is None:
            try:
                error = wl.check(item, out)
            except Exception as exc:  # unreadable output fails the item
                error = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if error is None and reference is not None and digest != reference[i]:
            error = "output differs from the first pass"
        if error is not None:
            errors.append((i, error))
        digests.append(digest)
    return SimpleNamespace(cpu=cpu, wall=wall, digests=digests, errors=errors,
                           scale=(CALIBRATION_REFERENCE_S / statistics.median(calibration))
                           ** SPEED_ELASTICITY)


def _quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _digest_text(text):
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _recorded(name, seed):
    path = HERE / "digests.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed), {})


def run_workload(name, seed, seconds, trace, limit=None):
    """Set up, run and check one workload; returns the full record."""
    wl = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / ("work-%d" % os.getpid())
    workdir.mkdir(exist_ok=True)
    try:
        setup_cpu, setup_wall = [], []
        for _ in range(SETUP_ROUNDS):
            start_wall, start_cpu = time.perf_counter(), time.process_time()
            td = load_package()
            items = wl.make_items(seed)[:limit]
            wl.prepare(items, str(workdir))
            env = Env(td, str(workdir))
            for item in wl.warmup_items():
                wl.run(env, item)
            setup_cpu.append(time.process_time() - start_cpu)
            setup_wall.append(time.perf_counter() - start_wall)

        if trace:
            passes, layers, counters = _traced_passes(wl, env, items, seconds, name, seed)
        else:
            started = time.perf_counter()
            passes = [run_pass(wl, env, items)]
            while time.perf_counter() - started < seconds:
                passes.append(run_pass(wl, env, items, passes[0].digests))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(items) * len(passes)
    failures = [(k, i, msg) for k, p in enumerate(passes) for i, msg in p.errors]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "items": len(items), "passes": len(passes),
        "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": [{"pass": k, "item": i, "error": msg} for k, i, msg in failures[:20]],
        "input_digest": _digest_text(json.dumps(items, sort_keys=True)),
        "output_digest": _digest_text("\n".join(str(d) for d in passes[0].digests)),
        "setup_rounds_cpu_s": setup_cpu,
        "setup_rounds_wall_s": setup_wall,
    }
    if trace:
        record["counters_repeat"] = all(c == counters[0] for c in counters)
        record["counters"] = counters[-1]
        record["counters_digest"] = _digest_text(json.dumps(counters[-1], sort_keys=True))
        record["traced_wall_s"] = statistics.median(sum(p.wall) for p in passes[1:])
        record["metrics"] = layers
    else:
        record["counters_repeat"] = True
        # CPU times are scaled to the calibration reference speed, pass by
        # pass; set-up ran just before the first pass and takes its scale.
        scaled = [[t * p.scale for t in p.cpu] for p in passes]
        samples_ms = [t * 1e3 for times in scaled for t in times]
        wall_ms = [t * 1e3 for p in passes for t in p.wall]
        record["speed_scale"] = [p.scale for p in passes]
        record["item_cpu_s"] = [p.cpu for p in passes]
        record["metrics"] = {
            "setup_s": statistics.median(setup_cpu) * passes[0].scale,
            "pass_cpu_s": statistics.median(sum(times) for times in scaled),
            "item_cpu_p50_ms": statistics.median(samples_ms),
            "item_cpu_p90_ms": _quantile(samples_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["wall_clock"] = {
            "setup_wall_s": statistics.median(setup_wall),
            "wall_s": statistics.median(sum(p.wall) for p in passes),
            "item_p50_ms": statistics.median(wall_ms),
            "item_p90_ms": _quantile(wall_ms, 90),
        }
    if limit is None:
        known = _recorded(name, seed)
        for key in ("input_digest", "output_digest", "counters_digest"):
            if key in record:
                record[key + "_recorded"] = (
                    "unrecorded" if key not in known
                    else "match" if known[key] == record[key] else "MISMATCH")
    record["correct"] = not failures and record["counters_repeat"]
    return record


def _traced_passes(wl, env, items, seconds, name, seed):
    base = run_pass(wl, env, items)
    passes, per_pass, counters = [base], [], []
    tracer = Tracer()
    tracer.install(env.td)
    env.tracer = tracer
    try:
        started = time.perf_counter()
        while (len(passes) <= MIN_TRACED_PASSES
               or time.perf_counter() - started < seconds):
            tracer.reset()
            passes.append(run_pass(wl, env, items, base.digests))
            per_pass.append(layer_metrics(tracer, len(items)))
            counters.append(tracer.work_counters())
        tracer.write_spans(OUT_DIR / ("%s-seed%d-spans.json.gz" % (name, seed)))
    finally:
        env.tracer = None
        tracer.uninstall()
    layers = median_metrics(per_pass)
    layers["trace.overhead_ratio"] = (
        statistics.median(sum(p.cpu) for p in passes[1:]) / sum(base.cpu))
    return passes, layers, counters


def benchmark_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def summary_lines(record, metrics):
    lines = ["%s seed %d: %d items, %d passes, %d item samples, %s" % (
        record["workload"], record["seed"], record["items"], record["passes"],
        record["attempted"], "correct" if record["correct"] else "INCORRECT")]
    for key in ("input_digest", "output_digest", "counters_digest"):
        if key in record:
            lines.append("  %-15s %s (%s)" % (
                key, record[key], record.get(key + "_recorded", "not compared")))
    for name, unit in metrics:
        lines.append("  %-40s %14.6g %s" % (name, record["metrics"][name], unit))
    if "traced_wall_s" in record:
        lines.append("  %-40s %14.6g s (wall clock of a traced pass, median)" % (
            "traced_wall_s", record["traced_wall_s"]))
    for name, value in record.get("wall_clock", {}).items():
        lines.append("  %-40s %14.6g %s (wall clock, not gated)" % (
            name, value, "ms" if name.endswith("_ms") else "s"))
    lines.append("  %-40s %14.6g ratio (%d of %d failed)" % (
        "fail_ratio", record["fail_ratio"], record["failed"], record["attempted"]))
    if not record["counters_repeat"]:
        lines.append("  work counters differ between traced passes")
    for f in record["failures"]:
        lines.append("  FAILED pass %d item %d: %s" % (f["pass"], f["item"], f["error"]))
    return lines


def result_line(record, metrics):
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in metrics}})


def run_all(args):
    """Every workload in turn, each in its own process (so peak RSS is the
    workload's own), then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit("workload %s exited with %d" % (name, proc.returncode))
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print("error: cannot import the package from this checkout: %s" % exc,
              file=sys.stderr)
        return 2
    metrics = benchmark_metrics(args.trace)
    with open(OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print("\n".join(summary_lines(record, metrics)))
    print(result_line(record, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
