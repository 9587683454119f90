"""Run one workload of the flagcsm benchmark and print its metrics.

    python3 bench/run.py --workload oracle-s5 --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 1    # each workload in turn

Run from anywhere: the library is imported from the ``src`` directory next
to this one.  One process, one client, one item at a time (closed loop);
no threads or pools.  The run makes ``seconds / (3 x nominal item time)``
items from the seed, times its own set-up, then runs the item list three
times over, checking each item every time.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes), wall_s, item_p50_s, peak_rss_mb.  --trace 1 first runs the
same workload untraced in a child process, then runs it again here with
every layer wrapped (layers.py), checks that each item's output digest is
byte-identical to the untraced one, and prints the per-layer metrics and
the tracing overhead.  Spans go to bench/out/.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Exit code 2, with no result, when the library sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=27)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh-process set-up samples and the untraced twin of a
    # traced run
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(args, *extra):
    """Run this script again in a fresh process and wait for it."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + list(extra)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("error: %s exited with %d" % (" ".join(extra),
                                                       done.returncode))
    return done.stdout.splitlines()


def run_items(workload, items):
    """Run the item list PASSES times over, one item at a time.  Returns
    per-item rows (passed, mean seconds, digest, note, timings) and
    wall_s, the mean time of a pass.  An item fails if any pass fails its
    check, raises, or gives a different output digest from the first
    pass."""
    timings = [[] for _ in items]
    results = [[] for _ in items]
    for _ in range(PASSES):
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                passed, digest, note = workload.run(item)
            except Exception as exc:  # counted and listed, never fatal
                passed, digest, note = False, "-", "raised %s: %s" % (
                    type(exc).__name__, exc)
            timings[i].append(time.perf_counter() - t0)
            results[i].append((passed, digest, note))
    rows = []
    for times, runs in zip(timings, results):
        digest = runs[0][1]
        notes = sorted({note for _, _, note in runs if note})
        if len({d for _, d, _ in runs}) > 1:
            notes.append("digests differ between passes")
        passed = all(p for p, _, _ in runs) and len(notes) == 0
        rows.append((passed, statistics.mean(times), digest,
                     "; ".join(notes), times))
    return rows, sum(row[1] for row in rows)


def print_items(items, rows):
    for i, (item, (passed, secs, digest, note, times)) in enumerate(
            zip(items, rows)):
        print("item %d %s %.4fs digest=%s inputs=%r timings=%s%s" % (
            i, "ok" if passed else "FAILED", secs, digest, item,
            ",".join("%.4f" % t for t in times),
            " -- " + note if note else ""))


def report(metrics, attempted, failed, samples):
    width = max(len(k) for k in metrics)
    print("%-*s %14s  %-6s %s" % (width, "metric", "value", "unit", "samples"))
    for name, (value, unit) in metrics.items():
        print("%-*s %14.6g  %-6s %s" % (width, name, value, unit,
                                        samples.get(name, "")))
    print("failed_frac %d/%d" % (failed, attempted))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def plain(args, workload):
    count = workload.count(args.seconds, PASSES)
    t0 = time.perf_counter()
    items = workload.setup(args.seed, count)
    setups = [time.perf_counter() - t0]
    rows, wall = run_items(workload, items)
    print_items(items, rows)
    for _ in range(args.setup_samples - 1):
        setups.append(float(child(args, "--setup-only")[-1]))
    times = [t for row in rows for t in row[4]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "item_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    samples = {"setup_s": "%d fresh processes" % len(setups),
               "wall_s": "mean of %d passes over %d items"
                         % (PASSES, len(items)),
               "item_p50_s": "%d timings: %d items, %d passes"
                             % (len(times), len(items), PASSES)}
    failed = sum(1 for row in rows if not row[0])
    report(metrics, len(items), failed, samples)


def traced(args, workload):
    import layers
    from tracing import Tracer

    untraced = child(args, "--trace", "0", "--setup-samples", "1")
    twin = {}
    for line in untraced:
        if line.startswith("item "):
            fields = line.split()
            twin[int(fields[1])] = fields[4]
    plain_wall = json.loads(untraced[-1])["metrics"]["wall_s"]["value"]

    # every traced module must be loaded before its names are rebound
    import flagcsm.cli  # noqa: F401
    import flagcsm.csm  # noqa: F401
    import flagcsm.rht  # noqa: F401
    import flagcsm.rules  # noqa: F401

    tracer = Tracer()
    layers.install(tracer)
    try:
        items = workload.setup(args.seed, workload.count(args.seconds, PASSES))
        rows, wall = run_items(workload, items)
    finally:
        tracer.restore()
    metrics = layers.metrics(tracer)
    for i, (passed, secs, digest, note, times) in enumerate(rows):
        if twin.get(i) != "digest=" + digest:
            rows[i] = (False, secs, digest, (note + "; " if note else "")
                       + "untraced output %s differs" % twin.get(i), times)
    print_items(items, rows)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - plain_wall, "s")
    metrics["trace.spans"] = (len(tracer.span_name), "count")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.tsv.gz"
                        % (args.workload, args.seed))
    tracer.write(path)
    print("spans written to %s" % os.path.relpath(path))
    failed = sum(1 for row in rows if not row[0])
    report(dict(sorted(metrics.items())), len(items), failed, {})


def run_all(args, names):
    """Each workload in its own fresh process; the last line maps each
    workload to its result."""
    results = {}
    for name in names:
        print("== %s" % name, flush=True)
        args.workload = name
        lines = child(args, "--trace", str(args.trace))
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flagcsm", "__init__.py")):
        sys.stderr.write("error: flagcsm sources not found in %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        run_all(args, list(WORKLOADS))
        return 0
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write("error: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(WORKLOADS)))
        return 2
    if args.setup_only:
        t0 = time.perf_counter()
        workload.setup(args.seed, workload.count(args.seconds, PASSES))
        print(time.perf_counter() - t0)
    elif args.trace:
        traced(args, workload)
    else:
        plain(args, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
