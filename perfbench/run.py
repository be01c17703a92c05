#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-online --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36     # every workload, both modes

``--trace 0`` measures the end-to-end metrics with no tracing anywhere.
``--trace 1`` measures the per-layer metrics: it alternates untraced
repetitions with repetitions under the outside-in timing wrappers of
``layers.py``. Every repetition checks the program's outputs; the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``. The exit code is non-zero when an output check or
a determinism check fails.

See ``perfbench/README.md`` for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Determinism records and span dumps (ignored by git).
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: The workload seed used unless another is given. README.md names the
#: seed held back for confirming a claimed gain.
DEFAULT_SEED = 0

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("interval_p50_ms", "ms"),
    ("interval_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("avg_jct_s", "sim_s"),
    ("makespan_s", "sim_s"),
    ("completed_share", "ratio"),
)
SETUP_PROBES = 3
SETUP_SLICES = 20
#: The layer each workload is built to stress, in workload order.
STRESSED_LAYERS = ("sim.runtime.view.s", "schedulers.schedule.s", "k8s.reconcile.s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="build the workload's inputs and program, print 'ready', exit",
    )
    return parser.parse_args(argv)


# -- end-to-end measurement ------------------------------------------------------
def measure_setup(workloads, workload, seed):
    """Median seconds from process start to the first interval.

    Each probe is a fresh interpreter that imports the program, generates
    the workload and builds the cluster or API server, then prints
    ``ready``; the time to that line is one set-up. Calibration slices
    just before and after each probe scale it to the reference speed.
    """
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        gauge = workloads.SpeedGauge()
        for _ in range(SETUP_SLICES):
            gauge.sample()
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            line = child.stdout.readline().strip()
            host_s = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        for _ in range(SETUP_SLICES):
            gauge.sample()
        samples.append(host_s / gauge.slowdown)
    return statistics.median(samples)


def percentile_ms(samples, q):
    """The q-th percentile (q in 1..99) of *samples* seconds, in milliseconds."""
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_repeatedly(workloads, name, seed, deadline, between=None):
    """Repeat the workload until another repetition would end past *deadline*.

    ``between(results)`` is called after every repetition and may run more
    work (the traced repetitions); its time counts against the budget too.
    At least one repetition always runs.
    """
    setup_fn, run_fn = workloads.WORKLOADS[name]
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_fn(setup_fn(seed)))
        if between is not None:
            between(results)
        now = time.perf_counter()
        if now + (now - start) / len(results) > deadline:
            return results


def describe(kind, results):
    """One line per kind of run: each repetition's run_s, p50/p90, slowdown."""
    cells = " ".join(
        f"{r.run_s:.2f}s({percentile_ms(r.intervals, 50):.1f}/"
        f"{percentile_ms(r.intervals, 90):.1f}ms,x{r.slowdown:.2f})"
        for r in results
    )
    return f"{len(results)} {kind} runs of {len(results[0].intervals)} intervals: {cells}"


def end_to_end(workloads, name, seed, deadline):
    setup_s = measure_setup(workloads, name, seed)
    results = run_repeatedly(workloads, name, seed, deadline)
    first = results[0]
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(r.run_s for r in results),
        "interval_p50_ms": statistics.median(
            percentile_ms(r.intervals, 50) for r in results
        ),
        "interval_p90_ms": statistics.median(
            percentile_ms(r.intervals, 90) for r in results
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "avg_jct_s": first.avg_jct_s,
        "makespan_s": first.makespan_s,
        "completed_share": first.completed_share,
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return results, metrics, [describe("untraced", results)]


# -- per-layer measurement -------------------------------------------------------
def per_layer(workloads, name, seed, deadline):
    import layers

    untraced, traced = [], []

    def traced_run(results):
        untraced.append(results[-1])
        traced.append(layers.traced_run(workloads, name, seed))

    run_repeatedly(workloads, name, seed, deadline, between=traced_run)
    # Report the traced repetition with the median run_s; counts are the
    # same in every traced repetition (checked below).
    median = sorted(traced, key=lambda t: t.result.run_s)[len(traced) // 2]
    overhead = statistics.median(t.result.run_s for t in traced) / statistics.median(
        r.run_s for r in untraced
    ) - 1.0
    metrics = layers.layer_metrics(median, overhead)
    os.makedirs(STATE_DIR, exist_ok=True)
    median.recorder.write(os.path.join(STATE_DIR, f"spans-{name}.csv"))
    problems = []
    if any(t.counts != median.counts for t in traced):
        problems.append("per-layer counts differ between traced runs")
    notes = [describe("untraced", untraced), describe("traced", [t.result for t in traced])]
    return untraced + [t.result for t in traced], metrics, median.counts, problems, notes


# -- determinism -----------------------------------------------------------------
def source_digest():
    """A digest of the program and the benchmark, keying determinism records."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for file in sorted(files):
                if file.endswith(".py"):
                    path = os.path.join(folder, file)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_determinism(name, seed, results, counts):
    """Deterministic outputs must repeat within this run and across runs.

    Every run of this process must give the same fingerprint; so must
    every earlier run of the same source on this seed, traced or not (the
    fingerprints are recorded under ``.perfbench/``). Per-layer counts
    are compared with earlier traced runs the same way.
    """
    problems = []
    prints = [r.fingerprint() for r in results]
    if any(p != prints[0] for p in prints):
        problems.append(f"outcomes differ between runs of one seed: {prints}")
    record = {"fingerprint": prints[0]}
    if counts is not None:
        record["counts"] = counts
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"det-{source_digest()}-{name}-{seed}.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as handle:
            stored = json.load(handle)
    for key, value in record.items():
        if key not in stored:
            stored[key] = value
        elif stored[key] != json.loads(json.dumps(value)):
            problems.append(f"{key} differ from an earlier run of this seed")
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(stored, handle, sort_keys=True)
    os.replace(tmp, path)
    return problems


# -- command line ----------------------------------------------------------------
def run_one(args, started):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)} or 'all'"
        )
    counts = None
    problems = []
    # The whole run, set-up probes and analysis included, fits in --seconds
    # (less the time a final analysis and determinism check take).
    deadline = started + args.seconds
    try:
        if args.trace:
            results, metrics, counts, problems, notes = per_layer(
                workloads, args.workload, args.seed, deadline
            )
        else:
            results, metrics, notes = end_to_end(
                workloads, args.workload, args.seed, deadline
            )
    except Exception as exc:  # a run that raises fails every operation
        traceback.print_exc()
        print(f"# CHECK FAILED: the run raised {exc!r}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for r in results:
        problems += r.violations
    problems += check_determinism(args.workload, args.seed, results, counts)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"#   {note}")
    for metric, entry in metrics.items():
        print(f"#   {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r.intervals) for r in results),
        "failed": 0,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    code = 0
    shares = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = completed.stdout.splitlines()
            print("\n".join(line for line in lines if line.startswith("#")), flush=True)
            code = code or completed.returncode
            if trace and lines:
                shares[name] = json.loads(lines[-1])["metrics"]
    print("# busy share of the traced run_s: workload, then each target layer")
    for name, m in shares.items():
        if not m:
            continue
        run_s = m["obs.traced_run_s"]["value"]
        cells = " ".join(
            f"{layer}={m[layer]['value'] / run_s:.3f}" for layer in STRESSED_LAYERS
        )
        print(f"#   {name:14s} {cells}")
    return code


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        # Measure the checkout's program, never a copy installed elsewhere.
        print(f"no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload][0](args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, started)


if __name__ == "__main__":
    sys.exit(main())
