"""Run one workload of the enfkit benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; enfkit is imported from its `src/`.  All
load comes from this one process and thread.  With `--trace 0` the run sets
up the workload's input pool several times (the median is `setup_s`), then
measures whole rounds of seeded inputs until `--seconds` is reached,
checks every output (untimed) and prints the end-to-end metrics, in
host-speed normalised time (hostspeed.py).  With
`--trace 1` it runs the same rounds untraced to warm caches, then each
round traced and again untraced, and prints the per-layer metrics of the
traced pass and its overhead against the untraced one.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A reproducibility record goes to `.perfbench_work/runs/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from hostspeed import HOST, REFERENCE_S, Scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TAIL_BATCH = 400

#: End-to-end metrics: name -> unit.  An operation is a verdict on the two
#: verify workloads, a compile on compile-ladder and a step on enforce-online;
#: a command is one verify run, one parse-and-compile or one simulate run.
#: wall_s is the median command wall time and ops_per_s the median over
#: commands of decided operations per second: the pools are heavy-tailed, and
#: medians keep one slow input from deciding a run.  The slow inputs show in
#: op_latency_tail_ms and, past the deadline, in decided_share.  The tail is
#: taken per round, or per run-order chunk of at least TAIL_BATCH operations
#: of a round that has twice that many, and the median over these batches is
#: reported.  Every round has the same stratified shape, so its tail is
#: comparable from seed to seed; the ten slowest operations of a whole run
#: come from the one or two slowest inputs drawn, which differ from seed to
#: seed by a factor of two.  All times are host-speed normalised (hostspeed.py).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_tail_ms": "ms",
}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "enfkit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_enfkit():
    if not (SRC / "enfkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no enfkit sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import enfkit

    if Path(enfkit.__file__).resolve().parent != (SRC / "enfkit").resolve():
        sys.exit(f"perfbench: imported enfkit from {enfkit.__file__}, not from {SRC}")


def tail(latencies):
    """(value, percentile, samples): the highest percentile that still has
    at least ten samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - 11)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def batched_tail(latencies, round_ops):
    """(median tail over batches, percentiles, samples per batch): a batch
    is one round (first, end operation), and a round of n >= 2 * TAIL_BATCH
    operations is cut in run order into n // TAIL_BATCH equal chunks."""
    batches = []
    for first, end in round_ops:
        k = max(1, (end - first) // TAIL_BATCH)
        batches.extend(
            latencies[first + (end - first) * j // k : first + (end - first) * (j + 1) // k]
            for j in range(k)
        )
    tails = [tail(batch) for batch in batches]
    return (
        statistics.median(value for value, _, _ in tails),
        [round(percentile, 2) for _, percentile, _ in tails],
        [n for _, _, n in tails],
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, prepared, order, seconds):
    """Whole rounds until the measured time reaches `seconds`, so the last
    round may run past it.  Each round's outputs are checked right after it,
    outside its timing, so that no evidence piles up in memory.  Also returns
    the peak RSS after the first round: enfkit's memory grows with every
    round (by about 6 MB per compile-ladder round), and how many rounds fit
    in `seconds` depends on the host's speed, while the first round is the
    same work for a seed."""
    from workloads import Ops

    ops, times, rounds_used, rss_mb = Ops(), [], [], None
    while True:
        drawn, evidence = next(order), []
        began, first = HOST.clock(), len(ops)
        workload.run_round(drawn, prepared, ops, evidence)
        times.append(HOST.clock() - began)
        ops.rounds.append((first, len(ops)))
        workload.check(prepared, evidence, ops)
        rounds_used.append(drawn)
        if rss_mb is None:
            rss_mb = peak_rss_mb()
        if sum(times) >= seconds:
            return ops, times, rounds_used, rss_mb


def traced_rounds(traced, untraced, prepared, rounds_used, trace):
    """Each round traced, then the same round untraced.  Alternating round
    by round keeps the host's speed, which drifts over minutes, out of the
    overhead.  Returns the traced pass's operations and evidence and the
    two passes' times."""
    from workloads import Ops

    ops, evidence, traced_s, untraced_s = Ops(), [], 0.0, 0.0
    for drawn in rounds_used:
        with trace:
            began = time.perf_counter()
            traced.run_round(drawn, prepared, ops, evidence)
            traced_s += time.perf_counter() - began
        began = time.perf_counter()
        untraced.run_round(drawn, prepared, Ops(), [])
        untraced_s += time.perf_counter() - began
    return ops, evidence, traced_s, untraced_s


def end_to_end(ops, setup_spans, scale, rss_mb):
    """The end-to-end metrics, with every span measured through `scale`,
    and under "tail" the tail's (value, percentiles, samples)."""
    latencies = ops.latencies(scale)
    walls = ops.walls(scale)
    decided = [failure is None for failure in ops.failure]
    tail_value, tail_pct, samples = batched_tail(latencies, ops.rounds)
    return {
        "setup_s": statistics.median(scale.span(*span) for span in setup_spans),
        "wall_s": statistics.median(wall for wall, _, _ in walls),
        "decided_share": sum(decided) / len(ops),
        "peak_rss_mb": rss_mb,
        "ops_per_s": statistics.median(
            sum(decided[first:end]) / wall for wall, first, end in walls
        ),
        "op_latency_p50_ms": statistics.median(latencies) * 1e3,
        "op_latency_tail_ms": tail_value * 1e3,
        "tail": (tail_value, tail_pct, samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_enfkit()
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if not args.trace:
        HOST.start()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        began = HOST.clock()
        prepared = workload.prepare()
        setup_spans.append((began, HOST.clock()))

    order = workloads.rounds(
        workload.items, workload.per_stratum, random.Random(f"{workload.name}:{args.seed}")
    )
    if args.trace:
        _, times, rounds_used, _ = measure(workload, prepared, order, args.seconds / 3)
        # Fresh instances restart the workload's own seeded choices, so the
        # three passes run exactly the same operations.
        traced, untraced = (workloads.WORKLOADS[args.workload](args.seed) for _ in range(2))
        trace = tracer.Tracer()
        ops, evidence, traced_s, untraced_s = traced_rounds(
            traced, untraced, prepared, rounds_used, trace
        )
        traced.check(prepared, evidence, ops)
        metrics = trace.reduce()
        metrics["trace.traced_s"] = traced_s
        metrics["trace.untraced_s"] = untraced_s
        metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
        units = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    else:
        ops, times, rounds_used, rss_mb = measure(workload, prepared, order, args.seconds)
        HOST.stop()
        metrics = end_to_end(ops, setup_spans, HOST.scale(), rss_mb)
        raw = end_to_end(ops, setup_spans, Scale([]), rss_mb)
        kernel_s = [took for _, took in HOST.samples]
        tail_value, tail_pct, samples = metrics.pop("tail")
        raw.pop("tail")
        units = END_TO_END
    used = [item for drawn in rounds_used for item in drawn]

    failures = Counter(failure for failure in ops.failure if failure is not None)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "inputs_sha256": workloads.digest(workload.input_text(prepared, item) for item in used),
        "items": [item["key"] for item in used],
        "rounds": len(times),
        "failures": dict(failures),
        "failure_details": ops.details[:20],
    }
    if not args.trace:
        record["tail_percentile"] = tail_pct
        record["samples"] = samples
        record["unnormalised"] = raw
        record["kernel_samples"] = len(kernel_s)
        record["kernel_median_s"] = statistics.median(kernel_s)
        record["round_s"] = times
    out = {
        "correct": "wrong" not in failures,
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = out
    runs = workloads.WORK_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(times)} rounds, {len(ops)} {workload.op}s, inputs {record['inputs_sha256'][:16]}")
    print(f"python {record['python']}, nproc {record['nproc']}, commit {record['commit']}, "
          f"source {record['source_sha256'][:16]}")
    for name, count in sorted(failures.items()):
        print(f"failed {name}: {count}")
    for detail in ops.details[:5]:
        print(f"  {detail}")
    if not args.trace:
        op = workload.op
        scale, unit = (1e3, "us") if op == "step" else (1.0, "ms")
        print(f"host-speed kernel: median {record['kernel_median_s'] * 1e3:.4g} ms over "
              f"{len(kernel_s)} samples, reference {REFERENCE_S * 1e3:.4g} ms; times below "
              f"are normalised to the reference")
        print("unnormalised: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print(f"{op}s_per_s {metrics['ops_per_s']:.6g} 1/s")
        print(f"{op}_latency_p50_{unit} {metrics['op_latency_p50_ms'] * scale:.6g} {unit}")
        print(f"{op}_latency_tail_{unit} {metrics['op_latency_tail_ms'] * scale:.6g} {unit} "
              f"(median over {len(samples)} batches of p{min(tail_pct):.2f}-p{max(tail_pct):.2f}, "
              f"{min(samples)}-{max(samples)} samples each)")
    for name, value in out["metrics"].items():
        print(f"{name} {value['value']:.6g} {value['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
