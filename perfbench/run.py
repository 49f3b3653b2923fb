"""Front-door-to-kernel scan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from
the seed, sets up the system (several cold starts), drives a closed-loop
load for ``--seconds``, checks every answer (a seeded sample on ``bulk``)
against the codon-table oracle and the planted-homolog ledger, and prints
as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same load runs with spans recorded around every call, the layer ladder
replays a sample of the workload's jobs in-process, the per-layer metrics
are printed instead, and a Chrome trace is written under
``.perfbench_work/``.  A wrong answer exits 1 without a result line; a
checkout without the program exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "jobs_per_s": "jobs/s",
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_pss_mb": "MiB",
}

#: Requests a run needs before its 90th percentile is printed: at least
#: ten samples beyond it.
TAIL_SAMPLES = 100

PER_LAYER_UNITS = {
    "core.bitscore.batch16_cells_per_s": "cells/s",
    "core.bitscore.batch1_ms": "ms",
    "core.bitscore.single_ms": "ms",
    "seq.fasta.read_s": "s",
    "host.scan.pack_s": "s",
    "host.scan.serial_ms": "ms",
    "host.scan.parallel_ms": "ms",
    "host.scan_session.open_s": "s",
    "host.scan_session.batch1_ms": "ms",
    "host.scan_session.batch1_ratio": "ratio",
    "host.scan_session.batch16_cells_per_s": "cells/s",
    "host.scan_session.tasks_per_batch": "count",
    "host.scan_session.retries": "count",
    "host.shards.batch_ms": "ms",
    "host.shards.ratio": "ratio",
    "host.shards.retries": "count",
    "service.daemon.queue_wait_ms": "ms",
    "service.daemon.execute_ms": "ms",
    "service.daemon.jobs_per_batch": "count",
    "service.cache.hit_ratio": "ratio",
    "service.server.post_ms": "ms",
    "service.server.get_ms": "ms",
    "service.server.polls_per_job": "count",
    "service.server.self_ms": "ms",
    "service.server.response_bytes_per_job": "bytes",
}


def _locate_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2 without it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"fatal: no program source under {source}; run from a checkout root",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(source))


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (numpy's default)."""
    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else 0.0


def end_to_end(workload: Any, tally: Any) -> Dict[str, float]:
    """The gated metrics; throughput is the median over one-second windows."""
    return {
        "latency_p50_ms": 1e3 * percentile(tally.latencies, 0.5),
        "jobs_per_s": _median([jobs / wall for wall, jobs, _ in tally.windows]),
        "cells_per_s": _median([cells / wall for wall, _, cells in tally.windows]),
        "setup_s": _median(workload.setup_samples),
        "peak_pss_mb": workload.peak_pss_mib,
    }


def per_layer(workload: Any, tally: Any, ladder: Any) -> Dict[str, float]:
    metrics = dict(ladder.metrics)
    # Service figures come from the daemon the load drove; oneshot has none,
    # so they come from the ladder's in-process HTTP rung instead.
    source = tally if tally.post_s else ladder.probe
    counters = getattr(workload, "counters", ladder.probe_counters)
    metrics.update(counters.metrics(source))
    metrics.update({
        "service.daemon.queue_wait_ms": 1e3 * _median(source.queue_wait_s),
        "service.daemon.execute_ms": 1e3 * _median(source.execute_s),
        "service.server.post_ms": 1e3 * _median(source.post_s),
        "service.server.get_ms": 1e3 * _median(source.get_s),
        "service.server.polls_per_job": statistics.fmean(source.polls),
        "service.server.self_ms": 1e3 * _median(source.self_s),
        "service.server.response_bytes_per_job": statistics.fmean(source.result_bytes),
    })
    return metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("interactive", "bulk", "sharded-mixed", "oneshot"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _locate_program()

    from client import adopt_orphans, reap_descendants

    adopt_orphans()
    try:
        return _run(args)
    finally:
        reap_descendants()


def _run(args: argparse.Namespace) -> int:
    from inputs import generate
    from ladder import Ladder, Trace
    from workloads import WORKLOADS, Checker, CheckError

    WORK.mkdir(exist_ok=True)
    inputs = generate(args.workload, args.seed)
    trace = Trace() if args.trace else None
    checker = Checker(inputs)
    workload = WORKLOADS[args.workload](ROOT, WORK, inputs, checker, trace)
    tally = workload.run(args.seconds)
    try:
        checked = checker.verify()
        ladder = None
        if trace is not None:
            ladder = Ladder(args.workload, args.seed, workload.fasta, trace)
            ladder.run()
            checked += ladder.checker.verify()
    except CheckError as error:
        print(f"fatal: wrong answer: {error}", file=sys.stderr)
        return 1

    measured = end_to_end(workload, tally)
    print(
        f"{args.workload} seed={args.seed}: {len(tally.latencies)} requests, "
        f"{tally.jobs} jobs answered in {tally.wall:.2f} s, {checked} checked "
        f"against the oracle, {len(inputs.plants)} plants found; "
        f"setup samples {[round(s, 3) for s in workload.setup_samples]}; "
        f"cpu steal while timing {100 * tally.steal_ticks / max(tally.cpu_ticks, 1):.1f}%"
    )
    for name, value in measured.items():
        samples = {
            "latency_p50_ms": f" (n={len(tally.latencies)})",
            "jobs_per_s": f" (median of {len(tally.windows)} windows)",
            "cells_per_s": f" (median of {len(tally.windows)} windows)",
            "setup_s": f" (median of {len(workload.setup_samples)} cold starts)",
        }.get(name, "")
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}{samples}")
    if len(tally.latencies) >= TAIL_SAMPLES:
        p90 = 1e3 * percentile(tally.latencies, 0.9)
        print(f"  latency_p90_ms = {p90:.6g} ms (n={len(tally.latencies)}, not gated)")
    if ladder is not None:
        print("traced run (end-to-end under tracing, compare with an untraced run):")
        print("  " + ", ".join(f"{k}={v:.6g}" for k, v in measured.items()))
        print("lone-job ladder (median ms, added over the layer below):")
        below = 0.0
        for layer, seconds in ladder.lone:
            print(f"  {layer:<20} {1e3 * seconds:9.2f} ms  {1e3 * (seconds - below):+9.2f} ms")
            below = seconds
        metrics = per_layer(workload, tally, ladder)
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {PER_LAYER_UNITS[name]}")
        path = trace.write(WORK / f"trace_{args.workload}_{args.seed}.json")
        print(f"trace: {path.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        metrics = measured
        units = END_TO_END_UNITS
    result = {
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
