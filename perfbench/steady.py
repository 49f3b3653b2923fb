"""Steadiness check: repeat each workload over seeds and compare spreads to bounds.

    python3 perfbench/steady.py --runs 10 --sets 2 --traced 3
    python3 perfbench/steady.py --workloads sharded-mixed --runs 5

Each set runs every workload once per seed, rotating the workload order
from seed to seed so no workload always runs first.  For each end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median, against the metric's bound in
``BENCHMARK.json``; with two sets it also prints how far the second set's
median moved in the worse direction.  ``--traced N`` adds a traced run of
each workload on the first ``N`` seeds and reports the tracing overhead:
the median of the traced runs' own end-to-end figures against the
untraced median.  ``--out`` keeps every run's figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["steal_pct"] = float(lines[0].rsplit("cpu steal while timing ", 1)[1].rstrip("%"))
    traced_line = next(
        (line for line in lines if line.startswith("  latency_p50_ms=")), ""
    )
    result["traced_e2e"] = {
        key: float(value)
        for key, value in (
            item.split("=") for item in traced_line.strip().split(", ") if item
        )
    }
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first`` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0, metavar="N",
                        help="also trace each workload on the first N seeds")
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs: Dict[str, List[List[Dict[str, Any]]]] = {w: [] for w in chosen}
    traced: Dict[str, List[Dict[str, Any]]] = {w: [] for w in chosen}
    seed = args.first_seed
    for set_index in range(args.sets):
        for w in chosen:
            runs[w].append([])
        for i in range(args.runs):
            order = chosen[i % len(chosen):] + chosen[: i % len(chosen)]
            for w in order:
                result = run_once(w, seed, args.seconds, 0)
                runs[w][set_index].append(result)
                print(f"set {set_index + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                ) + f", steal={result['steal_pct']:.1f}%", flush=True)
                if set_index == 0 and i < args.traced:
                    traced[w].append(run_once(w, seed, args.seconds, 1))
            seed += 1

    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "traced": traced}, indent=1))
    print()
    ok = True
    for w in chosen:
        shares = {
            (r["failed"] / r["attempted"]) for s in runs[w] for r in s
        }
        steal = sorted(r["steal_pct"] for s in runs[w] for r in s)
        print(f"{w}: failed share per run {sorted(shares)}; "
              f"cpu steal while timing {steal[0]:.1f}-{steal[-1]:.1f}%")
        for name, metric in metrics.items():
            cells = []
            first = None
            for set_runs in runs[w]:
                stats = spread([r["metrics"][name]["value"] for r in set_runs])
                cells.append(
                    f"median {stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] "
                    f"spread {stats['spread']:.3f}"
                )
                if name != "setup_s" and stats["spread"] > metric["bound"]:
                    ok = False
                if first is None:
                    first = stats["median"]
                else:
                    moved = worse_share(first, stats["median"], metric["better"])
                    cells.append(f"second set worse by {moved:+.3f}")
                    ok = ok and moved <= metric["bound"]
            print(f"  {name:<15} bound {metric['bound']:.2f}  " + " | ".join(cells))
        if traced[w]:
            shifts = []
            for name in ("latency_p50_ms", "jobs_per_s"):
                untraced = statistics.median(r["metrics"][name]["value"] for r in runs[w][0])
                under = statistics.median(r["traced_e2e"][name] for r in traced[w])
                shifts.append(f"{name} {under / untraced - 1:+.3f}")
            print(f"  tracing overhead ({len(traced[w])} traced runs): " + ", ".join(shifts))
    print("steady" if ok else "NOT steady: a spread or a median shift exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
