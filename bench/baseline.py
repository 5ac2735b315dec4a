"""Run the benchmark over several seeds and summarise it as a BENCH_<label>.json file.

    python3 bench/baseline.py --label seed

runs every workload of BENCHMARK.json once on each of SEEDS with ``--trace 0``
and on each of TRACE_SEEDS with ``--trace 1``, one run at a time, and writes the
median and quartiles of every metric per workload to
``bench/results/BENCH_<label>.json``. It also prints each end-to-end metric's
spread (quartile distance over median) beside the bound BENCHMARK.json gives
it, which is how the benchmark's steadiness is checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)


def run_once(config, workload, seed, trace):
    """One run's saved result, which holds every printed metric, gated or not."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    saved = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    result = json.loads(saved.read_text())
    result["run_wall_s"] = elapsed
    return result


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if None in values:  # steps_per_s outside dynamics
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / abs(med) if med else None,
                         "values": values}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    doc = {"label": args.label, "run_seconds": config["run_seconds"],
           "seeds": list(SEEDS), "trace_seeds": list(TRACE_SEEDS), "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        plain = [run_once(config, workload, seed, 0) for seed in SEEDS]
        traced = [run_once(config, workload, seed, 1) for seed in TRACE_SEEDS]
        entry = {"correct": all(r["correct"] for r in plain + traced),
                 "attempted": sum(r["attempted"] for r in plain + traced),
                 "failed": sum(r["failed"] for r in plain + traced),
                 "run_wall_s": [r["run_wall_s"] for r in plain + traced],
                 "end_to_end": summarise(plain), "per_layer": summarise(traced)}
        doc["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}"
              f"/{entry['attempted']}, {sum(entry['run_wall_s']):.0f} s for"
              f" {len(entry['run_wall_s'])} runs")
        for name, stats in entry["end_to_end"].items():
            bound = bounds.get(name)
            if stats["spread"] is None:
                note = ""
            elif bound is None:
                note = f"spread {stats['spread']:.4f} (not in BENCHMARK.json)"
            else:
                note = f"spread {stats['spread']:.4f} (bound {bound})" + (
                    "" if stats["spread"] <= bound / 3 else "  <-- above a third of the bound")
            print(f"  {name:<14} median {stats['median']:.6g} {stats['unit']:<5} {note}",
                  flush=True)
        doc["environment"] = plain[0]["environment"]
    out = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
