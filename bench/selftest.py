"""Smoke-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload briefly (``--smoke``), untraced and traced, and checks
that

* the last output line has exactly the keys correct, attempted, failed and
  metrics, and every end-to-end (untraced) or per-layer (traced) metric of
  BENCHMARK.json with its unit;
* ``failed_frac`` is 0 and ``correct`` is true;
* in every traced pass, the children of each span fit inside it, so self
  times are never negative;
* the parity basis change shows where it should: ``displacement_matrix`` is
  busy on fig2_resonant and dynamics and idle on strong_coupling;
* without the package sources next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SEED = 3
sys.path.insert(0, str(BENCH_DIR))

from workloads import WHY  # noqa: E402


def run(workload, trace, cwd=ROOT, script=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=300)


def check_result(config, workload, trace, proc):
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, last
    expected = {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == expected, f"{workload} trace {trace}: metrics {got} != {expected}"
    for name, m in last["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    saved = json.loads((OUT_DIR / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    if not trace:
        printed = {"setup_s", "wall_s", "points_per_s", "points_per_ref_s", "solve_ms_p50",
                   "solve_ms_tail", "steps_per_s", "failed_frac", "peak_rss_mb"}
        assert printed <= set(saved["metrics"]), printed - set(saved["metrics"])
        assert all(saved["metrics"][name]["unit"] for name in printed)
        assert saved["metrics"]["failed_frac"]["value"] == 0, saved["metrics"]["failed_frac"]
        assert (saved["metrics"]["steps_per_s"]["value"] is not None) == (workload == "dynamics")
        for key in ("cpu", "nproc", "python", "numpy", "blas", "blas_threads", "git_commit"):
            assert key in saved["environment"], key
    return last["metrics"]


def check_spans(workload):
    doc = json.loads((OUT_DIR / f"{workload}-seed{SEED}-trace1.spans.json").read_text())
    assert doc["passes"], "no traced pass"
    for spans in doc["passes"]:
        assert spans, "empty traced pass"
        covered = [0.0] * len(spans)
        for name, start, end, parent, point, _ in spans:
            assert end >= start, name
            if parent is not None:
                assert spans[parent][4] == point or name == "solver.solve_spectrum", name
                covered[parent] += end - start
        for (name, start, end, *_), inner in zip(spans, covered):
            assert inner <= (end - start) + 1e-9, f"{workload}: children of {name} exceed it"


def check_missing_sources():
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("fig3a_detuned", 0, cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark ran without the package sources"
    assert "correct" not in proc.stdout, proc.stdout


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {}
    for workload in WHY:
        for trace in (0, 1):
            metrics = check_result(config, workload, trace, run(workload, trace))
        check_spans(workload)
        layers[workload] = {k: v["value"] for k, v in metrics.items()}
        print(f"ok {workload}", flush=True)
    assert layers["fig2_resonant"]["overlap.displacement_matrix.calls"] > 0
    assert layers["dynamics"]["overlap.displacement_matrix.calls"] > 0
    assert layers["strong_coupling"]["overlap.displacement_matrix.calls"] == 0
    assert layers["fig3a_detuned"]["overlap.displacement_matrix.calls"] \
        < layers["fig2_resonant"]["overlap.displacement_matrix.calls"]
    assert layers["dynamics"]["states.propagate_observables.steps"] > 0
    check_missing_sources()
    print("ok missing sources")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
