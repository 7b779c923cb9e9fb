"""Measure and record the benchmark baseline for the current checkout.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs every workload of BENCHMARK.json untraced once per seed 1..10, then
the same ten seeds again as a second set, then once traced with seed 1,
one run at a time.  It writes each first-set run's result and `run`
record; for every end-to-end metric the median, the quartiles and their
spread as a share of the median, of both sets; and the second set's
median as a share of the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {"run": json.loads(lines[-2])["run"], "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [one_run(wl, seed, seconds, 0) for seed in SEEDS]
        set1 = summarize(runs)
        set2 = summarize([one_run(wl, seed, seconds, 0) for seed in SEEDS])
        traced = one_run(wl, 1, seconds, 1)
        doc["workloads"][wl] = {
            "end_to_end": set1,
            "second_set": set2,
            "second_over_first": {k: set2[k]["median"] / v["median"] for k, v in set1.items()},
            "per_layer_seed1": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "runs": runs,
            "traced_run": traced["run"],
        }
        for label, summary in (("set 1", set1), ("set 2", set2)):
            print(f"{wl} {label}: " + ", ".join(
                f"{k} {v['median']:.4g} (iqr/med {v['iqr_over_median']:.3f})"
                for k, v in summary.items()), flush=True)
    first = next(iter(doc["workloads"].values()))["runs"][0]["run"]
    doc |= {k: first[k] for k in ("commit", "src_sha256", "python", "nproc", "dont_write_bytecode")}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
