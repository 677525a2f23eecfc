"""Run the benchmark several times per workload and summarise it as JSON.

    python3 perfbench/collect.py --out perfbench/baseline.json

For each workload of BENCHMARK.json: RUNS untraced runs with seeds 1..RUNS,
each in a fresh process, then one traced run with seed 1.  For every
end-to-end metric it records the values, their median and quartiles, and the
spread (interquartile distance over the median) next to the metric's bound.
For each calibrated metric it also records both figures each run prints,
raw and calibrated, with their spreads: the evidence that calibration helps.
For the traced run it records every per-layer metric.  The notes a run
prints (tail latency, fail ratio, pass count, environment) are kept as well.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if not line.startswith("{")]
    for key in ("env", "figures"):
        result[key] = next((json.loads(line)[key] for line in lines
                            if line.startswith('{"%s"' % key)), None)
    return result


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"run_seconds": bench["run_seconds"], "runs": RUNS, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(run_once(name, seed, bench["run_seconds"], 0))
            print(f"{name} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], **summarise(
                    [r["metrics"][m["name"]]["value"] for r in runs], m["bound"]))
                for m in bench["end_to_end"]
            },
            "figures": {
                metric: {kind: summarise([r["figures"][kind][metric] for r in runs], bound)
                         for kind in ("raw", "calibrated")}
                for metric, bound in ((m["name"], m["bound"]) for m in bench["end_to_end"])
                if metric in runs[0]["figures"]["raw"]
            },
            "notes_seed_1": runs[0]["notes"],
        }
        summary["env"] = runs[0]["env"]
        traced = run_once(name, 1, bench["run_seconds"], 1)
        entry["per_layer_seed_1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace_notes_seed_1"] = traced["notes"]
        summary["workloads"][name] = entry
    text = json.dumps(summary, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
