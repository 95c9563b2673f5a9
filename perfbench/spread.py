"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fibre-universal --seeds 1-10 [--seconds 40] [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric its median, its quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, next to the bound BENCHMARK.json fixes.
With --out, also writes every value and these figures as JSON.
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


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=180)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
    table = {}
    for name, unit in units.items():
        table[name] = {"unit": unit, **summarise(
            [r["metrics"][name]["value"] for r in results])}
        bound = bounds.get(name)
        row = table[name]
        print(f"{name:14s} median {row['median']:.4g} {unit}  q1 {row['q1']:.4g}"
              f"  q3 {row['q3']:.4g}  spread {row['spread']:.1%}"
              + (f"  (bound {bound:.0%})" if bound else ""))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": seconds,
            "seeds": _seeds(args.seeds), "metrics": table,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
