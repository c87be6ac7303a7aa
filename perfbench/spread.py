"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --label set1
    python3 perfbench/spread.py --compare perfbench/out/spread-set1.json perfbench/out/spread-set2.json

Runs are sequential and interleaved across workloads (seed 1 of every
workload, then seed 2, ...), so a slow spell of the machine touches every
workload alike.  For each end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) /
median, and writes the raw results to perfbench/out/spread-<label>.json.
`--compare` prints, per metric, how far the second set's median is from the
first's, as a share of the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(bench: dict, results: dict) -> None:
    for workload, runs in results.items():
        fails = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"(failed, attempted): {sorted(fails)}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {m['name']:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:.3f}  (bound {m['bound']})")


def compare(bench: dict, first: dict, second: dict) -> None:
    for workload in first:
        for m in bench["end_to_end"]:
            a, b = ([r["metrics"][m["name"]]["value"] for r in s[workload]]
                    for s in (first, second))
            change = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            print(f"{workload:<10} {m['name']:<12} {statistics.median(a):10.4f} -> "
                  f"{statistics.median(b):10.4f}  {change:+.3f}  (bound {m['bound']})")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--label", default="spread")
    ap.add_argument("--compare", nargs=2, metavar="JSON")
    args = ap.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(bench, first, second)
        return 0
    results = {w: [] for w in args.workloads}
    for seed in seeds_from(args.seeds):
        for w in args.workloads:
            results[w].append(run_once(bench, w, seed, args.seconds))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in results[w][-1]["metrics"].items()),
                flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.label}.json").write_text(json.dumps(results, indent=1))
    summarize(bench, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
