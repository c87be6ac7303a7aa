"""Run one benchmark workload; the last stdout line is its result as JSON.

    python3 perfbench/run.py --workload table-row --seed 2024 --seconds 36 --trace 0

Run from the root of a checkout: the program is imported from `src/` next to
this directory, never from an installed copy.  A run repeats whole rounds of
its workload's plan (set-up, bank-answered solves, direct-simulation
reference, checks) for about `--seconds` seconds, after an untimed warm-up on
the tiny size, and reports the median of each phase over the rounds.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates traced and
untraced rounds, prints the per-layer metrics of the traced rounds and the
tracing overhead, and writes the spans to perfbench/out/.
"""

import os

# One thread for BLAS and OpenMP, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

TIMED = ("setup", "solve", "reference")
COUNTS = {"stable.draws", "bank.normals", "flow.solves", "flow.forcing_calls",
          "fields.calls", "fields.rows"}


def import_program() -> None:
    """Put the checkout's src/ first on the path and make sure it is used."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import levybank
    except ImportError as exc:
        sys.exit(f"cannot import levybank from {src}: {exc}")
    if not Path(levybank.__file__).resolve().is_relative_to(src):
        sys.exit(f"levybank was imported from {levybank.__file__}, not from {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Round:
    phase_s: dict
    cpu_s: float
    checks: list
    failed: int
    report: str
    rss_after_setup_mb: float


def run_round(plan: list, tracer=None) -> Round:
    """Run every step of the plan once.  An exception fails that step and
    every later one, since they may depend on it."""
    # Free the previous round's cyclic garbage first, so each round starts
    # from the memory a fresh process would have (vn_estimate leaves its
    # arrays and the bank in a reference cycle; see CHANGES.md).
    gc.collect()
    state = {}
    phase_s = {}
    cpu = 0.0
    checks = []
    failed = 0
    rss_setup = None
    for i, step in enumerate(plan):
        if rss_setup is None and step.phase != "setup":
            rss_setup = peak_rss_mb()
        span = tracer.span("phase." + step.phase) if tracer else contextlib.nullcontext()
        w0, c0 = perf_counter(), process_time()
        try:
            with span:
                out = step.run(state)
        except Exception:
            print(f"step {step.name!r} failed:", file=sys.stderr)
            traceback.print_exc()
            failed = len(plan) - i
            break
        finally:
            phase_s[step.phase] = phase_s.get(step.phase, 0.0) + perf_counter() - w0
            if step.phase in TIMED:
                cpu += process_time() - c0
        if step.phase == "check":
            checks.append(out)
    return Round(phase_s, cpu, checks, failed, state.get("report", ""),
                 rss_setup if rss_setup is not None else peak_rss_mb())


def describe(i: int, r: Round, label: str = "") -> str:
    phases = ", ".join(f"{p} {r.phase_s.get(p, 0.0):.3f} s" for p in (*TIMED, "check"))
    return f"round {i}{label}: {phases}" + (f", {r.failed} steps failed" if r.failed else "")


def measure(plan, seconds, trace, instr):
    """Rounds until the next one would overrun `seconds`.  With tracing,
    rounds come in traced/untraced pairs whose order alternates."""
    plain, traced = [], []
    start = perf_counter()
    pair = 0
    while True:
        t0 = perf_counter()
        if not trace:
            plain.append(run_round(plan))
            print(describe(len(plain) - 1, plain[-1]), flush=True)
        else:
            for with_trace in ((True, False) if pair % 2 == 0 else (False, True)):
                if with_trace:
                    with instr.installed() as tracer:
                        r = run_round(plan, tracer)
                    traced.append((r, tracer))
                else:
                    r = run_round(plan)
                    plain.append(r)
                print(describe(pair, r, " traced" if with_trace else " untraced"), flush=True)
            pair += 1
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            return plain, traced


def median_phase(rounds, phase) -> float:
    return statistics.median(r.phase_s.get(phase, 0.0) for r in rounds)


def metric(name, value):
    unit = "count" if name in COUNTS else "MB" if name.endswith("_mb") else "s"
    return {"value": value, "unit": unit}


def trace_report(workload, seed, plain, traced, instr) -> dict:
    import tracing

    rounds = [r for r, _ in traced]
    per_round = [tracing.layer_metrics(t.spans) for _, t in traced]
    # Counts repeat exactly from round to round; median_low keeps them whole.
    out = {k: metric(k, (statistics.median_low if k in COUNTS else statistics.median)(
        m[k] for m in per_round)) for k in per_round[0]}
    walls = [sum(r.phase_s.get(p, 0.0) for p in TIMED) for r in rounds]
    cpus = [r.cpu_s for r in rounds]
    out["bank.peak_rss_mb"] = metric("bank.peak_rss_mb", rounds[0].rss_after_setup_mb)
    out["process.cpu_s"] = metric("process.cpu_s", statistics.median(cpus))
    out["process.offcpu_s"] = metric("process.offcpu_s",
                                     statistics.median(w - c for w, c in zip(walls, cpus)))
    out["trace.overhead_s"] = metric("trace.overhead_s", statistics.median(walls) - statistics.median(
        sum(r.phase_s.get(p, 0.0) for p in TIMED) for r in plain))

    for phase, (wall, layers, glue) in tracing.phase_accounting(traced[0][1].spans).items():
        print(f"phase {phase} (first traced round): wall {wall:.4f} s = layer self times "
              f"{layers:.4f} s + benchmark code {glue:.4f} s")
    for phase in (*TIMED, "check"):
        print(f"tracing overhead, {phase}: {median_phase(rounds, phase):.4f} s traced - "
              f"{median_phase(plain, phase):.4f} s untraced = "
              f"{median_phase(rounds, phase) - median_phase(plain, phase):+.4f} s")
    if instr.missing:
        print("wrapped names not found (their layer metrics read 0): " + ", ".join(instr.missing))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "missing": instr.missing,
                   "span": ["name", "start", "end", "parent", "count"],
                   "rounds": [t.spans for _, t in traced]}, fh)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the workload at a few records, for tests")
    args = ap.parse_args(argv)

    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        sys.exit("seed must be nonnegative")
    wl = workloads.WORKLOADS[args.workload]
    records = wl.records[args.size]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    instr = tracing.Instrumentation()
    try:
        warm = wl.plan(args.seed, wl.records["tiny"], workdir)
        run_round([s for s in warm if s.phase != "check"])
        plan = wl.plan(args.seed, records, workdir)
        print(f"workload {wl.name}: {records} records, seed {args.seed}, "
              f"{len(plan)} steps per round", flush=True)
        plain, traced = measure(plan, args.seconds, args.trace, instr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + [r for r, _ in traced]
    for c in rounds[0].checks:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    if rounds[0].report:
        print(rounds[0].report)
    bad = [(i, c) for i, r in enumerate(rounds[1:], 1) for c in r.checks if not c.ok]
    for i, c in bad:
        print(f"check {c.name} FAILED in round {i} ({c.detail})")

    if args.trace:
        metrics = trace_report(wl.name, args.seed, plain, traced, instr)
    else:
        metrics = {f"{p}_s": metric(f"{p}_s", median_phase(rounds, p)) for p in TIMED}
        metrics["peak_rss_mb"] = metric("peak_rss_mb", peak_rss_mb())
    result = {"correct": all(c.ok for r in rounds for c in r.checks),
              "attempted": len(plan) * len(rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
