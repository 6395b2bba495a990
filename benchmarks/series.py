"""Run sets of benchmark runs, summarise one set, compare two.

    python3 benchmarks/series.py run --seeds 1-10 --out benchmarks/out/parent.jsonl
    python3 benchmarks/series.py summary benchmarks/out/parent.jsonl
    python3 benchmarks/series.py compare benchmarks/out/parent.jsonl benchmarks/out/change.jsonl

``run`` calls run.py once per workload of BENCHMARK.json and seed, each
in its own process, with the run length of BENCHMARK.json, and appends
every result line, with its workload and seed, to a JSON-lines file.
``summary`` prints per workload and end-to-end metric the median, the
quartiles and the spread (interquartile distance over the median) next
to the metric's bound. ``compare`` prints both sides'
medians and quartiles, how much worse the second side's median is, and
whether that stays within the bound; it also prints fits attempted and
failed per side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args) -> int:
    bench = spec()
    for workload in bench["workloads"]:
        name = workload["name"]
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{name} seed {seed}: exit {done.returncode} {last[0]}", flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            with open(args.out, "a") as handle:
                handle.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace,
                                         "result": json.loads(last[0])}) + "\n")
    return 0


def load(path: str, trace: int = 0) -> dict:
    """workload -> list of records of untraced (or traced) runs."""
    runs = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] == trace:
                runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(records, name) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records]


def fits(records) -> str:
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    incorrect = sum(not r["result"]["correct"] for r in records)
    return f"{len(records)} runs, {attempted} fits attempted, {failed} failed, {incorrect} incorrect"


def cmd_summary(args) -> int:
    runs = load(args.runs, args.trace)
    metrics = spec()["end_to_end"] if not args.trace else spec()["per_layer"]
    for workload, records in runs.items():
        print(f"{workload}: {fits(records)}")
        for metric in metrics:
            q1, q2, q3 = quartiles(metric_values(records, metric["name"]))
            line = f"  {metric['name']:<44} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
            if "bound" in metric:
                spread = (q3 - q1) / q2
                line += f" spread {spread:.4f} bound {metric['bound']} ({spread / metric['bound']:.2f} of it)"
            print(line + f" {metric['unit']}")
    return 0


def cmd_compare(args) -> int:
    before, after = load(args.before), load(args.after)
    worse_any = False
    for workload in before:
        if workload not in after:
            print(f"{workload}: missing from {args.after}")
            continue
        print(f"{workload}")
        print(f"  before: {fits(before[workload])}")
        print(f"  after:  {fits(after[workload])}")
        for metric in spec()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b1, b2, b3 = quartiles(metric_values(before[workload], name))
            a1, a2, a3 = quartiles(metric_values(after[workload], name))
            change = (a2 - b2) / b2
            worse = change if metric["better"] == "lower" else -change
            verdict = "within bound" if worse <= bound else "WORSE than bound"
            worse_any |= worse > bound
            print(f"  {name:<14} before {b2:.6g} [{b1:.6g}, {b3:.6g}]  after {a2:.6g} "
                  f"[{a1:.6g}, {a3:.6g}] {metric['unit']}  worse by {worse:+.2%}, "
                  f"bound {bound:.0%}: {verdict}")
    return 1 if worse_any else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads over seeds, append results")
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True, help="JSON-lines file to append to")
    run.set_defaults(func=cmd_run)
    summary = sub.add_parser("summary", help="median, quartiles and spread of one set")
    summary.add_argument("runs")
    summary.add_argument("--trace", type=int, choices=(0, 1), default=0)
    summary.set_defaults(func=cmd_summary)
    compare = sub.add_parser("compare", help="compare two sets of runs")
    compare.add_argument("before")
    compare.add_argument("after")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
