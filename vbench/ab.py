#!/usr/bin/env python3
"""Interleaved A/B runs of two benchmark binaries.

Runs binary A and binary B alternately for N pairs per workload (pair i
uses seed BASE+i, and A runs first on even pairs, B on odd ones), then
reports, per workload and metric, each side's median and quartiles and
how many pairs B won. Ties count for neither side. A gain is claimed
only over at least ten pairs, when B wins at least nine tenths of them
and the medians differ by more than A's own spread (its interquartile
range).

Build the two binaries from two checkouts, for example two git
worktrees, each with its own target directory:

    git worktree add ../parent HEAD~1
    CARGO_TARGET_DIR=../ab-a cargo build --release --manifest-path ../parent/vbench/Cargo.toml
    CARGO_TARGET_DIR=../ab-b cargo build --release --manifest-path vbench/Cargo.toml
    python3 vbench/ab.py --a ../ab-a/release/vbench --b ../ab-b/release/vbench \\
        --workload alu_dense --workload deep_paths --pairs 10
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result["correct"]


def directions(path):
    spec = json.loads(pathlib.Path(path).read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    here = pathlib.Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", required=True, help="baseline binary")
    parser.add_argument("--b", required=True, help="candidate binary")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--seed-base", type=int, default=9001)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--benchmark-json", default=str(here.parent / "BENCHMARK.json"))
    args = parser.parse_args()
    better = directions(args.benchmark_json)

    for workload in args.workload:
        sides = {"a": {}, "b": {}}
        wins = {}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["a", "b"] if i % 2 == 0 else ["b", "a"]
            got = {}
            for side in order:
                metrics, correct = run(getattr(args, side), workload, seed,
                                       args.seconds, args.trace)
                if not correct:
                    print(f"{workload} seed {seed}: side {side} reported correct=false")
                got[side] = metrics
                for name, value in metrics.items():
                    sides[side].setdefault(name, []).append(value)
            for name, a in got["a"].items():
                b = got["b"].get(name)
                if b is None or a == b:
                    continue
                b_better = b < a if better.get(name) == "lower" else b > a
                wins.setdefault(name, 0)
                wins[name] += b_better
        print(f"\n{workload}: {args.pairs} pairs, seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
        print(f"{'metric':32} {'A q1':>11} {'A median':>11} {'A q3':>11} "
              f"{'B q1':>11} {'B median':>11} {'B q3':>11} {'B wins':>7}  verdict")
        for name in sides["a"]:
            a1, am, a3 = quartiles(sides["a"][name])
            b1, bm, b3 = quartiles(sides["b"].get(name, [am]))
            won = wins.get(name, 0)
            gain = won >= 0.9 * args.pairs and abs(bm - am) > (a3 - a1)
            if args.pairs < 10:
                verdict = "too few pairs to claim"
            else:
                verdict = "B better" if gain else "unresolved or same"
            print(f"{name:32} {a1:11.5g} {am:11.5g} {a3:11.5g} "
                  f"{b1:11.5g} {bm:11.5g} {b3:11.5g} {won:>4}/{args.pairs}  {verdict}")


if __name__ == "__main__":
    main()
