#!/usr/bin/env python3
"""Same-host interleaved A/B of the benchmark: BASE_REV against HEAD.

    python3 ci/ab.py BASE_REV [--workload W] [--pairs N] [--seconds S]
                              [--seed N] [--trace 0|1]

BASE_REV is checked out in a git worktree under target/ab/, and HEAD is
the working tree of this checkout. Each side is built into its own target
directory and run with the command that BENCHMARK.json declares. Each pair
runs both sides once, and the order alternates from pair to pair, so a
drift in host speed hits both sides alike. At the end the script prints,
for every metric, each side's median and quartiles, the head/base ratio
of the medians, and how many pairs head won. With five or more pairs,
a metric is marked BETTER or WORSE when head wins (or loses) at least
nine pairs in ten and the medians differ by more than the base's
interquartile range.

The exit status is nonzero when a run fails or reports a failed
operation, when sim_speedup differs between the two sides (simulated
output must not change), or when `perfbench compare` finds the two
results incomparable. Speed alone never fails the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


# Fewer pairs than this get no BETTER/WORSE mark: four straight wins
# happen by chance one time in sixteen.
MIN_VERDICT_PAIRS = 5


def git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Side:
    def __init__(self, name, checkout, target):
        self.name = name
        self.checkout = checkout
        self.target = target
        self.results = []

    def env(self):
        return dict(os.environ, CARGO_TARGET_DIR=str(self.target))


def build(side, command):
    # The benchmark command is `cargo run ... --`; its `cargo build`
    # twin compiles the same binary without running it.
    cut = command.index("--") if "--" in command else len(command)
    cmd = ["cargo", "build", *command[2:cut]]
    print(f"ab: building {side.name} in {side.checkout}", file=sys.stderr)
    subprocess.run(cmd, cwd=side.checkout, env=side.env(), check=True)


def run_once(side, command, args):
    cmd = [
        *command,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    done = subprocess.run(
        cmd, cwd=side.checkout, env=side.env(), capture_output=True, text=True
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None, f"{side.name}: exit status {done.returncode}"
    result = json.loads(lines[-1])
    if result.get("failed", 1) != 0:
        sys.stderr.write(done.stderr)
        return result, f"{side.name}: {result.get('failed')} failed operations"
    return result, None


def metric_directions(bench):
    return {
        m["name"]: m["better"]
        for m in bench.get("end_to_end", []) + bench.get("per_layer", [])
    }


def report(base, head, better):
    names = [n for n in base.results[0]["metrics"] if n in head.results[0]["metrics"]]
    print(
        f"{'metric':<38} {'base median [q1, q3]':>34} "
        f"{'head median [q1, q3]':>34} {'head/base':>9} {'wins':>6}  verdict"
    )
    for name in names:
        a = [r["metrics"][name]["value"] for r in base.results]
        b = [r["metrics"][name]["value"] for r in head.results]
        if not any(a) and not any(b):
            continue
        higher = better.get(name, "higher") == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        losses = sum((y < x) if higher else (y > x) for x, y in zip(a, b))
        aq1, amed, aq3 = quartiles(a)
        bq1, bmed, bq3 = quartiles(b)
        ratio = bmed / amed if amed else float("nan")
        verdict = ""
        if len(a) >= MIN_VERDICT_PAIRS and abs(bmed - amed) > aq3 - aq1:
            if wins * 10 >= 9 * len(a):
                verdict = "BETTER"
            elif losses * 10 >= 9 * len(a):
                verdict = "WORSE"
        print(
            f"{name:<38} {amed:>12.6g} [{aq1:>9.6g}, {aq3:>9.6g}] "
            f"{bmed:>12.6g} [{bq1:>9.6g}, {bq3:>9.6g}] {ratio:>9.4f} "
            f"{wins:>3}/{len(a):<2}  {verdict}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev")
    parser.add_argument("--workload", default="replay-private-16c")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    command = bench["command"]
    rev = git(root, "rev-parse", "--verify", f"{args.base_rev}^{{commit}}")
    work = root / "target" / "ab"
    worktree = work / f"base-{rev[:12]}"
    if worktree.exists():
        git(root, "worktree", "remove", "--force", str(worktree))
    work.mkdir(parents=True, exist_ok=True)
    git(root, "worktree", "add", "--detach", "--force", str(worktree), rev)
    base = Side(f"base {rev[:12]}", worktree, work / "target-base")
    head = Side("head (working tree)", root, work / "target-head")
    problems = []
    try:
        for side in (base, head):
            build(side, command)
        for pair in range(args.pairs):
            order = (base, head) if pair % 2 == 0 else (head, base)
            for side in order:
                result, problem = run_once(side, command, args)
                if problem:
                    problems.append(f"pair {pair + 1}: {problem}")
                if result is None:
                    continue
                side.results.append(result)
                rate = result["metrics"].get("refs_per_s", {}).get("value")
                print(
                    f"ab: pair {pair + 1}/{args.pairs} {side.name}: done"
                    + (f", refs_per_s {rate:.6g}" if rate else ""),
                    file=sys.stderr,
                )
        if not base.results or not head.results:
            problems.append("no successful run on one side")
        else:
            speedups = {
                (side.name, r["metrics"]["sim_speedup"]["value"])
                for side in (base, head)
                for r in side.results
                if "sim_speedup" in r["metrics"]
            }
            if len({v for _, v in speedups}) > 1:
                problems.append(f"sim_speedup differs: {sorted(speedups)}")
            saved = f".bench_work/result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
            cmp = subprocess.run(
                [*command, "compare", str(base.checkout / saved), str(head.checkout / saved)],
                cwd=head.checkout, env=head.env(), capture_output=True, text=True,
            )
            if cmp.returncode != 0:
                problems.append(f"perfbench compare: {cmp.stdout.strip()}")
            print(
                f"{args.workload}, seed {args.seed}, {args.pairs} pairs x "
                f"{args.seconds} s, trace {args.trace}: base {rev[:12]} vs head"
            )
            report(base, head, metric_directions(bench))
    finally:
        git(root, "worktree", "remove", "--force", str(worktree))
    for p in problems:
        print(f"ab: FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
