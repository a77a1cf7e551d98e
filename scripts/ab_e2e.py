"""Alternating parent/change pairs of one end-to-end benchmark workload.

    python scripts/ab_e2e.py --workload protocol-recovery --seed 0 \\
        --pairs 10 --seconds 15 [--ref HEAD]

checks ``--ref`` out into a temporary ``git worktree`` (removed on
exit), then runs ``benchmarks/e2e/run.py --trace 0`` there ("parent")
and in this checkout ("change"), ``--pairs`` times, each run in a fresh
interpreter and each pair in the other order from the one before.
Neither checkout's ``benchmarks/e2e`` is edited.  For every end-to-end
metric of ``BENCHMARK.json`` it prints both medians, the parent's
quartile spread (Q3 - Q1), how many pairs the change won and a verdict:
a median gap no larger than the parent's own spread is "unresolved",
not a gain or a loss (the ROADMAP's "One yardstick" rule), and so is a
gain the change won in fewer than nine pairs of ten.  ``--parent-dir``
measures an existing checkout instead of a ref.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: metric -> value."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def quartile_spread(values: list) -> float:
    """Q3 - Q1 of ``values`` (inclusive method; 0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent: list, change: list, better: str) -> dict:
    """Compare paired runs of one metric (``parent[i]`` ran beside
    ``change[i]``); ``better`` is ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("summarize needs the same, non-zero number of "
                         "parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    spread = quartile_spread(parent)
    gain = sign * (parent_median - change_median)
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if abs(parent_median - change_median) <= spread:
        verdict = "unresolved"
    elif gain < 0:
        verdict = "worse"
    else:
        verdict = "better" if won >= 0.9 * len(parent) else "unresolved"
    return {
        "parent": parent_median,
        "change": change_median,
        "delta": (change_median - parent_median) / parent_median
        if parent_median else 0.0,
        "spread": spread,
        "won": won,
        "pairs": len(parent),
        "verdict": verdict,
    }


def report(rows: dict) -> str:
    """The printed table: one line per metric."""
    lines = [f"{'metric':<16}{'parent':>12}{'change':>12}{'delta':>9}"
             f"{'spread':>11}{'won':>7}  verdict"]
    for name, row in rows.items():
        lines.append(
            f"{name:<16}{row['parent']:>12.6g}{row['change']:>12.6g}"
            f"{row['delta']:>+9.1%}{row['spread']:>11.4g}"
            f"{row['won']:>4}/{row['pairs']:<2}  {row['verdict']}"
        )
    return "\n".join(lines)


def measure(parent_dir: Path, args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict = {"parent": [], "change": []}
    sides = [("parent", parent_dir), ("change", ROOT)]
    for pair in range(args.pairs):
        for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
            runs[side].append(
                run_once(checkout, args.workload, args.seed, args.seconds))
        print(f"# pair {pair + 1}: wall_s parent "
              f"{runs['parent'][-1]['wall_s']:.4f} change "
              f"{runs['change'][-1]['wall_s']:.4f}", flush=True)
    return {
        metric["name"]: summarize(
            [run[metric["name"]] for run in runs["parent"]],
            [run[metric["name"]] for run in runs["change"]],
            metric["better"],
        )
        for metric in spec["end_to_end"]
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--ref", default="HEAD")
    where.add_argument("--parent-dir", type=Path)
    args = parser.parse_args(argv)
    if args.parent_dir is not None:
        rows = measure(args.parent_dir.resolve(), args)
    else:
        with tempfile.TemporaryDirectory(prefix="ab-e2e-") as scratch:
            parent_dir = Path(scratch) / "parent"
            subprocess.run(["git", "worktree", "add", "--detach",
                            str(parent_dir), args.ref],
                           cwd=ROOT, check=True, capture_output=True)
            try:
                rows = measure(parent_dir, args)
            finally:
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(parent_dir)], cwd=ROOT, check=True)
    print(report(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
