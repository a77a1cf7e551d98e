"""The repo's end-to-end benchmark — see README.md beside this file.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this interpreter and prints every metric by name
and unit, then one JSON object (the last line of stdout).  Without
``--workload`` it runs all four, each in a fresh interpreter;
``--check-repeat`` does that twice and compares the two sets against
the bounds in BENCHMARK.json.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))



def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spans_out: "str | None") -> dict:
    """Set up and measure one workload in this process."""
    import calibration
    import harness
    import tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer() if traced else None
    clock = harness.Clock(tracer)
    workload = WORKLOADS[name]()
    workload.setup(clock, seed)
    # Set-up is everything from interpreter start to here — imports,
    # topology, pre-built networks, reference runs, warm-up — minus the
    # calibration slices taken on the way.
    setup_raw = perf_counter() - _STARTED - sum(clock.slices)
    setup_s = calibration.calibrated(
        setup_raw, *[statistics.fmean(clock.slices)] * 2
    )
    reps = harness.measure(workload, clock, seconds, traced)
    problems: list = []
    harness.check_repeats(reps, problems)
    attempted, failed = harness.tally(reps, problems)
    if traced:
        obs_overhead = 0.0
        if hasattr(workload, "obs_rep"):
            plain = statistics.median(
                rep.seconds for rep in reps if not rep.traced
            )
            first = len(clock.segments)
            workload.obs_rep(clock)
            live = sum(segment.seconds for segment in clock.segments[first:])
            obs_overhead = live / plain - 1.0
        metrics = harness.per_layer(reps, clock, problems, obs_overhead)
        if spans_out:
            with open(spans_out, "w") as sink:
                for span in tracer.spans:
                    sink.write(json.dumps(span._asdict()) + "\n")
    else:
        metrics = harness.end_to_end(reps, setup_s, workload.setup_builds)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    kept, discarded = harness.keep(reps, harness.MIN_REPS)
    print(f"# {name} seed={seed} reps={len(reps)} kept={len(kept)} "
          f"discarded={discarded} "
          f"calib_slice_s={statistics.fmean(clock.slices):.4f}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:32s} {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }


def spawn(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One workload in a fresh interpreter, so that set-up time and peak
    memory are its own; returns the parsed result line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if traced else "0"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    sys.stdout.write(completed.stdout)
    sys.stdout.flush()
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_all(names, seed: int, seconds: float, traced: bool) -> dict:
    return {name: spawn(name, seed, seconds, traced) for name in names}


def check_repeat(names, seed: int, seconds: float) -> bool:
    """Two untraced sets of the same commit must agree, per workload and
    end-to-end metric, within the metric's own bound."""
    metrics = {entry["name"]: entry for entry in benchmark_spec()["end_to_end"]}
    first = run_all(names, seed, seconds, False)
    second = run_all(names, seed, seconds, False)
    agreed = True
    print(f"# check-repeat seed={seed}")
    for name in names:
        for metric, entry in metrics.items():
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            ok = abs(worse) <= entry["bound"]
            agreed &= ok
            print(f"{name:18s} {metric:14s} {a:.6g} {b:.6g} "
                  f"{worse:+.2%} (bound {entry['bound']:.0%}) "
                  f"{'ok' if ok else 'DISAGREE'}")
        for result in (first[name], second[name]):
            if not result["correct"] or result["failed"]:
                agreed = False
                print(f"{name:18s} output checks failed")
    return agreed


def main(argv=None) -> int:
    spec = benchmark_spec()
    workload_names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1: write the span log here (JSONL)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = spec["run_seconds"]
    names = [args.workload] if args.workload else workload_names
    if args.check_repeat:
        return 0 if check_repeat(names, args.seed, seconds) else 1
    if args.workload:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.spans_out)
        print(json.dumps(result))
        return 0
    results = run_all(names, args.seed, seconds, bool(args.trace))
    return 0 if all(r["correct"] and not r["failed"]
                    for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
