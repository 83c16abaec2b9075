"""Seed-fixed pipeline benchmark for memrerank.

One run sets a workload up, makes a correctness reference pass, then
times plan -> report passes for ``--seconds`` seconds in this process
(a closed loop with one client). It prints every metric by name and
unit, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py --workload cold-latency --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 7       # every workload, both modes
    python3 bench/run.py --compare base.jsonl new.jsonl

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separately traced run. Every run appends its
full record to ``--results`` (default ``.bench_run/results.jsonl``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009  # for confirming a claim on a seed not used while writing it


def load_spec() -> dict:
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(prep, passes, rss_mb: float) -> dict:
    """Untraced metrics; per-pass values are reduced to their median."""
    import harness

    per_pass = {"queries_per_s": [], "backend_call_ratio": [], "ok_share": [], "mean_r1": []}
    for result in passes:
        queries = prep.queries
        if result.ok:
            backend_error, _ = harness.fallbacks(result.out)
            per_pass["mean_r1"].append(harness.read_compare(result.out)["after"]["mean_r1"])
        else:
            backend_error = queries
        per_pass["queries_per_s"].append(queries / result.wall_s)
        per_pass["backend_call_ratio"].append(
            (result.log.calls["narrate"] + result.log.calls["select"]) / prep.needed
        )
        per_pass["ok_share"].append(1.0 - backend_error / queries)
    values = {name: statistics.median(v) if v else 0.0 for name, v in per_pass.items()}
    values["setup_s"] = statistics.median(prep.setup_s)
    values["peak_rss_mb"] = rss_mb
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, results: Path) -> dict:
    import harness
    import tracing

    spec = load_spec()
    workload = harness.WORKLOADS[name]
    work = harness.WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    prep = harness.prepare(workload, seed, work)
    reference = harness.run_reference(prep, work)
    tracer = tracing.Tracer() if trace else None
    passes, layers, problems, logs = [], [], [], {}
    # A shared machine's speed drifts over seconds, so the set-up
    # repetitions are spread over about three passes, not run back to back.
    setups_per_pass = -(-workload.setup_reps // 3)
    while not passes or sum(r.wall_s for r in passes) < seconds:
        harness.repeat_setup(prep, work, min(setups_per_pass, workload.setup_reps - len(prep.setup_s)))
        out = work / "pass"
        cache_dir = harness.pass_dirs(prep, out)
        gc.collect()  # every pass starts from the same collector state
        if tracer is not None:
            tracer.pass_index = len(passes)
        with tracer.patched() if tracer is not None else contextlib.nullcontext():
            result = harness.run_pass(
                workload, out, cache_dir, c_max=harness.C_MAX,
                latency_s=workload.latency_s, schedule=prep.schedule, tracer=tracer,
            )
        if tracer is not None:
            layers.append(tracing.layer_metrics(tracer, result))
            logs[tracer.pass_index] = result.log
        problems += [f"pass {len(passes)}: {p}" for p in harness.check_pass(result, reference, workload)]
        passes.append(result)
        if len(passes) == 1:
            # Later passes only add allocator growth from repeating the
            # pipeline in one process, and how many fit depends on speed.
            rss_mb = harness.peak_rss_mb()
    harness.repeat_setup(prep, work, workload.setup_reps - len(prep.setup_s))

    if tracer is not None:
        tracer.write(work / "trace.jsonl", logs)
        wanted = spec["per_layer"]
        values = {name: statistics.median([layer[name] for layer in layers]) for name in
                  (m["name"] for m in wanted)}
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(prep, passes, rss_mb)
    lost = sum(prep.queries for result in passes if not result.ok)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "attempted": prep.queries * len(passes),
        "failed": lost,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "passes": len(passes),
        "stage_sum_s": statistics.median([r.wall_s for r in passes]),
        "problems": problems,
    }
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return record


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"# {record['workload']} seed {record['seed']} ({mode}, "
          f"{record['passes']} passes, stages {record['stage_sum_s']:.3f} s median)")
    for name, metric in record["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6f} {metric['unit']}")
    for problem in record["problems"]:
        print(f"INCORRECT {problem}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process so
    that peak memory is per workload."""
    spec = load_spec()
    status = 0
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            command = [sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
                       "--seed", str(args.seed), "--trace", trace, "--results", str(args.results)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for confirming claims)",
    )
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="JSON-lines file the run record is appended to")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="RESULTS",
                        help="summarize one results file, or compare two")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare, load_spec())

    try:
        import harness
    except ImportError as exc:
        print(f"bench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    if args.results is None:
        args.results = harness.WORK / "results.jsonl"
    if args.workload == "all":
        return run_all(args)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)} or 'all'")
    harness.quiet_logging()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.results)
    print_record(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 1 if record["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
