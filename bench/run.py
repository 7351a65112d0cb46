#!/usr/bin/env python3
"""treechoice benchmark: whole CLI jobs end to end, plus a traced per-layer run.

    python3 bench/run.py --workload corpus|ladder|falsify [--seed N]
                         [--workload-seed W] [--seconds S] [--trace 0|1]
                         [--smoke]

`--workload-seed` generates the inputs; `--seed` draws their presentation
(see `workloads.py`). Run from anywhere; the package is imported from
`src/` next to this directory. One process runs one job at a time: a closed
loop with a single client and no threads. Each job is one in-process
`treechoice.cli.run_command` call with stdout captured.

Set-up (build the inputs from the seed and serialize them, write the tree
and context files, run one job of each kind) is repeated eleven times;
`setup_s` is its median, less the time of the file writes: on the machine the
benchmark was made on, writing the same 1,200 corpus files took 0.11 to
0.42 s, the disk's time and not the program's. It is printed as `write_s`.

`--trace 0` then runs whole passes over the job list until the next pass
would end after `--seconds`, at least one, and reports the end-to-end
metrics: medians over passes. `--trace 1` runs one untraced pass, then sets
up again and runs one pass with the tracer of `tracing.py` installed, and
reports the per-layer metrics.

Set-up and untraced passes are timed with the `RefClock` of `refclock.py`:
times at a fixed reference speed of the host, which drifts on a shared
machine. Raw times are printed beside them.

Every job's answer is checked (see `answers.py`); failures are counted in
`failed`. The last line of stdout is the JSON result; the lines before it
print every metric by name with its unit, and the full record (provenance,
input record, per-pass values) is written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import REFERENCE_SLICE_S, RefClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 20110916
SECOND_SEED = 1109
SETUP_REPEATS = 11
KINDS = ("solve_normal", "solve_backward", "check_perfect", "check_properties")


def import_program() -> bool:
    """Import treechoice from this checkout's `src/`, and nothing else."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import treechoice
    except ImportError:
        return False
    return Path(treechoice.__file__).resolve().parent == source / "treechoice"


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload_seed": args.workload_seed,
        "seed": args.seed,
    }


def run_pass(jobs, tracer=None, clock=None):
    """Run every job once, in order; time each call.

    With a running `clock`, each result's `seconds` leaves out the clock's
    calibration slices and `scaled` is its time at the reference speed.
    """
    from treechoice import cli
    from answers import JobResult

    results, marks = [], []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out = io.StringIO()
        error = None
        code = None
        begin = clock.mark() if clock else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run_command(list(job.argv))
        except Exception as exc:  # a traceback ends the job, not the run
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if clock:
            marks.append((begin, clock.mark()))
        results.append(JobResult(job, seconds, code, out.getvalue(), error, seconds))
    for result, (begin, end) in zip(results, marks):
        result.seconds = clock.raw(begin, end)
        result.scaled = clock.scaled(begin, end)
    return results


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _pass_summary(results, divergent: dict) -> dict:
    """Job times, summed and as latencies, at the reference speed; `wall_s`
    is the raw sum."""
    latencies = [r.scaled * 1000 for r in results]
    summary = {
        "wall_ref_s": sum(r.scaled for r in results),
        "wall_s": sum(r.seconds for r in results),
        "jobs": len(results),
        "failed": sum(1 for r in results if r.failure),
        "job_p50_ms": statistics.median(latencies),
        "job_p99_ms": _percentile(latencies, 99),
        "divergent": divergent,
        "failures": [f"{r.job.key}: {r.failure}" for r in results if r.failure][:20],
        "instances": sum(
            e["instances_checked"]
            for r in results
            if r.answer and "reports" in r.answer
            for e in r.answer["reports"]
        ),
    }
    for kind in KINDS:
        times = [r.scaled for r in results if r.job.kind == kind]
        if times:
            summary[f"{kind}_s"] = sum(times)
    return summary


def reference_path(workload: str) -> Path:
    return BENCH_DIR / "reference" / f"{workload}.json"


def _reference(args):
    """The digests recorded for this run's workload seed, if there are any."""
    path = reference_path(args.workload)
    if args.smoke or not path.exists():
        return None
    recorded = json.loads(path.read_text())
    entry = recorded.get(str(args.workload_seed))
    return None if entry is None else entry["digests"]


def _timed_pass(inputs, reference, first, tracer=None, clock=None):
    from answers import check_pass

    results = run_pass(inputs.jobs, tracer, clock)
    divergent = check_pass(results, inputs, reference, first)
    return results, _pass_summary(results, divergent)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, inputs, reference, clock) -> list:
    """Untraced passes until the next one would end after `args.seconds`."""
    passes, first = [], None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results, summary = _timed_pass(inputs, reference, first, clock=clock)
        if first is None:
            first = {r.job.key: r.digest for r in results}
        passes.append(summary)
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            return passes


def traced(args, reference, work: Path, first: dict, untraced: dict) -> tuple[dict, list, dict]:
    """A traced set-up and a traced pass, after the untraced pass that gave
    `first` (the digests) and `untraced` (its summary)."""
    import workloads
    from tracing import Tracer

    setup_tracer, tracer = Tracer(), Tracer()
    setup_tracer.install()
    try:
        inputs = workloads.build_inputs(
            args.workload, args.workload_seed, args.seed, work, args.smoke
        )
        inputs.write_files()
    finally:
        setup_tracer.uninstall()
    tracer.install()
    try:
        results, traced_pass = _timed_pass(inputs, reference, first, tracer)
    finally:
        tracer.uninstall()
    layers = layer_metrics(setup_tracer, tracer, untraced, traced_pass)
    spans = {"setup": setup_tracer.spans, "pass": tracer.spans}
    return layers, [untraced, traced_pass], spans


def layer_metrics(setup_tracer, tracer, untraced: dict, traced_pass: dict) -> dict:
    from workloads import RULES

    seconds, calls, counts = tracer.seconds, tracer.calls, tracer.counts

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {
        "generate.random_consistent_tree.s": _metric(
            setup_tracer.seconds["generate.random_consistent_tree"], "s"
        ),
    }
    for name in ("generate.random_gamble_instance",):
        m[f"{name}.s"] = _metric(seconds[name], "s")
        m[f"{name}.calls"] = _metric(calls[name], "count")
    for name in ("textio.parse_tree_file", "textio.parse_context_file", "textio.report_json"):
        m[f"{name}.s"] = _metric(seconds[name], "s")
    m["cli.run_command.self_s"] = _metric(tracer.self_seconds["cli.run_command"], "s")
    m["trees.validate.s"] = _metric(seconds["trees.validate"], "s")
    m["trees.validate.calls"] = _metric(calls["trees.validate"], "count")
    m["trees.nfd.s"] = _metric(seconds["trees.nfd"], "s")
    m["trees.nfd.strategies"] = _metric(counts["trees.nfd.strategies"], "count")
    m["trees.gamb.s"] = _metric(seconds["trees.gamb"], "s")
    m["trees.gamb.gambles"] = _metric(counts["trees.gamb.gambles"], "count")
    m["trees.distinct_gamble_ratio"] = _metric(
        ratio(counts["trees.gamb.gambles"], counts["trees.nfd.strategies"]), "ratio"
    )
    m["trees.strategy_gamble.s"] = _metric(seconds["trees.strategy_gamble"], "s")
    m["trees.strategy_gamble.calls"] = _metric(calls["trees.strategy_gamble"], "count")
    m["trees.restrict_solution.s"] = _metric(seconds["trees.restrict_solution"], "s")
    for name in ("model.combine_on_partition", "model.check_a_consistency", "model.gambleset_contains"):
        m[f"{name}.s"] = _metric(seconds[name], "s")
        m[f"{name}.calls"] = _metric(calls[name], "count")
    m["model.gamble_set_sum.s"] = _metric(seconds["model.gamble_set_sum"], "s")
    for rule in RULES:
        name = f"rules.select.{rule}"
        m[f"{name}.s"] = _metric(seconds[name], "s")
        m[f"{name}.calls"] = _metric(calls[name], "count")
        m[f"{name}.gambles_in"] = _metric(counts[f"{name}.gambles_in"], "count")
        m[f"{name}.kept_ratio"] = _metric(
            ratio(counts[f"{name}.kept"], counts[f"{name}.gambles_in"]), "ratio"
        )
    m["rules.conditional_expectation.s"] = _metric(seconds["rules.conditional_expectation"], "s")
    m["rules.conditional_expectation.calls"] = _metric(
        calls["rules.conditional_expectation"], "count"
    )
    m["solve.norm_opt.s"] = _metric(seconds["solve.norm_opt"], "s")
    m["solve.norm_opt.calls"] = _metric(calls["solve.norm_opt"], "count")
    m["solve.norm_opt.self_s"] = _metric(tracer.self_seconds["solve.norm_opt"], "s")
    m["solve.back_opt.s"] = _metric(seconds["solve.back_opt"], "s")
    m["solve.back_opt.candidates"] = _metric(counts["solve.back_opt.candidates"], "count")
    m["solve.back_opt.kept"] = _metric(counts["solve.back_opt.kept"], "count")
    m["laws.check_subtree_perfectness.s"] = _metric(
        seconds["laws.check_subtree_perfectness"], "s"
    )
    m["laws.perfect.nodes_checked"] = _metric(counts["laws.perfect.nodes_checked"], "count")
    m["laws.perfect.node_norm_opt.s"] = _metric(seconds["laws.perfect.node_norm_opt"], "s")
    m["laws.perfect.node_norm_opt.calls"] = _metric(
        calls["laws.perfect.node_norm_opt"], "count"
    )
    m["laws.check_property_instance.s"] = _metric(seconds["laws.check_property_instance"], "s")
    m["laws.check_property_instance.calls"] = _metric(
        calls["laws.check_property_instance"], "count"
    )
    m["laws.check_property_instance.vacuous"] = _metric(
        counts["laws.check_property_instance.vacuous"], "count"
    )
    m["laws.shrink_violation.s"] = _metric(seconds["laws.shrink_violation"], "s")
    m["laws.shrink_violation.steps"] = _metric(counts["laws.shrink_violation.steps"], "count")
    m["trace.overhead_ratio"] = _metric(traced_pass["wall_s"] / untraced["wall_s"], "ratio")
    # whole-job figures of the untraced pass of this run
    m["wall_s"] = _metric(untraced["wall_s"], "s")
    for kind in KINDS:
        m[f"{kind}_s"] = _metric(untraced.get(f"{kind}_s", 0.0), "s")
    m["job_p50_ms"] = _metric(untraced["job_p50_ms"], "ms")
    m["job_p99_ms"] = _metric(untraced["job_p99_ms"], "ms")
    m["failed_ratio"] = _metric(untraced["failed"] / untraced["jobs"], "ratio")
    return m


def end_to_end(setups: list, passes: list) -> dict:
    return {
        "setup_s": _metric(statistics.median(s["scaled"] for s in setups), "s"),
        "wall_ref_s": _metric(statistics.median(p["wall_ref_s"] for p in passes), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def _whole_job_lines(passes: list) -> list[str]:
    """The per-kind and latency figures, medians over passes, by name."""
    jobs = passes[0]["jobs"]
    lines = [
        f"raw wall_s = {statistics.median(p['wall_s'] for p in passes):.4f} s"
        f" (unscaled, median of {len(passes)} passes)"
    ]
    for kind in KINDS:
        key = f"{kind}_s"
        if key in passes[0]:
            value = statistics.median(p[key] for p in passes)
            lines.append(f"{key} = {value:.4f} s")
    lines.append(
        f"job_p50_ms = {statistics.median(p['job_p50_ms'] for p in passes):.4f} ms"
        f" (median of {jobs} jobs per pass)"
    )
    lines.append(
        f"job_p99_ms = {statistics.median(p['job_p99_ms'] for p in passes):.4f} ms"
        f" ({jobs - int(jobs * 0.99)} jobs per pass beyond it)"
    )
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lines.append(f"failed_ratio = {failed / attempted:.6f} ratio")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "falsify"))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="run seed: the order of states, node children and jobs",
    )
    parser.add_argument(
        "--workload-seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"generates the inputs; {SECOND_SEED} is the second seed for checking claims",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs (ladder of small trees, budget 5)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        print(f"error: cannot import treechoice from {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, work: Path) -> int:
    import workloads

    reference = _reference(args)
    clock = RefClock()
    with clock:
        setup_marks = []
        for _ in range(SETUP_REPEATS):
            begin = clock.mark()
            inputs = workloads.build_inputs(
                args.workload, args.workload_seed, args.seed, work, args.smoke
            )
            built = clock.mark()
            inputs.write_files()
            written = clock.mark()
            # one job of each kind, so imports and lazy set-up happen before timing
            run_pass(inputs.warm_up_jobs())
            setup_marks.append((begin, built, written, clock.mark()))
        if args.trace:
            results, untraced = _timed_pass(inputs, reference, None, clock=clock)
        else:
            passes = measure(args, inputs, reference, clock)
    setups = [
        {
            "raw": clock.raw(begin, built) + clock.raw(written, end),
            "scaled": clock.scaled(begin, built) + clock.scaled(written, end),
            "write_raw": clock.raw(built, written),
        }
        for begin, built, written, end in setup_marks
    ]

    spans = None
    if args.trace:
        first = {r.job.key: r.digest for r in results}
        metrics, passes, spans = traced(args, reference, work, first, untraced)
    else:
        metrics = end_to_end(setups, passes)
    inputs.record["instances"] = passes[0]["instances"]
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": _provenance(args),
        "inputs": inputs.record,
        "reference_checked": reference is not None,
        "setup_s": setups,
        "slice_ms": clock.slice_ms(),
        "passes": passes,
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = (
        f"{args.workload}-w{args.workload_seed}-s{args.seed}-trace{args.trace}"
        + ("-smoke" if args.smoke else "")
    )
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt") as handle:
            json.dump(spans, handle)

    print("provenance " + json.dumps(record["provenance"]))
    print("inputs " + json.dumps(inputs.record))
    print("divergent " + json.dumps(passes[0]["divergent"]))
    if not args.trace:
        raw_setup = statistics.median(s["raw"] for s in setups)
        raw_write = statistics.median(s["write_raw"] for s in setups)
        print(f"raw setup_s = {raw_setup:.4f} s (unscaled)")
        print(f"raw write_s = {raw_write:.4f} s (writing the input files, not in setup_s)")
        print(f"calibration slice = {clock.slice_ms():.4f} ms (median; reference speed"
              f" {REFERENCE_SLICE_S * 1000} ms)")
        for line in _whole_job_lines(passes):
            print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    for failure in passes[0]["failures"]:
        print(f"failed: {failure}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
