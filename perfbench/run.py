"""finslab benchmark: seeded experiment workloads run through cli.run_experiment.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  The runner generates the workload's INI
and metric files from the seed under perfbench/out/, then starts worker
processes one after another (a closed loop, one item at a time, BLAS and
OpenMP pinned to one thread):

* four set-up processes, each of which sets up and runs one pass;
* one timing process, which sets up, runs a warm-up pass, then times passes
  over all items for S seconds with tracing off.

End-to-end metrics: `wall_s` is the median pass time and `wall_s_tail` the
highest percentile with at least ten passes beyond it (the median when there
are fewer than 21 passes); `setup_s` is the median set-up time of the five
processes and `peak_rss_mb` their median peak resident memory after set-up
and one pass.  Times are calibrated: each
is scaled by the speed of a fixed reference kernel (reference.py) timed in
the same process, because the shared host's speed drifts by up to a factor
of two within minutes.  The raw times are printed and recorded as well.

With --trace 1 the runner instead runs the timing process for S/2 seconds,
a traced process for S/2 seconds, and a frame count on the shipped sample
configs, and reports per-layer metrics: per pass (median over passes) a
call count and a self time for every layer in tracer.LAYERS, work counters
and ratios, and the tracing overhead.  With --workload all it runs every
workload untraced and then traced, which prints every metric.

Every item's report is hashed.  An item fails if it raises, if an assertion
in its report fails, or if its report differs from the first run of the same
item in any process; fail_ratio is failed over attempted item runs.  The
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the lines before it are a readable summary, and the full
record (environment, report hashes, pass times, spans) goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 4
DEADLINE_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Counts on the shipped configs when this benchmark was written, keyed on
# tracer.FRAME_KEY: (built, distinct, distinct when the frame order is
# part of the key).
CROSSCHECK_EXPECTED = {
    "focal-correspondence": (6614, 2642, 2652),
    "variation": (2004, 501, 1002),
    "conformal-pregeodesic": (1994, 1994, 1994),
}
END_TO_END = (("wall_s", "s"), ("wall_s_tail", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in tracer.LAYERS:
        units[f"{layer}_calls"] = "count"
        units[f"{layer}_s"] = "s"
    units.update({
        "jets.mul_terms": "count", "dsl.sample_accept_ratio": "ratio",
        "connection.frames_built": "count", "connection.frames_distinct": "count",
        "connection.frame_useful_ratio": "ratio", "geodesics.rk4_steps": "count",
        "geodesics.newton_evals_per_project": "count",
        "variational.jacobi_steps": "count", "variational.focal_points": "count",
        "trace.wall_s": "s", "trace.overhead_s": "s", "trace.uncovered_share": "ratio",
    })
    for name in CROSSCHECK_EXPECTED:
        for key in ("frames_built", "frames_distinct", "frames_distinct_by_order"):
            units[f"crosscheck.{name}.{key}"] = "count"
    return units


class WorkerError(RuntimeError):
    pass


def run_worker(deadline: float, *args) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True,
            text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated(seconds: float, rate: float) -> float:
    """Seconds scaled to a machine on which the reference kernel runs at
    reference.REFERENCE_RATE units per second."""
    return seconds * rate / reference.REFERENCE_RATE


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten runs beyond it (never below
    the median), as (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - 11, n // 2)
    return ordered[idx], 100.0 * (idx + 1) / n


def check_passes(passes: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed item runs, judged against the reference hashes."""
    attempted = failed = 0
    problems = []
    for run in passes:
        for name, digest in run.items():
            attempted += 1
            if digest != reference[name] or not digest.isalnum():
                failed += 1
                if len(problems) < 10:
                    problems.append(f"{name}: {digest}")
    return attempted, failed, problems


def environment() -> dict:
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "finslab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "child_env": CHILD_ENV}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a plain export)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def per_layer(snapshots: list[dict], setup_trace: dict, untraced: list[float],
              traced: dict, cross: dict) -> dict[str, float]:
    rows = []
    for snap in snapshots:
        totals = tracer.layer_totals(snap)
        counts = snap["counts"]
        row = {}
        for layer, (calls, self_s) in totals.items():
            row[f"{layer}_calls"] = calls
            row[f"{layer}_s"] = self_s
        built = totals["connection.frame_init"][0]
        projects = totals["geodesics.project"][0]
        attempts = counts.get("dsl.sample_attempts", 0)
        distinct = counts.get("connection.frames_distinct", 0)
        row.update({
            "jets.mul_terms": counts.get("jets.mul_terms", 0),
            "dsl.sample_accept_ratio":
                counts.get("dsl.sample_accepted", 0) / attempts if attempts else 0.0,
            "connection.frames_built": built,
            "connection.frames_distinct": distinct,
            "connection.frame_useful_ratio": distinct / built if built else 0.0,
            "geodesics.rk4_steps": counts.get("geodesics.rk4_steps", 0),
            "geodesics.newton_evals_per_project":
                counts.get("geodesics.newton_evals", 0) / projects if projects else 0.0,
            "variational.jacobi_steps": counts.get("variational.jacobi_steps", 0),
            "variational.focal_points": counts.get("variational.focal_points", 0),
        })
        rows.append(row)
    metrics = {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
    calls, self_s = tracer.layer_totals(setup_trace)["cli.load_config"]
    metrics["cli.load_config_calls"] = calls
    metrics["cli.load_config_s"] = self_s
    traced_wall = statistics.median(map(calibrated, traced["pass_s"], traced["pass_rate"]))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    metrics["trace.uncovered_share"] = statistics.median(
        (wall - snap["root_s"]) / wall for wall, snap in zip(traced["pass_s"], snapshots))
    for name, counts in cross.items():
        for key in ("frames_built", "frames_distinct", "frames_distinct_by_order"):
            metrics[f"crosscheck.{name}.{key}"] = counts[key]
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One benchmark run; prints the summary and the result line."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out"
    inputs_dir = out_dir / "inputs" / f"{workload}-{seed}"
    shutil.rmtree(inputs_dir, ignore_errors=True)
    manifest = workloads.write(workloads.generate(workload, seed), inputs_dir)
    # Byte-compile up front so no set-up measurement pays for compilation.
    compileall.compile_dir(ROOT / "src" / "finslab", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment()}
    try:
        if trace:
            timing = run_worker(deadline, "time", manifest, seconds / 2)
            traced = run_worker(deadline, "trace", manifest, seconds / 2)
            cross = run_worker(deadline, "crosscheck", *CROSSCHECK_EXPECTED)["crosscheck"]
            runs = [timing, traced]
        else:
            runs = [run_worker(deadline, "setup", manifest) for _ in range(SETUP_RUNS)]
            timing = run_worker(deadline, "time", manifest, seconds)
            runs.append(timing)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first_reports = runs[0]["first_pass"]
    all_passes = [r["first_pass"] for r in runs] + [p for r in runs for p in r.get("passes", [])]
    attempted, failed, problems = check_passes(all_passes, first_reports)
    record.update(versions=timing["versions"], reports_sha256=first_reports,
                  problems=problems)

    raw_wall = timing["pass_s"]
    wall = list(map(calibrated, raw_wall, timing["pass_rate"]))
    wall_tail, pct = tail(wall)
    record.update(pass_s=raw_wall, pass_rate=timing["pass_rate"], calibrated_pass_s=wall)
    if trace:
        units = per_layer_units()
        metrics = per_layer(traced["pass_traces"], traced["setup_trace"],
                            wall, traced, cross)
        record.update(traced_pass_s=traced["pass_s"], traced_pass_rate=traced["pass_rate"],
                      crosscheck=cross, frame_key=tracer.FRAME_KEY,
                      setup_trace=traced["setup_trace"], pass_traces=traced["pass_traces"])
        # The shipped configs are not workload items, but they must pass too.
        attempted += len(cross)
        failed += sum(not c["passed"] for c in cross.values())
    else:
        units = dict(END_TO_END)
        setups = [calibrated(r["setup_s"], r["setup_rate"]) for r in runs]
        metrics = {
            "wall_s": statistics.median(wall), "wall_s_tail": wall_tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        record.update(tail_percentile=pct, calibrated_setup_s=setups,
                      setup_s=[r["setup_s"] for r in runs],
                      setup_rate=[r["setup_rate"] for r in runs],
                      peak_rss_mb=[r["peak_rss_mb"] for r in runs])

    fail_ratio = failed / attempted
    record.update(metrics=metrics, attempted=attempted, failed=failed,
                  fail_ratio=fail_ratio)
    out_dir.mkdir(exist_ok=True)
    detail = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    detail.write_text(json.dumps(record, indent=1))

    env = record["environment"]
    print(f"finslab benchmark  workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={trace}")
    print(f"  python {record['versions']['python']}  numpy {record['versions']['numpy']}"
          f"  scipy {record['versions']['scipy']}  nproc {env['nproc']}"
          f"  cpu {env['cpu_model']}  git {env['git_sha']}  src {env['src_sha256'][:12]}")
    print("  " + " ".join(f"{k}={v}" for k, v in CHILD_ENV.items()))
    for name, digest in first_reports.items():
        print(f"  report {name:32s} {digest}")
    print(f"  untraced passes: {len(wall)}; calibrated median {statistics.median(wall):.6g} s, "
          f"tail p{pct:.0f} {wall_tail:.6g} s; raw median "
          f"{statistics.median(raw_wall):.6g} s at {statistics.median(timing['pass_rate']):.0f} "
          f"reference units/s (calibrated to {reference.REFERENCE_RATE:.0f})")
    if trace:
        print(f"  frames keyed on {tracer.FRAME_KEY}; shipped configs "
              "(built / distinct / distinct with order, expected in brackets):")
        for name, got in cross.items():
            print(f"    {name:24s} {got['frames_built']} / {got['frames_distinct']} / "
                  f"{got['frames_distinct_by_order']}  {list(CROSSCHECK_EXPECTED[name])}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"  fail_ratio {fail_ratio:.6g} ratio ({failed} of {attempted} item runs failed)")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"  detail: {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="a workload, or all: every workload untraced, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finslab" / "__init__.py").is_file():
        print(f"error: no finslab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            status = max(status, run(workload, args.seed, args.seconds, trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
