"""repro-e2e: the repository's one benchmark.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --trace --json OUT   # + per-layer, spans
    python3 benchmarks/e2e/run.py --workload live-tcp --seed 7 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --smoke              # 1/20 duration, checks on

Every measurement runs in a fresh subprocess of this same script
(``--child``), so peak RSS and GC state are the measurement's own and
the TCP cluster's ``spawn`` children have a real main file to import.
This process only schedules those subprocesses, enforces the wall-time
ceiling, reaps them on every exit path and prints the results.  With
``--workload`` the last line of stdout is the one JSON object the
benchmark contract in ``BENCHMARK.json`` asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: One invocation (every subprocess of one workload) must end within
#: this many wall seconds; past it the run fails loudly, never hangs.
CEILING_S = 170.0
SMOKE_FACTOR = 1.0 / 20.0


class BenchmarkFailure(Exception):
    """A subprocess crashed, overran the ceiling or printed no result."""


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_child(mode: str, args: argparse.Namespace, name: str, deadline: float,
              spans_out: Optional[str] = None) -> Dict[str, object]:
    """One ``--child`` subprocess in its own process group, killed as a
    group (node processes included) on overrun, interrupt or error."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", name, "--seed", str(args.seed), "--seconds", repr(args.seconds),
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkFailure(
            f"{name}: '{mode}' subprocess exceeded the {CEILING_S:.0f} s ceiling"
        ) from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkFailure(
            f"{name}: '{mode}' subprocess exited with code {process.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, args: argparse.Namespace, contract: Dict[str, object],
                 repeat_setup: bool) -> Dict[str, object]:
    """Every subprocess one workload needs, merged into one record."""
    deadline = time.monotonic() + CEILING_S
    end_to_end = [m["name"] for m in contract["end_to_end"]]
    per_layer = [m["name"] for m in contract["per_layer"]]
    base = run_child("measure", args, name, deadline)
    metrics: Dict[str, float] = dict(base["metrics"])
    attempted, failed = base["attempted"], base["failed"]
    problems: List[str] = list(base["problems"])
    setups = [metrics["setup_s"]]
    if repeat_setup:
        setups += run_child("setup", args, name, deadline)["setup_samples_s"]
    metrics["setup_s"] = statistics.median(setups)
    if args.trace:
        spans_out = None
        if args.json:
            spans_out = os.path.join(
                os.path.dirname(os.path.abspath(args.json)), f"spans-{name}.jsonl"
            )
        traced = run_child("measure-traced", args, name, deadline, spans_out)
        span_names = set(traced["metrics"]) - set(metrics)
        metrics.update({k: traced["metrics"][k] for k in span_names})
        metrics["tracing.overhead_ratio"] = (
            traced["cost"] / base["cost"] if base["cost"] else 0.0
        )
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += [f"traced run: {p}" for p in traced["problems"]]
    unknown = sorted(set(metrics) - set(end_to_end) - set(per_layer))
    if unknown:
        raise BenchmarkFailure(f"{name}: metrics not in BENCHMARK.json: {unknown}")
    # At smoke size no write is old enough to have a latency yet.
    missing = [
        m for m in end_to_end
        if m not in metrics or not (metrics[m] or args.smoke)
    ]
    if missing:
        raise BenchmarkFailure(f"{name}: end-to-end metrics missing or 0: {missing}")
    return {
        "workload": name,
        "end_to_end": {m: metrics[m] for m in end_to_end},
        # A layer the workload does not run reads 0: no calls, no time.
        "per_layer": (
            {m: metrics.get(m, 0.0) for m in per_layer} if args.trace else {}
        ),
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "problems": problems,
        "detail": base["detail"],
    }


def environment(args: argparse.Namespace) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def print_record(record: Dict[str, object], contract: Dict[str, object]) -> None:
    units = {
        m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]
    }
    print(f"== {record['workload']}")
    for section in ("end_to_end", "per_layer"):
        for metric, value in record[section].items():
            print(f"  {metric:<44} {value:>16.6g} {units[metric]}")
    print(
        f"  {'failed_fraction':<44} {record['failed_fraction']:>16.6g} "
        f"({record['failed']} of {record['attempted']})"
    )
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    sys.stdout.flush()


def contract_line(record: Dict[str, object], contract: Dict[str, object],
                  traced: bool) -> str:
    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in record[section].items()
            },
        }
    )


def child_main(args: argparse.Namespace) -> int:
    import child

    if args.child == "setup":
        result = child.setup_only(args.workload, args.seed, args.seconds)
    else:
        result = child.measure(
            args.workload, args.seed, args.seconds,
            traced=args.child == "measure-traced", spans_out=args.spans_out,
        )
    print(json.dumps(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end stdout with "
                        "the contract's JSON line (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run traced: per-layer metrics")
    parser.add_argument("--json", metavar="OUT", help="write the full report here; "
                        "span files go to the same directory")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 duration, checks still on")
    parser.add_argument("--child", choices=("measure", "measure-traced", "setup"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    import workloads

    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.smoke:
        args.seconds *= SMOKE_FACTOR
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; one of {workloads.WORKLOADS}")
    # The contract's traced invocation reports no setup_s: skip the repeats.
    repeat_setup = not (args.workload and args.trace)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.json:
        # Span files land beside the report while the workloads run.
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    records = []
    try:
        for name in names:
            record = run_workload(name, args, contract, repeat_setup)
            print_record(record, contract)
            records.append(record)
    except BenchmarkFailure as failure:
        print(f"repro-e2e: FAILED: {failure}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {"schema": "repro-e2e/1", "env": environment(args), "workloads": records},
                handle, indent=1,
            )
    if args.workload:
        print(contract_line(records[0], contract, bool(args.trace)))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
