"""Repeatability check: do two result files agree within the bounds?

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

``A.json`` and ``B.json`` are ``run.py --json`` reports; a
comma-separated list stands for the median of its reports, which is
what the benchmark contract compares (medians of ten runs).  For every
workload and end-to-end metric the relative difference of ``B`` against
``A`` is printed beside the bound ``BENCHMARK.json`` fixes for that
metric; the exit code is 1 if ``B`` is worse than ``A`` by more than
the bound anywhere, or if either file records a failed check.  The
workload-specific latencies (``loadgen.*``, in files written with
``--trace``) are listed without a gate: the benchmark contract keeps
bounds for end-to-end metrics only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

LISTED_ONLY = (
    "loadgen.put_ack_p50_ms",
    "loadgen.put_replicated_p95_ms",
    "loadgen.get_p50_ms",
    "loadgen.flood_ops_per_s",
)


def _by_workload(paths: str) -> Dict[str, Dict[str, object]]:
    """Per workload: the median of each metric over the listed reports,
    and the checks failed and attempted summed over them."""
    merged: Dict[str, Dict[str, object]] = {}
    for path in paths.split(","):
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        for record in report["workloads"]:
            into = merged.setdefault(
                record["workload"],
                {"end_to_end": {}, "per_layer": {}, "failed": 0, "attempted": 0},
            )
            for section in ("end_to_end", "per_layer"):
                for key, value in record[section].items():
                    into[section].setdefault(key, []).append(value)
            into["failed"] += record["failed"]
            into["attempted"] += record["attempted"]
    for record in merged.values():
        for section in ("end_to_end", "per_layer"):
            record[section] = {
                key: statistics.median(values)
                for key, values in record[section].items()
            }
    return merged


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    first, second = _by_workload(argv[0]), _by_workload(argv[1])
    exceeded = 0
    print(f"{'workload':<12} {'metric':<32} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>6}")
    for name in first:
        if name not in second:
            print(f"{name:<12} missing from {argv[1]}")
            exceeded += 1
            continue
        a, b = first[name], second[name]
        for metric in contract["end_to_end"]:
            key = metric["name"]
            va, vb = a["end_to_end"][key], b["end_to_end"][key]
            change = (vb - va) / va
            worse = change if metric["better"] == "lower" else -change
            over = worse > metric["bound"]
            exceeded += over
            print(
                f"{name:<12} {key:<32} {va:>12.5g} {vb:>12.5g} {worse:>+9.1%} "
                f"{metric['bound']:>6.0%}{'  EXCEEDED' if over else ''}"
            )
        for key in LISTED_ONLY:
            va = a["per_layer"].get(key)
            vb = b["per_layer"].get(key)
            if va and vb:
                print(
                    f"{name:<12} {key:<32} {va:>12.5g} {vb:>12.5g} "
                    f"{(vb - va) / va:>+9.1%} {'-':>6}"
                )
        for label, record in (("A", a), ("B", b)):
            if record["failed"]:
                exceeded += 1
                print(f"{name:<12} {label} failed {record['failed']} of "
                      f"{record['attempted']} checks")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
