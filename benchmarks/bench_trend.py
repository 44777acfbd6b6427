"""Cross-PR perf trend: diff the BENCH_*.json artifacts against git.

Every perf-bearing benchmark in this directory writes a ``BENCH_*.json``
at the repo root and commits it, so ``git show HEAD:BENCH_x.json`` is
the previous PR's measurement of this machine-shaped workload. This
module walks both JSON trees, pairs up the numeric leaves, and prints a
table of the deltas — making perf regressions visible in CI without
gating on them (absolute numbers move with runner hardware; the gating
ratios live inside the benchmarks themselves).

Direction is inferred from the metric name: throughput-like keys
(``*_per_s``, ``*speedup*``) regress when they drop, cost-like keys
(``seconds``, ``*_s``, ``*_kb``, latencies) regress when they rise, and
anything else is reported as informational. Changes smaller than
``TOLERANCE`` are noise on a shared runner and reported as steady.

Run directly (``python benchmarks/bench_trend.py [--strict]``) or via
pytest; both write ``BENCH_trend.md`` at the repo root. ``--strict``
exits non-zero on regressions for local use; CI stays informational.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_trend.md"
BASELINE_REF = "HEAD"
#: Relative change below which a delta is considered runner noise.
TOLERANCE = 0.10

HIGHER_IS_BETTER = ("_per_s", "per_s", "speedup", "ops_s")
LOWER_IS_BETTER = ("seconds", "_kb", "_ms", "latency", "p50", "p99")


def numeric_leaves(tree: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf in a JSON tree."""
    if isinstance(tree, bool):
        return
    if isinstance(tree, (int, float)):
        yield prefix, float(tree)
    elif isinstance(tree, dict):
        for key, value in tree.items():
            yield from numeric_leaves(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from numeric_leaves(value, f"{prefix}[{index}]")


def direction(path: str) -> Optional[bool]:
    """True = higher is better, False = lower is better, None = info only."""
    leaf = path.rsplit(".", 1)[-1]
    if any(mark in leaf for mark in HIGHER_IS_BETTER):
        return True
    if any(leaf.endswith(mark) or mark in leaf for mark in LOWER_IS_BETTER):
        return False
    return None


def baseline_json(name: str, ref: str = BASELINE_REF) -> Optional[Dict]:
    """The artifact as committed at ``ref``, or None if absent there."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def diff_artifact(name: str, ref: str = BASELINE_REF) -> List[Dict[str, object]]:
    """Per-metric rows comparing the working-tree artifact to ``ref``."""
    current_path = REPO_ROOT / name
    if not current_path.exists():
        return []
    current = json.loads(current_path.read_text(encoding="utf-8"))
    previous = baseline_json(name, ref)
    if previous is None:
        return [{"artifact": name, "metric": "(no baseline)", "verdict": "new"}]

    old = dict(numeric_leaves(previous))
    rows: List[Dict[str, object]] = []
    for path, value in numeric_leaves(current):
        if path not in old:
            continue
        before = old[path]
        if before == 0:
            continue
        change = (value - before) / abs(before)
        better = direction(path)
        if better is None:
            verdict = "info"
        elif abs(change) <= TOLERANCE:
            verdict = "steady"
        elif (change > 0) == better:
            verdict = "improved"
        else:
            verdict = "REGRESSION"
        rows.append(
            {
                "artifact": name,
                "metric": path,
                "before": before,
                "after": value,
                "change_pct": round(change * 100, 1),
                "verdict": verdict,
            }
        )
    return rows


def render(rows: List[Dict[str, object]], ref: str) -> str:
    lines = [
        f"# BENCH trend vs `{ref}`",
        "",
        "| artifact | metric | before | after | Δ% | verdict |",
        "|---|---|---:|---:|---:|---|",
    ]
    # Regressions first so they survive table truncation in CI logs;
    # steady metrics and unmoved info rows are summarised, not listed.
    order = {"REGRESSION": 0, "improved": 1, "new": 2, "info": 3}
    shown = [
        row
        for row in rows
        if row["verdict"] in ("REGRESSION", "improved", "new")
        or (
            row["verdict"] == "info"
            and abs(row.get("change_pct", 0.0)) > TOLERANCE * 100
        )
    ]
    for row in sorted(shown, key=lambda r: order.get(str(r["verdict"]), 5)):
        if row["verdict"] == "new":
            lines.append(f"| {row['artifact']} | {row['metric']} | | | | new |")
            continue
        lines.append(
            f"| {row['artifact']} | {row['metric']} | {row['before']:g} "
            f"| {row['after']:g} | {row['change_pct']:+.1f} | {row['verdict']} |"
        )
    if not shown:
        lines.append("| | (no metric moved) | | | | |")
    regressions = sum(1 for r in rows if r["verdict"] == "REGRESSION")
    improved = sum(1 for r in rows if r["verdict"] == "improved")
    quiet = len(rows) - len(shown)
    lines += [
        "",
        f"{regressions} regression(s), {improved} improved, {quiet} "
        f"steady/unmoved not listed (tolerance ±{TOLERANCE:.0%}).",
        "",
    ]
    return "\n".join(lines)


def run_trend(ref: str = BASELINE_REF) -> Tuple[List[Dict[str, object]], str]:
    rows: List[Dict[str, object]] = []
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        rows.extend(diff_artifact(path.name, ref))
    report = render(rows, ref)
    REPORT_PATH.write_text(report, encoding="utf-8")
    return rows, report


#: The telemetry bench's O(1)-memory claim, re-checked from the
#: committed artifact: streaming status peak may grow by at most this
#: factor across the artifact's rungs (10^3 -> 10^5 trials). A ratio
#: gate is runner-independent, so unlike the absolute deltas above it
#: is enforced, not informational.
TELEMETRY_FLAT_FACTOR = 4.0


def telemetry_flat_violation(tree: Dict) -> Optional[str]:
    """None if the artifact's streaming peaks are flat, else a message."""
    results = tree.get("results", {})
    peaks = {
        int(rung): float(row["streaming_peak_kb"])
        for rung, row in results.items()
        if isinstance(row, dict) and "streaming_peak_kb" in row
    }
    if len(peaks) < 2:
        return "artifact carries fewer than two rungs"
    smallest, largest = min(peaks), max(peaks)
    if peaks[largest] > TELEMETRY_FLAT_FACTOR * max(peaks[smallest], 1.0):
        return (
            f"streaming peak grew {peaks[smallest]:.0f} KiB @ {smallest} -> "
            f"{peaks[largest]:.0f} KiB @ {largest} trials "
            f"(limit {TELEMETRY_FLAT_FACTOR}x)"
        )
    return None


def test_telemetry_memory_stays_flat():
    """Gate: the committed telemetry artifact still shows O(1) status."""
    path = REPO_ROOT / "BENCH_telemetry.json"
    if not path.exists():
        return  # bench not yet run on this checkout; nothing to gate
    tree = json.loads(path.read_text(encoding="utf-8"))
    violation = telemetry_flat_violation(tree)
    assert violation is None, violation


def test_trend_report(report):
    """Informational in CI: print the table, never fail the build on it
    (absolute perf moves with the runner; in-bench ratio gates do the
    enforcement)."""
    rows, rendered = run_trend()
    report.add("trend", rendered)
    # The report must at least have produced rows for the artifacts
    # that exist both here and at the baseline.
    assert REPORT_PATH.exists()
    assert isinstance(rows, list)


def main(argv: List[str]) -> int:
    strict = "--strict" in argv
    ref = BASELINE_REF
    for arg in argv:
        if arg.startswith("--ref="):
            ref = arg.split("=", 1)[1]
    rows, rendered = run_trend(ref)
    print(rendered)
    regressions = [r for r in rows if r["verdict"] == "REGRESSION"]
    if strict and regressions:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
