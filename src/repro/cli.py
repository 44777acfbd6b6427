"""Command-line interface: regenerate any paper artefact.

Examples::

    repro fig5 --reps 500            # Fig. 5 CDFs (paper used 10,000)
    repro fig5 --workers 4           # same, fanned out over 4 processes
    repro fig3                       # Fig. 3 request-satisfaction series
    repro table2                     # §3-4 dynamic-demand comparison
    repro scaling --reps 20          # §5 sessions-vs-diameter sweep
    repro campaign run scaling --workers 8 --checkpoint sc.jsonl
    repro campaign resume scaling --workers 8 --checkpoint sc.jsonl
    repro campaign status --checkpoint sc.jsonl
    repro sweep --topology ba --variants weak fast --reps 50 --json out.json
    repro sweep --topology line --faults none split_brain   # fault sweep
    repro islands                    # §6 leader-bridge extension
    repro surface                    # Fig. 1 demand landscape
    repro run --variant fast -n 80   # one ad-hoc simulation
    repro serve --nodes 16 --variant fast --duration 5   # live cluster
    repro serve --transport tcp --nodes 4 --duration 5   # one process per node
    repro serve --faults rolling_restart --duration 8    # chaos at boot
    repro serve --control-port 7700 --duration 60 &      # accept chaos clients
    repro chaos --connect 127.0.0.1:7700 --faults flapping_links --wait
    repro all --reps 30              # everything, reduced fidelity

Every command that repeats trials (fig3, fig5, fig6, table2, scaling,
uniform, islands, overhead, ablation, staleness, strongcost, partition,
skew, sweep, campaign, and ``all``, which hands it on) accepts
``--workers N`` to execute repetitions on a process pool; results are
bit-identical to serial. fig5, fig6, scaling, sweep and campaign also
take ``--json PATH`` to export the full :class:`ExperimentResult` for
archiving.

Also available as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core.metrics import reach_time
from .demand.field import SurfaceDemand, Valley
from .errors import ExperimentError, ReproError
from .experiments import figures
from .experiments.backends import resolve_backend
from .experiments.campaign import CampaignPaused
from .experiments.figures import CAMPAIGNS
from .experiments.plan import ExperimentPlan
from .experiments.scenarios import (
    DEMANDS,
    FAULTS,
    PLACEMENTS,
    TOPOLOGIES,
    VARIANTS,
    build_faults,
    build_system,
)
from .experiments.sink import StreamingSink, stream_status
from .experiments.tables import format_kv, format_table
from .viz.ascii import bar_chart, cdf_plot
from .viz.surface import render_surface


def _add_common(parser: argparse.ArgumentParser, reps: Optional[int]) -> None:
    """Options of every command that repeats trials."""
    parser.add_argument("--reps", type=int, default=reps, help="repetitions")
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size; 1 = serial (results are identical)",
    )


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the raw ExperimentResult as JSON",
    )


def _backend(args) -> object:
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        # resolve_backend(0) means "serial" for API callers, but on the
        # command line a zero-or-negative pool is always a typo.
        raise ExperimentError(f"--workers must be >= 1, got {workers}")
    return resolve_backend(workers)


def _artefact(args, driver, **kwargs):
    """Run a paper-artefact driver at ``--reps``/``--seed`` on the
    ``--workers`` backend, shutting any pool down afterwards."""
    with _backend(args) as backend:
        return driver(reps=args.reps, seed=args.seed, backend=backend, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Demand based Algorithm for Rapid Updating "
            "of Replicas' (ICDCSW 2002)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="Fig. 1: the hills-and-valleys demand field")
    p.add_argument("--valleys", type=int, default=2)

    p = sub.add_parser("table1", help="§2: all session orders ranked")

    p = sub.add_parser("fig3", help="Fig. 3: requests satisfied per session")
    _add_common(p, reps=60)

    for name, n in (("fig5", 50), ("fig6", 100)):
        p = sub.add_parser(name, help=f"Fig. {name[-1]}: CDF of sessions, {n} nodes")
        _add_common(p, reps=120)
        _add_json(p)
        p.add_argument("--nodes", type=int, default=n)
        p.add_argument("--plot", action="store_true", help="render the ASCII CDF plot")

    p = sub.add_parser("table2", help="§3-4: dynamic demand (Fig. 4 scenario)")
    _add_common(p, reps=80)

    p = sub.add_parser("scaling", help="§5: sessions vs diameter across sizes")
    _add_common(p, reps=40)
    _add_json(p)
    p.add_argument(
        "--sizes", type=int, nargs="+", default=[25, 50, 100, 200], help="node counts"
    )

    p = sub.add_parser(
        "campaign",
        help="run many plans over one worker pool, with checkpoint/resume",
    )
    csub = p.add_subparsers(dest="action", required=True)
    for action, blurb in (
        ("run", "run a named campaign (optionally checkpointing)"),
        ("resume", "continue a checkpointed campaign from where it stopped"),
    ):
        cp = csub.add_parser(action, help=blurb)
        cp.add_argument(
            "name",
            metavar="NAME",
            help=f"campaign name ({', '.join(sorted(CAMPAIGNS))})",
        )
        # --reps defaults to each campaign's own fidelity.
        _add_common(cp, reps=None)
        _add_json(cp)
        cp.add_argument(
            "--checkpoint",
            metavar="PATH",
            default=None,
            help="JSON-lines file recording every completed trial; an "
            "interrupted run resumes from it with bit-identical results",
        )
        if action == "run":
            cp.add_argument(
                "--limit",
                type=int,
                default=None,
                help="checkpoint and stop after N new trials "
                "(requires --checkpoint; for chunked/CI runs)",
            )
    cp = csub.add_parser("status", help="progress of a checkpointed campaign")
    cp.add_argument("--checkpoint", metavar="PATH", required=True)
    cp.add_argument(
        "--telemetry",
        action="store_true",
        help="also print streaming per-series aggregates from the "
        "telemetry sidecar (means and sketch quantiles)",
    )
    cp = csub.add_parser(
        "export", help="export a checkpoint for offline analysis"
    )
    cp.add_argument("--checkpoint", metavar="PATH", required=True)
    cp.add_argument(
        "--columnar",
        metavar="DIR",
        required=True,
        help="write packed per-column binaries + manifest.json "
        "(numpy/pandas/duckdb-friendly, stdlib-only writer)",
    )

    p = sub.add_parser(
        "sweep", help="run any registry-named experiment grid (plan + backend)"
    )
    _add_common(p, reps=50)
    _add_json(p)
    # Registry keys are validated by the plan itself, so an unknown name
    # exits with a one-line ReproError naming the known keys instead of
    # an argparse usage dump.
    p.add_argument("--topology", metavar="NAME", default="ba",
                   help=f"topology registry key ({', '.join(sorted(TOPOLOGIES))})")
    p.add_argument("--demand", metavar="NAME", default="uniform",
                   help=f"demand registry key ({', '.join(sorted(DEMANDS))})")
    p.add_argument(
        "--variants",
        nargs="+",
        metavar="NAME",
        default=["weak", "fast"],
        help="protocol variants to compare, paired repetitions "
        f"({', '.join(sorted(VARIANTS))})",
    )
    p.add_argument(
        "--faults",
        nargs="+",
        metavar="NAME",
        default=["none"],
        help="fault regimes to sweep, paired with the same seeds "
        f"({', '.join(sorted(FAULTS))})",
    )
    p.add_argument(
        "--placements",
        nargs="+",
        metavar="NAME",
        default=["none"],
        help="placement regimes to sweep, paired with the same seeds "
        f"({', '.join(sorted(PLACEMENTS))})",
    )
    p.add_argument("-n", "--nodes", type=int, default=50)
    p.add_argument("--max-time", type=float, default=80.0)
    p.add_argument("--loss", type=float, default=0.0)

    p = sub.add_parser("uniform", help="§5: linear / ring / grid topologies")
    _add_common(p, reps=30)

    p = sub.add_parser("islands", help="§6: island leader bridges")
    _add_common(p, reps=30)

    p = sub.add_parser("overhead", help="§8: traffic of weak vs fast")
    _add_common(p, reps=20)

    p = sub.add_parser("ablation", help="§2: decompose the two optimisations")
    _add_common(p, reps=40)

    p = sub.add_parser("staleness", help="§4: advertisement-period sweep")
    _add_common(p, reps=30)

    p = sub.add_parser("strongcost", help="§1: strong-consistency cost")
    _add_common(p, reps=10)

    p = sub.add_parser("partition", help="§1: convergence across a partition")
    _add_common(p, reps=12)

    p = sub.add_parser("skew", help="§8: demand-skew sensitivity sweep")
    _add_common(p, reps=15)

    p = sub.add_parser("run", help="one ad-hoc simulation")
    p.add_argument("--topology", choices=sorted(TOPOLOGIES), default="ba")
    p.add_argument("--demand", choices=sorted(DEMANDS), default="uniform")
    p.add_argument("--variant", choices=sorted(VARIANTS), default="fast")
    p.add_argument("-n", "--nodes", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--loss", type=float, default=0.0)

    p = sub.add_parser(
        "serve",
        help="live cluster on the asyncio runtime, serving synthetic traffic",
    )
    p.add_argument("--nodes", type=int, default=12, help="replica count")
    p.add_argument("--variant", choices=sorted(VARIANTS), default="fast")
    p.add_argument(
        "--duration", type=float, default=5.0, help="wall-clock seconds to serve"
    )
    p.add_argument("--rate", type=float, default=20.0, help="client puts per second")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--time-scale",
        type=float,
        default=0.05,
        help="wall seconds per protocol time unit (0.05 = 20 units/s)",
    )
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument(
        "--transport",
        choices=["queue", "tcp"],
        default="queue",
        help="queue = one process, one event loop; tcp = one OS process "
        "per node over real sockets",
    )
    p.add_argument(
        "--faults",
        choices=sorted(FAULTS),
        default="none",
        help="fault schedule replayed against the live cluster from boot",
    )
    p.add_argument(
        "--control-port",
        type=int,
        default=None,
        metavar="PORT",
        help="open a control socket for `repro chaos` clients (0 = ephemeral)",
    )
    p.add_argument(
        "--standby-hubs",
        type=int,
        default=1,
        metavar="N",
        help="tcp mode: extra standby hub listeners beyond the primary "
        "(nodes fail over to them when the hub dies)",
    )
    p.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="require this shared token on every control connection "
        "(unauthenticated chaos/metrics frames are refused)",
    )
    p.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECS",
        help="emit a newline-JSON telemetry snapshot every SECS seconds "
        "(schema repro-telemetry/1, same as the campaign sidecar)",
    )
    p.add_argument(
        "--metrics-path",
        metavar="PATH",
        default=None,
        help="append telemetry snapshots to PATH (default: stderr); "
        "implies --metrics-interval 1.0 when given alone",
    )

    p = sub.add_parser(
        "chaos",
        help="inject a fault schedule into a serving cluster over its "
        "control socket",
    )
    p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="control address printed by `repro serve --control-port`",
    )
    p.add_argument(
        "--faults",
        choices=sorted(name for name in FAULTS if name != "none"),
        default=None,
        help="fault schedule to generate against the cluster's topology",
    )
    p.add_argument("--seed", type=int, default=1, help="schedule generator seed")
    p.add_argument(
        "--kill-hub",
        action="store_true",
        help="kill the cluster's primary hub mid-traffic (tcp clusters "
        "with standby hubs survive by failing over)",
    )
    p.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="shared control-plane token (must match `repro serve --token`)",
    )
    p.add_argument(
        "--wait",
        action="store_true",
        help="poll until every event of the schedule has fired",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-round-trip socket timeout in seconds",
    )
    p.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a JSON convergence report (faults applied/skipped, "
        "post-heal convergence seconds, p99 put-to-replicated); "
        "implies --wait",
    )

    p = sub.add_parser("all", help="run every experiment (reduced fidelity)")
    _add_common(p, reps=30)

    return parser


# ---------------------------------------------------------------------------
# Command implementations (each prints and returns its text)
# ---------------------------------------------------------------------------


def cmd_surface(args) -> str:
    valleys = [
        Valley(center=(25.0, 25.0), peak=100.0, radius=12.0),
        Valley(center=(75.0, 70.0), peak=80.0, radius=10.0),
        Valley(center=(20.0, 80.0), peak=60.0, radius=8.0),
    ][: max(1, args.valleys)]
    field = SurfaceDemand(
        positions={0: (0.0, 0.0), 1: (100.0, 100.0)}, valleys=valleys, base=1.0
    )
    art = render_surface(field, bounds=(0.0, 0.0, 100.0, 100.0))
    return "Fig. 1 — demand landscape (valleys = high demand)\n\n" + art


def cmd_table1(args) -> str:
    result = figures.table1_orderings()
    table = format_table(
        ["order", "t=1", "t=2", "t=3", "t=4", "area"],
        result.rows(),
        title="§2 — cumulative requests satisfied per visit order (B holds the update)",
    )
    notes = format_kv(
        "extremes",
        [
            ("worst (paper: B-C,B-A,B-E,B-D)", "B-" + ",B-".join(result.worst)),
            ("best  (paper: B-D,B-E,B-A,B-C)", "B-" + ",B-".join(result.best)),
        ],
    )
    return table + "\n\n" + notes


def _export_json(args, experiment) -> List[str]:
    """Save ``experiment`` when ``--json`` was given; returns report lines."""
    path = getattr(args, "json", None)
    if not path:
        return []
    try:
        experiment.save(path)
    except OSError as exc:
        raise ExperimentError(f"cannot write results to {path}: {exc}") from exc
    return [f"raw results written to {path}"]


def cmd_fig_cdf(args) -> str:
    """Figs. 5 and 6: one command, told apart by ``--nodes``'s default."""
    result = _artefact(args, figures.figure_cdf, n=args.nodes)
    out = [
        format_table(
            ["curve (mean sessions)", "paper", "measured"],
            result.rows(),
            title=f"{result.name} — n={result.n}, reps={result.reps}, "
            f"mean diameter {result.mean_diameter:.2f}",
        )
    ]
    if getattr(args, "plot", False):
        out.append("")
        out.append(cdf_plot(result.curves, result.grid, title="CDF of sessions"))
    out.extend(_export_json(args, result.experiment))
    return "\n".join(out)


def cmd_table2(args) -> str:
    result = _artefact(args, figures.table2_dynamic)
    sequence_table = format_table(
        ["beliefs", "t=1", "t=2", "t=3"],
        result.sequence_rows(),
        title="§4 table — B's partner per session (paper: B-D, B-C', B-A')",
    )
    sim_table = format_table(
        ["variant", "t(C')", "t(all)"] + [f"sat@{i}" for i in range(1, 7)],
        result.rows(),
        title="chain scenario — A 2->0 and C 0->9 at t=2 while the update is in flight",
    )
    return sequence_table + "\n\n" + sim_table


def cmd_scaling(args) -> str:
    # One backend for the whole sweep: the campaign underneath reuses
    # its process pool across every size.
    result = _artefact(args, figures.scaling_experiment, sizes=tuple(args.sizes))
    return format_table(
        ["nodes", "diameter", "weak mean", "fast mean", "fast top-10% mean"],
        result.rows(),
        title="§5 — sessions-to-consistency vs network size (diameter effect)",
    )


def cmd_sweep(args) -> str:
    faults = tuple(getattr(args, "faults", None) or ("none",))
    placements = tuple(getattr(args, "placements", None) or ("none",))
    plan = ExperimentPlan(
        name=f"sweep-{args.topology}-{args.demand}",
        topology=args.topology,
        demand=args.demand,
        variants=tuple(args.variants),
        n=args.nodes,
        reps=args.reps,
        seed=args.seed,
        max_time=args.max_time,
        loss=args.loss,
        faults=faults,
        placements=placements,
    )
    with _backend(args) as backend:
        result = plan.run(backend)
    faulted = faults != ("none",)
    placed = placements != ("none",)
    censored = False

    def mean_of(cdf) -> str:
        # A fully censored series (nothing converged within max-time)
        # has no mean; render n/a instead of crashing the report.
        return f"{cdf.mean():.3f}" if cdf.count else "n/a"

    rows = []
    for label in plan.series_labels():
        series = result.series[label]
        row = [
            label,
            mean_of(series.cdf_all()),
            mean_of(series.cdf_top()),
            mean_of(series.cdf_top1()),
            f"{series.mean_messages():.0f}",
        ]
        if faulted:
            post_heal = series.mean_post_heal()
            row.append("n/a" if post_heal is None else f"{post_heal:.3f}")
            fraction = series.converged_fraction()
            conv = f"{100 * fraction:.0f}%"
            if fraction < 1.0:
                conv += " !"
                censored = True
            row.append(conv)
        if placed:
            area = series.mean_satisfied_area()
            row.append("n/a" if area is None else f"{area:.0f}")
        rows.append(tuple(row))
    title = (
        f"sweep — {args.topology} n={args.nodes}, demand={args.demand}, "
        f"reps={args.reps}, backend={result.notes['backend']}"
    )
    if "effective_n" in result.params:
        title += f" (effective n={result.params['effective_n']})"
    headers = ["series", "mean (all)", "mean (top 10%)", "mean (hottest)", "msgs"]
    if faulted:
        headers.extend(["post-heal", "conv"])
    if placed:
        headers.append("satisfied")
    out = [format_table(headers, rows, title=title)]
    if censored:
        out.append(
            "! some trials never converged within max-time; the means "
            "(including post-heal) cover converged trials only"
        )
    out.extend(_export_json(args, result))
    return "\n".join(out)


def _telemetry_table(registry) -> str:
    """Per-series streaming aggregates, one row per recorded series."""
    moments = {}
    sketches = {}
    trials = {}
    converged = {}
    for name, labels, metric in registry.series():
        key = (labels.get("plan", "?"), labels.get("series", "?"))
        if name == "campaign.trials":
            trials[key] = metric.value
        elif name == "campaign.converged":
            converged[key] = metric.value
        elif name == "trial.time_all":
            moments[key] = metric
        elif name == "trial.time_all.sketch":
            sketches[key] = metric
    rows = []
    for key in sorted(trials):
        mom = moments.get(key)
        sketch = sketches.get(key)
        rows.append(
            (
                key[0],
                key[1],
                trials[key],
                f"{100 * converged.get(key, 0) // max(1, trials[key])}%",
                "n/a" if mom is None or not mom.count else f"{mom.mean:.3f}",
                "n/a" if sketch is None or not sketch.count else f"{sketch.quantile(0.5):.2f}",
                "n/a" if sketch is None or not sketch.count else f"{sketch.quantile(0.95):.2f}",
                "n/a" if sketch is None or not sketch.count else f"{sketch.quantile(0.99):.2f}",
            )
        )
    return format_table(
        ["plan", "series", "trials", "conv", "mean t(all)", "p50", "p95", "p99"],
        rows,
        title="streaming aggregates (sidecar; O(1) memory in trial count)",
    )


def _campaign_status(path: str, telemetry: bool = False) -> str:
    status = stream_status(path)
    header, counts = status.header, status.counts
    rows = []
    if header is not None:
        totals = {
            # Current headers fingerprint each plan ({"trials": N,
            # "plan": {...}}); bare ints are accepted for hand-rolled
            # checkpoint files.
            plan: info.get("trials", 0) if isinstance(info, dict) else int(info)
            for plan, info in dict(header.get("plans", {})).items()
        }
        for plan, total in totals.items():
            done = counts.get(plan, 0)
            state = "done" if done >= total else f"{100 * done // max(1, total)}%"
            rows.append((plan, done, total, state))
        done_all = sum(counts.values())
        total_all = int(header.get("total", done_all))
        title = (
            f"campaign {header.get('campaign', '?')!r} — "
            f"{done_all}/{total_all} trials checkpointed"
        )
    else:
        # Headerless file (hand-rolled sink): report raw counts.
        for plan, done in sorted(counts.items()):
            rows.append((plan, done, "?", "?"))
        title = f"checkpoint {path} — {sum(counts.values())} trials recorded"
    if status.partial:
        title += f" (partial: {status.torn_lines} in-flight/torn line(s))"
    out = [format_table(["plan", "done", "total", "state"], rows, title=title)]
    if telemetry:
        if status.telemetry is None:
            out.append(
                "no telemetry sidecar next to the checkpoint (runs "
                "record one automatically; older checkpoints have none)"
            )
        else:
            out.append(_telemetry_table(status.telemetry))
            if status.folded < status.trials:
                out.append(
                    f"sidecar watermark at {status.folded}/{status.trials} "
                    "trials; aggregates lag the log until the next "
                    "checkpoint write"
                )
    return "\n".join(out)


def _campaign_export(args) -> str:
    from .experiments.columnar import export_columnar

    manifest = export_columnar(args.checkpoint, args.columnar)
    pairs = [
        ("rows", manifest["rows"]),
        ("columns", len(manifest["columns"])),
        (
            "nulls",
            sum(info["nulls"] for info in manifest["columns"].values()),
        ),
        ("directory", args.columnar),
    ]
    return format_kv(f"columnar export of {args.checkpoint}", pairs)


def cmd_campaign(args) -> str:
    if args.action == "status":
        return _campaign_status(args.checkpoint, telemetry=args.telemetry)
    if args.action == "export":
        return _campaign_export(args)
    campaign = figures.build_campaign(args.name, reps=args.reps, seed=args.seed)
    limit = getattr(args, "limit", None)
    if limit is not None and not args.checkpoint:
        raise ExperimentError(
            "--limit without --checkpoint would discard the completed "
            "trials; add --checkpoint PATH"
        )
    if args.action == "resume":
        if not args.checkpoint:
            raise ExperimentError("campaign resume requires --checkpoint PATH")
        if not Path(args.checkpoint).exists():
            raise ExperimentError(
                f"no checkpoint at {args.checkpoint}; start one with "
                f"`repro campaign run {args.name} --checkpoint {args.checkpoint}`"
            )
    out: List[str] = []
    with _backend(args) as backend:
        if args.checkpoint:
            with StreamingSink(args.checkpoint) as sink:
                already = len(sink)
                try:
                    outcome = campaign.run(backend, sink=sink, limit=limit)
                except CampaignPaused as paused:
                    return (
                        f"campaign {campaign.name!r} paused: {paused.done}/"
                        f"{paused.total} trials checkpointed to {args.checkpoint}\n"
                        f"resume with: repro campaign resume {args.name} "
                        f"--checkpoint {args.checkpoint}"
                    )
                executed = campaign.total_trials() - already
            if already:
                out.append(
                    f"resumed from {args.checkpoint}: {already} trials "
                    f"loaded, {executed} executed"
                )
        else:
            outcome = campaign.run(backend)
    rows = []
    for plan_key, result in outcome.results.items():
        for label in sorted(result.series):
            series = result.series[label]
            cdf = series.cdf_all()
            fraction = series.converged_fraction()
            rows.append(
                (
                    plan_key,
                    label,
                    f"{cdf.mean():.3f}" if cdf.count else "n/a",
                    f"{100 * fraction:.0f}%" + (" !" if fraction < 1.0 else ""),
                )
            )
    out.insert(
        0,
        format_table(
            ["plan", "series", "mean (all)", "conv"],
            rows,
            title=(
                f"campaign {campaign.name!r} — {len(campaign.plans)} plans, "
                f"{campaign.total_trials()} trials, "
                f"backend={outcome.notes['backend']}"
            ),
        ),
    )
    out.extend(_export_json(args, outcome))
    return "\n".join(out)


def cmd_ablation(args) -> str:
    result = _artefact(args, figures.ablation_experiment)
    table = format_table(
        ["variant", "mean sessions (all)", "mean sessions (top 10%)"],
        result.rows(),
        title="§2 — contribution of each optimisation",
    )
    chart = bar_chart(
        {v: d["mean_top"] for v, d in result.rows_by_variant.items()},
        title="mean sessions to the high-demand subset (lower is better)",
    )
    return table + "\n\n" + chart


def cmd_partition(args) -> str:
    result = _artefact(args, figures.partition_experiment)
    table = format_table(
        ["variant", "writer side consistent", "all replicas", "after heal"],
        result.rows(),
        title=f"§1 — partition heals at t={result.heal_time:.0f}",
    )
    rate = result.strong_commit_rate_during_partition
    notes = format_kv(
        "strong consistency",
        [("commit rate for writes during the partition", f"{100 * rate:.0f}%")],
    )
    return table + "\n" + notes


def _table_command(driver, headers: List[str], title: str):
    """A command that runs ``driver`` and prints its rows as one table;
    ``title`` may read the result's fields as ``{r.field}``."""

    def command(args) -> str:
        result = _artefact(args, driver)
        return format_table(headers, result.rows(), title=title.format(r=result))

    return command


cmd_fig3 = _table_command(
    figures.figure3,
    ["session", "worst case", "optimal case", "fast consistency (sim)"],
    "Fig. 3 — requests satisfied with consistent content",
)
cmd_uniform = _table_command(
    figures.uniform_topologies,
    ["topology", "n", "diameter", "weak mean", "fast mean", "fast top mean"],
    "§5 — simple uniform topologies",
)
cmd_islands = _table_command(
    figures.islands_experiment,
    ["variant", "far leader", "far island (mean member)", "all replicas"],
    "§6 — two-valley grid, {r.islands_detected} islands detected "
    "(sessions until consistent)",
)
cmd_overhead = _table_command(
    figures.overhead_experiment,
    ["variant", "messages", "bytes", "fast bytes", "fast share", "t(top 10%)"],
    "§8 — traffic over a fixed {r.horizon:.0f}-session window",
)
cmd_staleness = _table_command(
    figures.staleness_experiment,
    ["knowledge", "sessions to hottest", "sessions to all", "advert bytes"],
    "§4 — demand-knowledge freshness under drifting demand",
)
cmd_strongcost = _table_command(
    figures.strong_cost_experiment,
    ["nodes", "strong write latency", "strong msgs/write", "strong fail rate @5% loss",
     "weak write latency", "weak convergence"],
    "§1 — synchronous replication vs anti-entropy, per write",
)
cmd_skew = _table_command(
    figures.skew_experiment,
    ["demand", "weak (all)", "fast (all)", "fast (hottest)", "push deliveries"],
    "§8 — demand-skew sweep (flat = the paper's worst case)",
)


def cmd_run(args) -> str:
    system = build_system(
        topology=args.topology,
        demand=args.demand,
        variant=args.variant,
        n=args.nodes,
        seed=args.seed,
        loss=args.loss,
    )
    system.start()
    origin = list(system.topology.nodes)[0]
    update = system.inject_write(origin)
    done = system.run_until_replicated(update.uid, max_time=200.0)
    times = system.apply_times(update.uid)
    snapshot = system.demand_snapshot(0.0)
    top = sorted(snapshot, key=lambda n: -snapshot[n])[
        : max(1, system.topology.num_nodes // 10)
    ]
    t_top = reach_time(times, top)
    traffic = system.traffic()
    pairs = [
        ("topology", f"{args.topology} n={system.topology.num_nodes}"),
        ("variant", args.variant),
        ("origin", origin),
        ("sessions to all replicas", "did not converge" if done is None else f"{done:.3f}"),
        ("sessions to top-10% demand", "n/a" if t_top is None else f"{t_top:.3f}"),
        ("messages", traffic["messages_sent"]),
        ("bytes", traffic["bytes_sent"]),
    ]
    return format_kv("ad-hoc run", pairs)


def cmd_serve(args) -> str:
    # Imported lazily: the asyncio-backed runtime must not tax the
    # simulation-only commands (or any plain `import repro`).
    import time as _time

    from .errors import ReplicationError
    from .runtime.cluster import ReplicaCluster
    from .telemetry.emitter import SnapshotEmitter
    from .topology.brite import internet_like

    if args.rate <= 0:
        raise ExperimentError(f"--rate must be positive, got {args.rate}")
    if args.duration <= 0:
        raise ExperimentError(f"--duration must be positive, got {args.duration}")
    metrics_interval = args.metrics_interval
    if metrics_interval is None and args.metrics_path is not None:
        metrics_interval = 1.0
    if metrics_interval is not None and metrics_interval <= 0:
        raise ExperimentError(
            f"--metrics-interval must be positive, got {metrics_interval}"
        )
    config = VARIANTS[args.variant]()
    topology = internet_like(args.nodes, seed=args.seed)
    schedule = None
    if args.faults != "none":
        schedule = build_faults(args.faults, topology, seed=args.seed)
    gap = 1.0 / args.rate
    uids = []
    refused = 0
    emitter = None
    with ReplicaCluster(
        topology,
        config=config,
        seed=args.seed,
        time_scale=args.time_scale,
        loss=args.loss,
        transport=args.transport,
        faults=schedule,
        control_port=args.control_port,
        standby_hubs=args.standby_hubs,
        token=args.token,
    ) as cluster:
        node_ids = cluster.node_ids
        if cluster.control_address is not None:
            print(
                "control socket on "
                f"{cluster.control_address[0]}:{cluster.control_address[1]}",
                file=sys.stderr,
            )
        for standby in cluster.hub_addresses[1:]:
            print(
                f"standby hub on {standby[0]}:{standby[1]}",
                file=sys.stderr,
            )
        if metrics_interval is not None:
            if args.metrics_path is not None:
                emitter = SnapshotEmitter(cluster.telemetry, path=args.metrics_path)
            else:
                emitter = SnapshotEmitter(cluster.telemetry, stream=sys.stderr)
        started = _time.monotonic()
        deadline = started + args.duration
        next_emit = (
            started + metrics_interval if metrics_interval is not None else None
        )
        sequence = 0
        while _time.monotonic() < deadline:
            node = node_ids[sequence % len(node_ids)]
            try:
                update = cluster.put("content", f"v{sequence}", node=node)
            except ReplicationError:
                # The target is crashed by an injected fault right now;
                # a real client would retry elsewhere.
                refused += 1
            else:
                uids.append(update.uid)
            sequence += 1
            if next_emit is not None and _time.monotonic() >= next_emit:
                cluster.emit_metrics(emitter, puts=sequence)
                next_emit += metrics_interval
            _time.sleep(gap)
        elapsed = _time.monotonic() - started
        # Grace period: let in-flight propagation finish before reading.
        if uids:
            cluster.wait_replicated(uids[-1], timeout=max(2.0, 20 * args.time_scale))
        if emitter is not None:
            # Final snapshot after the grace period, so the trail always
            # ends with the settled distribution.
            cluster.emit_metrics(emitter, puts=sequence, final=True)
            emitter.close()
        p50 = cluster.replication_latency_quantile(0.5)
        p99 = cluster.replication_latency_quantile(0.99)
        stats = cluster.stats()
    pairs = [
        ("nodes", stats["nodes"]),
        ("variant", stats["variant"]),
        ("transport", stats["transport"]),
        ("wall seconds served", f"{elapsed:.2f}"),
        ("puts issued", stats["puts"]),
        ("sustained puts/s", f"{stats['puts'] / elapsed:.1f}"),
        (
            "fully replicated",
            f"{stats['updates_fully_replicated']}/{stats['updates_tracked']}",
        ),
        # One completed session pair has exactly one initiator side.
        ("sessions completed", dict(stats["sessions"])["completed_initiator"]),
        ("messages", stats["traffic"]["messages_sent"]),
        ("bytes", stats["traffic"]["bytes_sent"]),
        ("handler errors", stats["handler_errors"]),
    ]
    if schedule is not None or refused:
        chaos = stats.get("chaos") or {}
        pairs.extend(
            [
                ("fault schedule", args.faults),
                (
                    "fault events fired",
                    f"{chaos.get('applied', 0)}/{chaos.get('total', 0)}"
                    + (f" ({chaos.get('skipped', 0)} skipped)" if chaos.get("skipped") else ""),
                ),
                ("puts refused (node down)", refused),
            ]
        )
    if p50 is not None:
        # Streaming sketch quantiles from the cluster's own registry —
        # the same numbers a `metrics?` client or the emitted snapshot
        # trail sees, no per-put latency list kept anywhere.
        pairs.extend(
            [
                ("p50 put->replicated", f"{1000 * p50:.1f} ms"),
                ("p99 put->replicated", f"{1000 * p99:.1f} ms"),
            ]
        )
    if emitter is not None:
        pairs.append(("telemetry snapshots emitted", emitter.emitted))
    return format_kv(f"live cluster — {args.nodes} nodes, {args.variant}", pairs)


def _chaos_connect(address, timeout, token):
    """Open one authenticated control channel to ``(host, port)``."""
    import socket

    from .errors import TransportError
    from .runtime.tcp import SyncFrameChannel

    try:
        sock = socket.create_connection(address, timeout=timeout)
    except OSError as exc:
        raise TransportError(
            f"cannot connect to {address[0]}:{address[1]}: {exc}"
        ) from exc
    channel = SyncFrameChannel(sock)
    if token is not None:
        channel.send(("auth", token))
    return channel


def cmd_chaos(args) -> str:
    """Drive a serving cluster's control socket: inject a fault schedule
    and/or kill its primary hub."""
    import time as _time

    from .errors import TransportError

    def ask(frame, answer, what, refusals=None):
        return _chaos_ask(channel, args.timeout, frame, answer, what, refusals)

    if args.faults is None and not args.kill_hub:
        raise ExperimentError("nothing to do: give --faults and/or --kill-hub")

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise ExperimentError(
            f"--connect wants HOST:PORT, got {args.connect!r}"
        )
    channel = _chaos_connect((host, int(port_text)), args.timeout, args.token)
    lines = []
    schedule = None
    try:
        standbys = []
        if args.kill_hub:
            # Learn the standby addresses up front: the connection we
            # are on dies with the hub we are about to kill.
            hubs = ask(("hubs?",), "hubs", "hub query")
            standbys = [tuple(address) for address in hubs[1:]]
        if args.faults is not None:
            # The schedule generators are pure functions of
            # (topology, seed), so fetching the cluster's topology lets
            # us build the exact schedule locally and ship it whole.
            topology = ask(("topology?",), "topology", "topology query")
            schedule = build_faults(args.faults, topology, seed=args.seed)
            info = ask(
                ("chaos", schedule),
                "chaos-ack",
                "injection",
                {"chaos-error": "cluster refused the schedule"},
            )
            lines.append(
                f"injected {args.faults!r} (seed {args.seed}): "
                f"{info['events']} events over {schedule.duration:.1f} "
                "protocol units"
            )
        if args.kill_hub:
            killed = ask(
                ("kill-hub",),
                "kill-hub-ack",
                "hub kill",
                dict.fromkeys(("error", "kill-hub-error"), "cluster refused the hub kill"),
            )
            lines.append(f"killed primary hub {killed[0]}:{killed[1]}")
            if args.wait or args.report:
                if not standbys:
                    raise TransportError(
                        "cannot keep polling: the killed hub had no standby"
                    )
                channel.close()
                channel = _chaos_connect(standbys[0], args.timeout, args.token)
                lines.append(
                    f"reconnected to standby hub {standbys[0][0]}:{standbys[0][1]}"
                )
        status = None
        if (args.wait or args.report) and schedule is not None:
            while True:
                status = ask(("status?",), "status", "status query")
                chaos = status.get("chaos") or {}
                if chaos.get("done"):
                    lines.append(
                        f"schedule complete: {chaos['applied']}/{chaos['total']}"
                        f" applied, {chaos['skipped']} skipped"
                    )
                    break
                _time.sleep(0.2)
        elif args.wait or args.report:
            status = ask(("status?",), "status", "status query")
        if args.report:
            # The schedule just finished: give the cluster a moment to
            # fully replicate a post-heal write so the report's
            # convergence time is measured, not null.
            grace = _time.monotonic() + min(5.0, args.timeout)
            while (
                status.get("post_heal_seconds") is None
                and _time.monotonic() < grace
            ):
                _time.sleep(0.2)
                status = ask(("status?",), "status", "status query")
            lines.append(_chaos_report(args, schedule, status))
        return "\n".join(lines)
    finally:
        channel.close()


def _chaos_ask(channel, timeout, frame, answer, what, refusals=None):
    """Send one control ``frame``; return the payload of its ``answer``.

    A reply of a kind ``refusals`` maps to a message prefix (``error``
    always maps, by default to "cluster refused") raises
    :class:`TransportError` with that prefix; any other kind but
    ``answer`` raises naming ``what`` was asked.
    """
    from .errors import TransportError

    refusals = {"error": "cluster refused", **(refusals or {})}
    channel.send(frame)
    kind, payload = channel.recv(timeout=timeout)
    if kind in refusals:
        raise TransportError(f"{refusals[kind]}: {payload}")
    if kind != answer:
        raise TransportError(f"unexpected reply {kind!r} to {what}")
    return payload


def _chaos_report(args, schedule, status) -> str:
    """Write the per-run convergence report JSON; returns a one-liner.

    The p50/p99 put-to-replicated seconds come from the cluster's own
    streaming latency sketch (shipped inside the ``status?`` telemetry
    snapshot), so the report covers every put the cluster ever served —
    not just the ones still inside its ``track_limit`` window.
    """
    import json as _json

    from .telemetry.registry import MetricRegistry

    chaos = status.get("chaos") or {}
    report = {
        "schedule": args.faults,
        "seed": args.seed,
        "hub_killed": bool(getattr(args, "kill_hub", False)),
        "events_total": chaos.get("total"),
        "events_applied": chaos.get("applied"),
        "events_skipped": chaos.get("skipped"),
        "schedule_duration_units": (
            schedule.duration if schedule is not None else None
        ),
        "post_heal_convergence_seconds": status.get("post_heal_seconds"),
        "puts": status.get("puts"),
        "updates_fully_replicated": status.get("updates_fully_replicated"),
        "p50_put_to_replicated_seconds": None,
        "p99_put_to_replicated_seconds": None,
        "latency_rank_error_fraction": None,
        "corrupt_frames_dropped": None,
        "duplicates_suppressed": None,
        "reorders_applied": None,
    }
    snapshot = status.get("telemetry")
    if snapshot is not None:
        registry = MetricRegistry.restore(snapshot)
        transport = str(status.get("transport", "queue"))
        sketch = registry.get(
            "cluster.replication_latency.sketch", transport=transport
        )
        if sketch is not None and sketch.count:
            report["p50_put_to_replicated_seconds"] = sketch.quantile(0.5)
            report["p99_put_to_replicated_seconds"] = sketch.quantile(0.99)
            report["latency_rank_error_fraction"] = sketch.error_fraction()
        for name in (
            "corrupt_frames_dropped",
            "duplicates_suppressed",
            "reorders_applied",
        ):
            counter = registry.get(
                f"cluster.packet.{name}", transport=transport
            )
            if counter is not None:
                report[name] = counter.value
    Path(args.report).write_text(
        _json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return f"convergence report written to {args.report}"


#: Commands that are not a paper artefact, so `repro all` skips them.
_NOT_ARTEFACTS = ("campaign", "sweep", "run", "serve", "chaos", "all")


def cmd_all(args) -> str:
    """Every paper artefact in `_COMMANDS`, each at reduced repetitions."""
    half, third = max(10, args.reps // 2), max(5, args.reps // 3)
    reps = {
        **dict.fromkeys(("scaling", "uniform", "islands", "staleness"), half),
        **dict.fromkeys(("overhead", "strongcost", "partition", "skew"), third),
    }
    parser = build_parser()
    chunks = []
    for name, command in _COMMANDS.items():
        if name in _NOT_ARTEFACTS:
            continue
        argv = [name]
        if name not in ("surface", "table1"):
            argv += ["--reps", str(reps.get(name, args.reps)), "--seed", str(args.seed),
                     "--workers", str(args.workers)]
        if name == "scaling":
            argv += ["--sizes", "25", "50", "100"]
        chunks.append(command(parser.parse_args(argv)))
    return ("\n\n" + "=" * 72 + "\n\n").join(chunks)


_COMMANDS = {
    "surface": cmd_surface,
    "table1": cmd_table1,
    "fig3": cmd_fig3,
    "fig5": cmd_fig_cdf,
    "fig6": cmd_fig_cdf,
    "table2": cmd_table2,
    "scaling": cmd_scaling,
    "campaign": cmd_campaign,
    "sweep": cmd_sweep,
    "uniform": cmd_uniform,
    "islands": cmd_islands,
    "overhead": cmd_overhead,
    "ablation": cmd_ablation,
    "staleness": cmd_staleness,
    "strongcost": cmd_strongcost,
    "partition": cmd_partition,
    "skew": cmd_skew,
    "run": cmd_run,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "all": cmd_all,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        print(command(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
