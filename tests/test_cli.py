"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_fig5_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.reps == 120
        assert args.nodes == 50


class TestCommands:
    def test_surface(self, capsys):
        out = run_cli(capsys, "surface")
        assert "valleys = high demand" in out
        assert "@" in out  # the densest glyph marks the deepest valley

    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        assert "B-C,B-A,B-E,B-D" in out
        assert "B-D,B-E,B-A,B-C" in out

    def test_fig3(self, capsys):
        out = run_cli(capsys, "fig3", "--reps", "5")
        assert "worst case" in out
        assert "optimal case" in out

    def test_fig5_small(self, capsys):
        out = run_cli(capsys, "fig5", "--reps", "3")
        assert "weak (all replicas)" in out
        assert "6.1499" in out  # paper reference column (n=50)

    def test_fig5_plot_flag(self, capsys):
        out = run_cli(capsys, "fig5", "--reps", "4", "--nodes", "20", "--plot")
        assert "legend:" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2", "--reps", "4")
        assert "static" in out
        assert "C'" in out

    def test_scaling(self, capsys):
        out = run_cli(capsys, "scaling", "--reps", "2", "--sizes", "15", "20")
        assert "diameter" in out

    def test_uniform(self, capsys):
        out = run_cli(capsys, "uniform", "--reps", "2")
        assert "line-24" in out

    def test_islands(self, capsys):
        out = run_cli(capsys, "islands", "--reps", "2")
        assert "fast+bridges" in out

    def test_overhead(self, capsys):
        out = run_cli(capsys, "overhead", "--reps", "2")
        assert "fast share" in out

    def test_ablation(self, capsys):
        out = run_cli(capsys, "ablation", "--reps", "3")
        assert "ordered-only" in out
        assert "push-only" in out

    def test_staleness(self, capsys):
        out = run_cli(capsys, "staleness", "--reps", "2")
        assert "oracle" in out
        assert "advert bytes" in out

    def test_strongcost(self, capsys):
        out = run_cli(capsys, "strongcost", "--reps", "2")
        assert "strong" in out

    def test_partition(self, capsys):
        out = run_cli(capsys, "partition", "--reps", "2")
        assert "writer side" in out
        assert "commit rate" in out

    def test_skew(self, capsys):
        out = run_cli(capsys, "skew", "--reps", "2")
        assert "flat" in out
        assert "push deliveries" in out

    def test_all_runs_every_paper_artefact(self, capsys, monkeypatch):
        from repro import cli

        not_artefacts = {"campaign", "sweep", "run", "serve", "chaos", "all"}
        artefacts = [name for name in cli._COMMANDS if name not in not_artefacts]
        for name in artefacts:
            monkeypatch.setitem(
                cli._COMMANDS, name, lambda args, name=name: f"<{name}>"
            )
        out = run_cli(capsys, "all", "--reps", "2")
        for name in artefacts:
            assert f"<{name}>" in out, name

    @pytest.mark.parametrize("command", [
        "fig3", "table2", "uniform", "islands", "overhead", "ablation",
        "staleness", "strongcost", "partition", "skew",
    ])
    def test_artefact_commands_take_workers(self, command):
        assert build_parser().parse_args([command, "--workers", "3"]).workers == 3

    def test_all_hands_workers_to_every_artefact(self, capsys, monkeypatch):
        from repro import cli

        repeated = [
            name for name in cli._COMMANDS
            if name not in cli._NOT_ARTEFACTS + ("surface", "table1")
        ]
        for name in repeated:
            monkeypatch.setitem(
                cli._COMMANDS, name,
                lambda args, name=name: f"<{name}:{args.workers}>",
            )
        out = run_cli(capsys, "all", "--reps", "2", "--workers", "3")
        for name in repeated:
            assert f"<{name}:3>" in out, name

    def test_artefact_parallel_output_matches_serial(self, capsys):
        argv = ["partition", "--reps", "2", "--seed", "4"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--workers", "2")

    def test_run_adhoc(self, capsys):
        out = run_cli(
            capsys, "run", "--topology", "ring", "-n", "8", "--variant", "fast"
        )
        assert "sessions to all replicas" in out
        assert "messages" in out

    def test_sweep(self, capsys):
        out = run_cli(
            capsys,
            "sweep", "--topology", "ring", "--variants", "weak", "fast",
            "-n", "8", "--reps", "2",
        )
        assert "backend=serial" in out
        assert "weak" in out and "fast" in out

    def test_sweep_parallel_matches_serial(self, capsys, tmp_path):
        import json

        argv = [
            "sweep", "--topology", "ring", "--variants", "weak", "fast",
            "-n", "8", "--reps", "2", "--seed", "3",
        ]
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        run_cli(capsys, *argv, "--json", str(serial_path))
        out = run_cli(
            capsys, *argv, "--workers", "2", "--json", str(parallel_path)
        )
        assert "backend=process[2]" in out
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert serial["series"] == parallel["series"]

    def test_fig5_workers_flag_parses(self):
        args = build_parser().parse_args(["fig5", "--workers", "4"])
        assert args.workers == 4

    def test_unwritable_json_path_is_clean_error(self, capsys):
        code = main(
            ["sweep", "--topology", "ring", "--variants", "weak",
             "-n", "8", "--reps", "1", "--json", "/nonexistent-dir/out.json"]
        )
        assert code == 2
        assert "cannot write results" in capsys.readouterr().err

    def test_sweep_with_faults(self, capsys):
        out = run_cli(
            capsys,
            "sweep", "--topology", "line", "--variants", "weak", "fast",
            "--faults", "none", "split_brain", "-n", "10", "--reps", "2",
        )
        assert "weak@split_brain" in out
        assert "fast@split_brain" in out
        assert "post-heal" in out

    def test_sweep_faults_flags_censored_series(self, capsys):
        # A horizon this short converges nothing: every series must be
        # flagged instead of reporting silently optimistic means.
        out = run_cli(
            capsys,
            "sweep", "--topology", "line", "--variants", "weak",
            "--faults", "none", "split_brain", "-n", "10", "--reps", "2",
            "--max-time", "2.0",
        )
        assert "conv" in out
        assert "0% !" in out
        assert "never converged" in out

    def test_campaign_run_smoke(self, capsys):
        out = run_cli(capsys, "campaign", "run", "smoke", "--reps", "1")
        assert "campaign 'smoke'" in out
        assert "weak@split_brain" in out
        assert "backend=serial" in out

    def test_campaign_reps_defaults_to_each_campaigns_fidelity(self):
        from repro.experiments.figures import build_campaign

        # No --reps on the command line leaves the choice to the
        # campaign: `figures` must match `repro fig5`'s 120, not a
        # CLI-wide 40.
        args = build_parser().parse_args(["campaign", "run", "figures"])
        assert args.reps is None
        campaign = build_campaign("figures", reps=args.reps, seed=1)
        assert campaign.plans["fig5"].reps == 120
        assert build_campaign("figures", reps=7).plans["fig5"].reps == 7

    def test_campaign_interrupt_resume_status_roundtrip(self, capsys, tmp_path):
        import json

        checkpoint = tmp_path / "cp.jsonl"
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        base = [
            "campaign", "run", "smoke", "--reps", "1", "--seed", "3",
            "--workers", "2",
        ]
        run_cli(capsys, *base, "--json", str(full))
        out = run_cli(
            capsys, *base, "--checkpoint", str(checkpoint), "--limit", "3"
        )
        assert "paused: 3/6" in out
        assert "repro campaign resume smoke" in out
        status = run_cli(capsys, "campaign", "status", "--checkpoint", str(checkpoint))
        assert "3/6 trials checkpointed" in status
        out = run_cli(
            capsys,
            "campaign", "resume", "smoke", "--reps", "1", "--seed", "3",
            "--workers", "2", "--checkpoint", str(checkpoint),
            "--json", str(resumed),
        )
        assert "3 trials loaded, 3 executed" in out
        assert json.loads(full.read_text()) == json.loads(resumed.read_text())

    def test_campaign_run_with_checkpoint_is_resumable_without_limit(
        self, capsys, tmp_path
    ):
        checkpoint = tmp_path / "cp.jsonl"
        base = [
            "campaign", "run", "smoke", "--reps", "1", "--seed", "3",
            "--checkpoint", str(checkpoint),
        ]
        run_cli(capsys, *base)
        out = run_cli(capsys, *base)  # re-running skips everything
        assert "6 trials loaded, 0 executed" in out

    def test_sweep_faulted_parallel_matches_serial(self, capsys, tmp_path):
        import json

        argv = [
            "sweep", "--topology", "line", "--variants", "weak", "fast",
            "--faults", "none", "split_brain", "poisson_churn",
            "-n", "8", "--reps", "2", "--seed", "3",
        ]
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        run_cli(capsys, *argv, "--json", str(serial_path))
        run_cli(capsys, *argv, "--workers", "2", "--json", str(parallel_path))
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert serial["series"] == parallel["series"]
        assert serial["params"]["faults"] == ["none", "split_brain", "poisson_churn"]
        assert set(serial["series"]) == {"weak", "fast"} | {
            f"{variant}@{faults}"
            for variant in ("weak", "fast")
            for faults in ("split_brain", "poisson_churn")
        }


def assert_one_line_error(capsys, argv, needle) -> None:
    """The CLI contract for bad input: exit 2, one stderr line, no traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert needle in err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


class TestFailurePaths:
    def test_unknown_topology_key(self, capsys):
        assert_one_line_error(
            capsys,
            ["sweep", "--topology", "moebius", "-n", "8", "--reps", "1"],
            "unknown topology 'moebius'",
        )

    def test_unknown_demand_key(self, capsys):
        assert_one_line_error(
            capsys,
            ["sweep", "--demand", "psychic", "-n", "8", "--reps", "1"],
            "unknown demand 'psychic'",
        )

    def test_unknown_variant_key(self, capsys):
        assert_one_line_error(
            capsys,
            ["sweep", "--variants", "quantum", "-n", "8", "--reps", "1"],
            "unknown variant 'quantum'",
        )

    def test_malformed_faults_spec(self, capsys):
        assert_one_line_error(
            capsys,
            ["sweep", "--topology", "ring", "-n", "8", "--reps", "1",
             "--faults", "gremlins"],
            "unknown fault regime 'gremlins'",
        )

    def test_duplicate_faults_spec(self, capsys):
        assert_one_line_error(
            capsys,
            ["sweep", "--topology", "ring", "-n", "8", "--reps", "1",
             "--faults", "split_brain", "split_brain"],
            "duplicate fault regimes",
        )

    def test_workers_zero_rejected(self, capsys):
        assert_one_line_error(
            capsys,
            ["sweep", "--topology", "ring", "--variants", "weak",
             "-n", "8", "--reps", "1", "--workers", "0"],
            "--workers must be >= 1",
        )

    def test_workers_negative_rejected(self, capsys):
        assert_one_line_error(
            capsys,
            ["sweep", "--topology", "ring", "--variants", "weak",
             "-n", "8", "--reps", "1", "--workers", "-2"],
            "--workers must be >= 1",
        )

    def test_unknown_campaign_name(self, capsys):
        assert_one_line_error(
            capsys,
            ["campaign", "run", "conquest", "--reps", "1"],
            "unknown campaign 'conquest'",
        )

    def test_campaign_resume_requires_checkpoint(self, capsys):
        assert_one_line_error(
            capsys,
            ["campaign", "resume", "smoke", "--reps", "1"],
            "requires --checkpoint",
        )

    def test_campaign_resume_missing_checkpoint_file(self, capsys, tmp_path):
        assert_one_line_error(
            capsys,
            ["campaign", "resume", "smoke", "--reps", "1",
             "--checkpoint", str(tmp_path / "never.jsonl")],
            "no checkpoint at",
        )

    def test_campaign_limit_requires_checkpoint(self, capsys):
        assert_one_line_error(
            capsys,
            ["campaign", "run", "smoke", "--reps", "1", "--limit", "2"],
            "--limit without --checkpoint",
        )

    def test_campaign_status_missing_file(self, capsys, tmp_path):
        assert_one_line_error(
            capsys,
            ["campaign", "status", "--checkpoint", str(tmp_path / "never.jsonl")],
            "no checkpoint at",
        )
