"""Command-line interface."""

import io

import pytest

from repro.cli import build_parser, main, parse_faults


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestParseFaults:
    def test_events_and_seed(self):
        sched = parse_faults("kill:3#5,drop:0>1:2,corrupt:2>3,seed:7")
        assert sched.seed == 7
        kinds = [type(e).__name__ for e in sched.events]
        assert kinds == ["KillRank", "DropTransfer", "CorruptTransfer"]

    def test_random_model_tokens(self):
        sched = parse_faults("drop_prob:0.02,delay_prob:0.05,"
                             "corrupt_prob:0.01,seed:3")
        assert sched.drop_prob == 0.02
        assert sched.delay_prob == 0.05
        assert sched.corrupt_prob == 0.01

    def test_hardening_tokens(self):
        sched = parse_faults("checksum:on,backoff:2,retries:5")
        assert sched.checksum is True
        assert sched.retry_backoff == 2.0
        assert sched.max_retries == 5
        assert parse_faults("checksum:off").checksum is False

    def test_bad_flag_rejected(self):
        with pytest.raises(ValueError, match="on/off"):
            parse_faults("checksum:maybe")

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            parse_faults("explode:9")

    def test_malformed_channel_rejected(self):
        with pytest.raises(ValueError, match="SRC>DST"):
            parse_faults("drop:01")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_all_commands(self):
        p = build_parser()
        assert p.parse_args(["figures", "2a"]).command == "figures"
        assert p.parse_args(["validate", "2a"]).ranks == 64
        assert p.parse_args(["tune", "--machine", "hopper"]).machine == "hopper"
        args = p.parse_args(["simulate", "-c", "4", "--periodic"])
        assert args.replication == 4 and args.periodic
        assert p.parse_args(["algorithms"]).command == "algorithms"
        args = p.parse_args(["compare", "--algorithms", "allpairs,spatial"])
        assert args.command == "compare"
        assert args.algorithms == "allpairs,spatial"

    def test_resilience_flags_on_every_fleet_command(self):
        p = build_parser()
        for command in ("compare", "soak", "schedfuzz", "sweep"):
            args = p.parse_args([command, "--retry", "2",
                                 "--task-timeout", "30", "--cache", "cdir"])
            assert args.retry == 2
            assert args.task_timeout == 30.0
            assert args.cache == "cdir"
        args = p.parse_args(["sweep", "--ranks", "4,16", "--cs", "1,2",
                             "--expect-cached", "--quarantine", "q.json"])
        assert args.ranks == "4,16" and args.expect_cached
        assert args.quarantine == "q.json"

    def test_retry_flag_becomes_a_policy(self):
        from repro.cli import _retry_policy
        from repro.core.parallel import RetryPolicy

        p = build_parser()
        assert _retry_policy(p.parse_args(["soak"])) is None
        policy = _retry_policy(p.parse_args(
            ["soak", "--retry", "3", "--retry-delay", "0.2"]))
        assert isinstance(policy, RetryPolicy)
        # --retry N means "N retries after the first attempt"
        assert policy.max_attempts == 4
        assert policy.base_delay == 0.2


    def test_executor_flags_read_through_one_helper(self):
        from repro.cli import _executor_args

        p = build_parser()
        for command in ("compare", "soak", "schedfuzz", "sweep", "serve"):
            assert _executor_args(p.parse_args([command])) == {
                "workers": 0, "retry": None, "task_timeout": None,
                "cache": None}
            got = _executor_args(p.parse_args(
                [command, "--workers", "3", "--retry", "1",
                 "--task-timeout", "9", "--cache", "cdir"]))
            assert got["workers"] == 3 and got["retry"].max_attempts == 2
            assert got["task_timeout"] == 9.0 and got["cache"] == "cdir"


class TestSoak:
    def test_failure_prints_the_replay_command(self, monkeypatch, capsys):
        from repro.experiments import soak

        def _failing_campaign(**kwargs):
            trial = soak.SoakTrial(
                index=7, seed=kwargs["seed"], algorithm="allpairs", p=8,
                c=2, n=40, dim=1, nsteps=3, rcut=None, workload="uniform",
                schedule="", outcome="failed", detail="forces mismatch")
            return soak.SoakReport(seed=kwargs["seed"], trials=[trial])

        monkeypatch.setattr(soak, "run_soak", _failing_campaign)
        code, out = run_cli("soak", "--trials", "12", "--seed", "5",
                            "--schedule", "adversarial")
        assert code == 1
        assert "trial   7 [failed" in out
        assert ("SOAK FAILED: rerun with --seed 5 --first-trial 7 "
                "--trials 1 --schedule adversarial") in capsys.readouterr().err


class TestFigures:
    def test_single_panel(self):
        code, out = run_cli("figures", "2a")
        assert code == 0
        assert "Figure 2a" in out
        assert "best total" in out

    def test_multiple_panels(self):
        code, out = run_cli("figures", "3a", "7c")
        assert code == 0
        assert "Figure 3a" in out and "Figure 7c" in out

    def test_unknown_panel(self):
        code, _ = run_cli("figures", "9z")
        assert code == 2


class TestValidate:
    def test_runs_event_simulation(self):
        code, out = run_cli("validate", "2a", "--ranks", "16",
                            "--particles", "512", "--cs", "1,2")
        assert code == 0
        assert "event simulation" in out
        assert "c=2" in out

    def test_unknown_figure(self):
        code, _ = run_cli("validate", "nope")
        assert code == 2


class TestTune:
    def test_allpairs(self):
        code, out = run_cli("tune", "--ranks", "16", "--particles", "512")
        assert code == 0
        assert "chosen replication factor" in out

    def test_cutoff(self):
        code, out = run_cli("tune", "--ranks", "16", "--particles", "512",
                            "--rcut", "0.25", "--dim", "1")
        assert code == 0
        assert "chosen replication factor" in out

    def test_hopper_machine(self):
        code, out = run_cli("tune", "--machine", "hopper", "--ranks", "48",
                            "--particles", "512")
        assert code == 0
        assert "hopper" in out


class TestAlgorithms:
    def test_lists_registry(self):
        code, out = run_cli("algorithms")
        assert code == 0
        for name in ("allpairs", "cutoff", "midpoint", "symmetric"):
            assert name in out
        assert "_virtual" not in out
        assert "kills" in out and "transient" in out


class TestCompare:
    def test_default_functional_set(self):
        code, out = run_cli("compare", "--ranks", "16", "--particles", "48",
                            "-c", "2", "--rcut", "0.3")
        assert code == 0
        # All eight force-computing algorithms ran (square p, rcut given).
        for name in ("allpairs", "cutoff", "midpoint", "spatial",
                     "symmetric", "particle_ring", "particle_allgather",
                     "force_decomposition"):
            assert name in out
        assert "skipped" not in out
        assert "phase breakdown" in out

    def test_subset_and_skips(self):
        code, out = run_cli("compare", "--ranks", "8", "--particles", "32",
                            "-c", "1",
                            "--algorithms", "allpairs,spatial,"
                                            "force_decomposition")
        assert code == 0
        # No rcut -> spatial skipped; p=8 not square -> force_decomposition
        # skipped; allpairs still runs.
        assert "allpairs" in out
        assert "skipped: needs a cutoff radius" in out
        assert "skipped: needs a square rank count" in out

    def test_with_transient_faults(self):
        code, out = run_cli("compare", "--ranks", "8", "--particles", "32",
                            "-c", "1", "--algorithms",
                            "allpairs,particle_ring",
                            "--faults", "drop:0>1,seed:7")
        assert code == 0
        assert "allpairs" in out and "particle_ring" in out


class TestSimulate:
    def test_allpairs_simulation(self):
        code, out = run_cli("simulate", "--ranks", "8", "-c", "2",
                            "--particles", "48", "--steps", "2")
        assert code == 0
        assert "energy drift" in out

    def test_cutoff_periodic_verlet(self):
        code, out = run_cli("simulate", "--ranks", "8", "-c", "1",
                            "--particles", "48", "--steps", "2",
                            "--rcut", "0.3", "--periodic",
                            "--integrator", "verlet")
        assert code == 0
        assert "simulated machine time" in out

    def test_checkpoint_and_resume_roundtrip(self, tmp_path):
        base = ("simulate", "--ranks", "8", "-c", "2", "--particles", "32",
                "--steps", "3")
        code, out = run_cli(*base, "--checkpoint-dir", str(tmp_path))
        assert code == 0
        assert "checkpoint after step 1" in out
        ckpt = sorted(tmp_path.glob("checkpoint-*.npz"))[0]
        code, out = run_cli(*base, "--resume-from", str(ckpt))
        assert code == 0
        assert f"resumed from {ckpt}" in out


class TestSoak:
    def test_smoke_campaign(self):
        code, out = run_cli("soak", "--trials", "1", "--seed", "0")
        assert code == 0
        assert "soak seed=0: 1 trials" in out

    def test_no_kills_flag(self):
        code, out = run_cli("soak", "--trials", "1", "--seed", "1",
                            "--no-kills")
        assert code == 0
        assert "deaths=0" in out
