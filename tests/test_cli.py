"""Tests for the command-line interface."""

from repro.cli import main


class TestCli:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "tab2" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_examples_runs(self, capsys):
        assert main(["examples"]) == 0
        assert "Example 1" in capsys.readouterr().out

    def test_fig4_with_overrides(self, capsys):
        code = main(
            [
                "fig4",
                "--populations", "5",
                "--days", "1",
                "--time-limit", "2.0",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Enki PAR" in out

    def test_tab2_with_seed(self, capsys):
        assert main(["tab2", "--seed", "5"]) == 0
        assert "Overall" in capsys.readouterr().out


class TestColumnarFlag:
    def test_fig6_columnar(self, capsys):
        code = main(
            [
                "fig6",
                "--populations", "8",
                "--days", "1",
                "--time-limit", "2.0",
                "--columnar",
            ]
        )
        assert code == 0
        assert "Enki (ms)" in capsys.readouterr().out

    def test_simulate_columnar(self, capsys):
        assert main(["simulate", "--n", "12", "--days", "2", "--columnar"]) == 0
        out = capsys.readouterr().out
        assert "defectors" in out

    def test_simulate_columnar_rejects_checkpoint(self, capsys, tmp_path):
        code = main(
            [
                "simulate", "--n", "5", "--days", "1", "--columnar",
                "--checkpoint", str(tmp_path / "ck.jsonl"),
            ]
        )
        assert code == 2
        assert "--columnar" in capsys.readouterr().err

    def test_simulate_columnar_rejects_audit(self, capsys, tmp_path):
        code = main(
            [
                "simulate", "--n", "5", "--days", "1", "--columnar",
                "--audit", str(tmp_path / "audit.jsonl"),
            ]
        )
        assert code == 2
        assert "--columnar" in capsys.readouterr().err


class TestProfileFlag:
    def test_profile_prints_stats_and_writes_pstats(self, capsys, tmp_path):
        save = tmp_path / "fig4.txt"
        code = main(
            [
                "fig4",
                "--profile",
                "--populations", "5",
                "--days", "1",
                "--time-limit", "2.0",
                "--save", str(save),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # the pstats header of the top-25 table
        dump = tmp_path / "fig4.pstats"
        assert dump.exists()
        # The dump must be loadable for later digging.
        import pstats

        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0

    def test_profile_dump_lands_in_cwd_without_save(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["list", "--profile"]) == 0
        assert (tmp_path / "list.pstats").exists()

    def test_profile_batched_run_captures_batch_kernels(
        self, capsys, tmp_path, monkeypatch
    ):
        """A columnar study's day task and placement kernel are in the dump."""
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "fig4",
                "--profile",
                "--populations", "10",
                "--days", "2",
                "--time-limit", "2.0",
                "--columnar",
            ]
        )
        assert code == 0
        import pstats

        stats = pstats.Stats(str(tmp_path / "fig4.pstats"))
        frames = {func for (_, _, func) in stats.stats}
        assert "_run_study_day" in frames
        assert "place_day" in frames


class TestBatchedFlags:
    def test_alloc_cache_requires_columnar_for_sweeps(self, capsys):
        code = main(
            ["fig5", "--populations", "5", "--days", "1", "--alloc-cache"]
        )
        assert code == 2
        assert "--columnar" in capsys.readouterr().err

    def test_simulate_batched_runs(self, capsys):
        code = main(
            ["simulate", "--n", "12", "--days", "3", "--columnar"]
        )
        assert code == 0
        assert "defectors" in capsys.readouterr().out

    def test_fig4_batched_with_memory_cache(self, capsys):
        code = main(
            [
                "fig4",
                "--populations", "8",
                "--days", "2",
                "--time-limit", "2.0",
                "--columnar",
                "--alloc-cache",
            ]
        )
        assert code == 0
        assert "Enki PAR" in capsys.readouterr().out

    def test_fig7_with_disk_cache(self, capsys, tmp_path):
        store = tmp_path / "cache"
        code = main(
            ["fig7", "--repeats", "1", "--seed", "4",
             "--alloc-cache", str(store)]
        )
        assert code == 0
        assert store.exists()
