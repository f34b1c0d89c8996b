"""`python -m repro.testing` exit codes and output."""

from repro.testing.__main__ import main


class TestList:
    def test_lists_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "faulted", "population_n5"):
            assert name in out


class TestVerify:
    def test_committed_goldens_pass(self, capsys):
        assert main(["verify"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_missing_goldens_fail(self, tmp_path, capsys):
        assert main(["verify", "--dir", str(tmp_path)]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_single_scenario_selection(self, capsys):
        assert main(["verify", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "faulted" not in out

    def test_unknown_scenario_fails(self, capsys):
        assert main(["verify", "no-such-scenario"]) == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestUpdate:
    def test_update_writes_then_verify_passes(self, tmp_path, capsys):
        assert main(["update", "baseline", "--dir", str(tmp_path)]) == 0
        assert (tmp_path / "baseline.json").exists()
        assert main(["verify", "baseline", "--dir", str(tmp_path)]) == 0


class TestDiff:
    def test_single_cell_passes(self, capsys):
        assert main(["diff", "baseline", "--variants", "rerun"]) == 0
        assert "bit-identical" in capsys.readouterr().out


class TestFuzz:
    def test_small_budget_passes(self, capsys):
        code = main(
            ["fuzz", "--env-cases", "1", "--autograd-cases", "2", "--rounds", "10"]
        )
        assert code == 0
