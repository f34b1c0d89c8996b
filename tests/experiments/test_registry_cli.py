"""Registry integrity and the CLI plumbing."""

import json

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.mechanisms import (
    MECHANISM_NAMES,
    make_mechanism,
    paper_ppo_config,
    quick_ppo_config,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        # One entry per figure/table in the paper's evaluation section,
        # plus clearly labelled extensions.
        paper_ids = {"fig3", "fig4", "fig5", "fig6", "fig7a", "fig7b", "table1"}
        assert paper_ids <= set(EXPERIMENTS)
        for extra in set(EXPERIMENTS) - paper_ids:
            assert "[extension]" in EXPERIMENTS[extra].description

    def test_get_experiment(self):
        spec = get_experiment("fig3")
        assert spec.exp_id == "fig3"
        assert callable(spec.runner)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_descriptions_non_empty(self):
        for spec in EXPERIMENTS.values():
            assert spec.description

    def test_runner_rejects_unknown_scale(self):
        with pytest.raises(ValueError):
            get_experiment("fig3").runner("huge", 0)

    @pytest.mark.parametrize("exp_id", ["fig3", "fig7a", "fig7b"])
    def test_convergence_figures_ignore_workers(self, exp_id, monkeypatch):
        # A single training run has nothing to fan out: the payload must
        # not depend on --workers (shortened so the check stays fast).
        from repro.experiments import registry

        full = registry.run_convergence

        def short(**kwargs):
            return full(**{**kwargs, "episodes": 3})

        monkeypatch.setattr(registry, "run_convergence", short)
        runner = get_experiment(exp_id).runner
        one, _ = runner("quick", 0, workers=1)
        two, _ = runner("quick", 0, workers=2)
        assert len(one["rewards"]) == 3
        assert two == one


class TestMechanismFactory:
    def test_all_names_buildable(self, surrogate_env):
        for name in MECHANISM_NAMES:
            mech = make_mechanism(name, surrogate_env.env, rng=0)
            assert mech.name == name

    def test_unknown_name(self, surrogate_env):
        with pytest.raises(ValueError, match="unknown mechanism"):
            make_mechanism("oracle_v2", surrogate_env.env)

    def test_paper_tier_hyperparameters(self):
        cfg = paper_ppo_config()
        # §VI-A: lr 3e-5, decay 0.95 every 20 episodes, γ = 0.95.
        assert cfg.actor_lr == pytest.approx(3e-5)
        assert cfg.critic_lr == pytest.approx(3e-5)
        assert cfg.lr_decay == 0.95
        assert cfg.lr_decay_every == 20
        assert cfg.gamma == 0.95

    def test_quick_tier_batches(self):
        cfg = quick_ppo_config()
        assert cfg.min_update_batch and cfg.min_update_batch >= 32

    def test_unknown_tier(self, surrogate_env):
        with pytest.raises(ValueError, match="unknown tier"):
            make_mechanism("chiron", surrogate_env.env, tier="ludicrous")


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_parser_run_defaults(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.scale == "quick"
        assert args.seed == 0

    def test_run_writes_json(self, tmp_path, capsys, monkeypatch):
        # Patch in a featherweight experiment so the CLI test is instant.
        from repro.experiments import registry

        def tiny_runner(scale, seed, workers=1, journal=None):
            return {"scale": scale, "seed": seed}, "rendered-output"

        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "fig3",
            registry.ExperimentSpec("fig3", "tiny", tiny_runner),
        )
        code = main(["run", "fig3", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rendered-output" in out
        payload = json.loads((tmp_path / "fig3_quick_seed3.json").read_text())
        assert payload == {"scale": "quick", "seed": 3}

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_journal_flag_reaches_runner(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        seen = {}

        def tiny_runner(scale, seed, workers=1, journal=None):
            seen["journal"] = journal
            return {}, "ok"

        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "fig3",
            registry.ExperimentSpec("fig3", "tiny", tiny_runner),
        )
        journal = str(tmp_path / "sweep.jsonl")
        assert main(["run", "fig3", "--journal", journal]) == 0
        assert seen["journal"] == journal

    def test_journal_flag_suffixed_per_experiment_for_all(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import registry

        seen = {}

        def runner_for(exp_id):
            def runner(scale, seed, workers=1, journal=None):
                seen[exp_id] = journal
                return {}, "ok"

            return runner

        tiny = {
            exp_id: registry.ExperimentSpec(exp_id, "tiny", runner_for(exp_id))
            for exp_id in ("fig3", "table1")
        }
        monkeypatch.setattr(registry, "EXPERIMENTS", tiny)
        monkeypatch.setattr("repro.experiments.cli.EXPERIMENTS", tiny)
        journal = str(tmp_path / "sweep.jsonl")
        assert main(["run", "all", "--journal", journal]) == 0
        assert seen == {
            "fig3": f"{journal}.fig3",
            "table1": f"{journal}.table1",
        }
