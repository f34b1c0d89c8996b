"""Invariant auditor: catches seeded violations, costs nothing when off."""

import tracemalloc

import numpy as np
import pytest

import repro.testing.invariants as invariants_mod
from repro.testing import (
    InvariantAuditor,
    InvariantViolation,
    auditing,
    check_ledger,
    check_simplex,
)
from repro.testing.scenarios import get_scenario, price_schedule


def _audited_env():
    env = get_scenario("baseline").build_env()
    auditor = InvariantAuditor(env)
    prices = price_schedule(env, 3, seed=11)
    return env, auditor, prices


class TestCleanEpisodePasses:
    def test_full_episode_audits_without_violation(self):
        env, auditor, _ = _audited_env()
        prices = price_schedule(env, 40, seed=5)
        with auditing():
            auditor.reset(seed=3)
            for row in prices:
                _, _, terminated, truncated, _ = auditor.step(row)
                if terminated or truncated:
                    break
        assert auditor.rounds_audited > 0

    def test_wrapper_is_transparent(self):
        env, auditor, _ = _audited_env()
        assert auditor.env is env
        assert auditor.n_nodes == env.n_nodes  # __getattr__ passthrough
        assert auditor.ledger is env.ledger


class TestSeededViolationsCaught:
    def test_simplex_violation(self):
        with pytest.raises(InvariantViolation, match="S1"):
            check_simplex(np.array([0.6, 0.5]))
        check_simplex(np.array([0.5, 0.5]))  # clean simplex passes

    def test_ledger_overspend_violation(self):
        env, _, _ = _audited_env()
        env.reset(seed=0)
        env.ledger._spent = env.ledger.total * 2.0  # seeded tampering
        with pytest.raises(InvariantViolation, match="B"):
            check_ledger(env)

    def test_tampered_step_result_negative_time(self):
        env, auditor, prices = _audited_env()
        real_step = env.step

        def tampered(row):
            out = real_step(row)
            out[4]["step_result"].times[0] = -1.0
            return out

        env.step = tampered
        with auditing():
            auditor.reset(seed=3)
            with pytest.raises(InvariantViolation):
                auditor.step(prices[0])

    def test_tampered_observation_breaks_protocol(self):
        env, auditor, prices = _audited_env()
        real_step = env.step

        def tampered(row):
            obs, reward, term, trunc, info = real_step(row)
            return obs + 1.0, reward, term, trunc, info

        env.step = tampered
        with auditing():
            auditor.reset(seed=3)
            with pytest.raises(InvariantViolation, match="P1"):
                auditor.step(prices[0])

    def test_violation_names_round_and_invariant(self):
        env, auditor, prices = _audited_env()
        real_step = env.step

        def tampered(row):
            out = real_step(row)
            out[4]["step_result"].times[0] = -1.0
            return out

        env.step = tampered
        with auditing():
            auditor.reset(seed=3)
            with pytest.raises(InvariantViolation) as excinfo:
                auditor.step(prices[0])
        assert "round" in str(excinfo.value)


class TestDisabledModeIsFree:
    def test_disabled_by_default(self):
        assert not invariants_mod.enabled()

    def test_disabled_step_skips_all_checks(self):
        env, auditor, prices = _audited_env()
        real_step = env.step

        def tampered(row):
            out = real_step(row)
            out[4]["step_result"].times[0] = -1.0  # would trip N1
            return out

        env.step = tampered
        auditor.reset(seed=3)
        auditor.step(prices[0])  # no raise: auditing is off
        assert auditor.rounds_audited == 0

    def test_disabled_step_allocates_nothing_in_auditor(self):
        # Mirrors tests/obs/test_obs_overhead.py: with auditing off the
        # wrapper's step must add zero allocations attributable to the
        # invariants module.
        assert not invariants_mod.enabled()
        env, auditor, prices = _audited_env()
        auditor.reset(seed=3)
        auditor.step(prices[0])  # warm-up: lazy caches, interning

        tracemalloc.start()
        snap_before = tracemalloc.take_snapshot()
        auditor.step(prices[1])
        snap_after = tracemalloc.take_snapshot()
        tracemalloc.stop()

        auditor_bytes = sum(
            stat.size_diff
            for stat in snap_after.compare_to(snap_before, "filename")
            if stat.traceback[0].filename == invariants_mod.__file__
        )
        assert auditor_bytes <= 0, (
            f"disabled auditor allocated {auditor_bytes} bytes in one step"
        )


class TestAuditingContext:
    def test_context_restores_prior_state(self):
        assert not invariants_mod.enabled()
        with auditing():
            assert invariants_mod.enabled()
        assert not invariants_mod.enabled()

    def test_context_restores_after_violation(self):
        with pytest.raises(InvariantViolation):
            with auditing():
                check_simplex(np.array([0.9, 0.9]))
        assert not invariants_mod.enabled()
