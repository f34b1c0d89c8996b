"""Golden *training* trace: a pinned seeded training curve.

The episode golden traces (:mod:`repro.testing.golden`) pin what one
seeded episode computes; this module pins what a short *training run*
computes — the per-episode results and diagnostics emitted by
:func:`repro.experiments.runner.train_mechanism` on the paper's N=5
fleet (the ``population_n5`` scenario's build) with a quick-tier Chiron
mechanism — so the learning curve, its PPO update included, stays fixed
across commits.

``verify`` re-runs the recipe from scratch and compares:

1. the stored fingerprint against one recomputed from the stored rows
   (detects a corrupted or hand-edited golden file);
2. the fresh run's fingerprint against the stored one — bit-exact; on
   mismatch the first diverging episode/field is reported.

``update`` re-runs and rewrites the file.  Both are exposed through
``python -m repro.testing`` alongside the episode goldens.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from repro.experiments.results import TrainingHistory
from repro.testing.golden import VerifyReport, golden_path
from repro.testing.trace import Divergence

#: Stem of the committed golden training-trace file.
GOLDEN_TRAINING_NAME = "training_chiron_n5"

#: Payload schema tag (bump when the row format changes).
SCHEMA = "repro.testing.training/v1"

#: The pinned run recipe.  The build and seeds come from the
#: ``population_n5`` scenario so the fleet is the same one the episode
#: golden and the population-backend identity proof use; the run is long
#: enough to cross a PPO update (after episode 6 at the quick tier's
#: ``min_update_batch``) and train one episode past it.
RECIPE = {
    "scenario": "population_n5",
    "mechanism": "chiron",
    "tier": "quick",
    "episodes": 8,
}


def training_rows(history: TrainingHistory) -> List[dict]:
    """The canonical per-episode rows a training fingerprint digests.

    One dict per episode: the :class:`EpisodeResult` fields plus the
    float-coerced diagnostics — everything observable about the learning
    curve, in episode order.
    """
    rows = []
    for index, (result, diag) in enumerate(
        zip(history.episodes, history.diagnostics)
    ):
        rows.append(
            {
                "episode": index,
                "result": asdict(result),
                "diagnostics": {k: float(v) for k, v in diag.items()},
            }
        )
    return rows


def rows_fingerprint(rows: List[dict]) -> str:
    """sha256 over the canonical JSON form of :func:`training_rows`."""
    canonical = json.dumps(rows, sort_keys=True, default=float)
    return hashlib.sha256(canonical.encode()).hexdigest()


def capture_training() -> List[dict]:
    """Run the pinned recipe and return its canonical training rows."""
    from repro.experiments.mechanisms import make_mechanism
    from repro.experiments.runner import train_mechanism
    from repro.testing.scenarios import get_scenario

    scenario = get_scenario(RECIPE["scenario"])
    env = scenario.build_env()
    mechanism = make_mechanism(
        RECIPE["mechanism"],
        env,
        rng=scenario.mechanism_seed,
        tier=RECIPE["tier"],
    )
    return training_rows(train_mechanism(env, mechanism, RECIPE["episodes"]))


def training_payload(rows: List[dict]) -> dict:
    """The JSON payload committed as the golden training trace."""
    return {
        "schema": SCHEMA,
        "name": GOLDEN_TRAINING_NAME,
        "recipe": dict(RECIPE),
        "rows": rows,
        "fingerprint": rows_fingerprint(rows),
    }


def training_golden_path(directory: Optional[Path] = None) -> Path:
    return golden_path(GOLDEN_TRAINING_NAME, directory)


def update_training_golden(directory: Optional[Path] = None) -> Path:
    """Re-run the recipe and rewrite the committed golden file."""
    path = training_golden_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = training_payload(capture_training())
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _training_divergence(
    expected: List[dict], actual: List[dict]
) -> Optional[Divergence]:
    """First episode/field where two training-row lists disagree.

    Rows are the JSON-canonical output of :func:`training_rows`;
    comparison is exact (bitwise float equality).
    """
    if len(expected) != len(actual):
        return Divergence(
            replica=0,
            round_index=None,
            field="num_episodes",
            expected=len(expected),
            actual=len(actual),
        )
    for episode, (exp, act) in enumerate(zip(expected, actual)):
        for section in ("result", "diagnostics"):
            exp_s, act_s = exp[section], act[section]
            for key in sorted(set(exp_s) | set(act_s)):
                marker = object()
                e = exp_s.get(key, marker)
                a = act_s.get(key, marker)
                if e is marker or a is marker or e != a:
                    return Divergence(
                        replica=0,
                        round_index=episode,
                        field=f"{section}.{key}",
                        expected=None if e is marker else e,
                        actual=None if a is marker else a,
                    )
    return None


def verify_training_golden(directory: Optional[Path] = None) -> VerifyReport:
    """Re-run the pinned recipe and compare against the committed file."""
    name = GOLDEN_TRAINING_NAME
    path = training_golden_path(directory)
    if not path.exists():
        return VerifyReport(
            name=name,
            ok=False,
            message=(
                f"no golden training trace {path}; generate it with "
                f"`python -m repro.testing update {name}`"
            ),
        )
    with path.open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA:
        return VerifyReport(
            name=name,
            ok=False,
            message=(
                f"schema {payload.get('schema')!r} != {SCHEMA!r} — "
                f"regenerate the golden file"
            ),
        )
    if payload.get("recipe") != RECIPE:
        return VerifyReport(
            name=name,
            ok=False,
            message=(
                f"stored recipe {payload.get('recipe')!r} does not match "
                f"the pinned recipe {RECIPE!r} — regenerate the golden file"
            ),
        )
    stored = payload.get("fingerprint")
    recomputed = rows_fingerprint(payload.get("rows", []))
    if stored != recomputed:
        return VerifyReport(
            name=name,
            ok=False,
            message=(
                f"golden file fingerprint {stored!r} does not match its "
                f"own rows ({recomputed!r}) — corrupted or hand-edited file"
            ),
        )
    fresh = capture_training()
    if rows_fingerprint(fresh) == stored:
        return VerifyReport(
            name=name,
            ok=True,
            message=(
                f"fingerprint {stored} reproduced over "
                f"{len(fresh)} episodes"
            ),
        )
    return VerifyReport(
        name=name,
        ok=False,
        message="fresh training run diverges from the committed golden trace",
        divergence=_training_divergence(payload["rows"], fresh),
    )
