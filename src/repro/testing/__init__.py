"""Correctness tooling: golden traces, invariants, diffing, fuzz.

The five sub-systems (see ``docs/testing.md`` for the workflow):

* :mod:`repro.testing.trace` — canonical episode traces with SHA-256
  digests and a first-divergence diff engine;
* :mod:`repro.testing.golden` — committed golden files plus the
  ``python -m repro.testing verify`` / ``update`` harness;
* :mod:`repro.testing.invariants` — the per-round paper-invariant
  auditor (zero-cost when disabled, like :mod:`repro.obs`);
* :mod:`repro.testing.differential` — one engine replaying identical
  seeds across {rerun, obs, audited, object population, worker process}
  execution paths;
* :mod:`repro.testing.fuzz` — seeded env/autograd fuzz corpora.
"""

from repro.testing.differential import (
    VARIANTS,
    DifferentialOutcome,
    matrix_report,
    run_matrix,
    run_variant,
)
from repro.testing.fuzz import (
    FuzzCase,
    FuzzReport,
    fuzz_autograd_case,
    fuzz_env_case,
    run_fuzz,
)
from repro.testing.golden import (
    DEFAULT_GOLDEN_DIR,
    VerifyReport,
    golden_path,
    load_golden,
    update_golden,
    verify_all,
    verify_golden,
    write_golden,
)
from repro.testing.invariants import (
    InvariantAuditor,
    InvariantViolation,
    auditing,
    check_ledger,
    check_simplex,
    disable,
    enable,
    enabled,
)
from repro.testing.scenarios import SCENARIOS, Scenario, capture, get_scenario
from repro.testing.trace import (
    Divergence,
    EpisodeTrace,
    capture_mechanism,
    capture_sequential,
    first_divergence,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "capture",
    "get_scenario",
    "Divergence",
    "EpisodeTrace",
    "capture_mechanism",
    "capture_sequential",
    "first_divergence",
    "DEFAULT_GOLDEN_DIR",
    "VerifyReport",
    "golden_path",
    "load_golden",
    "update_golden",
    "verify_all",
    "verify_golden",
    "write_golden",
    "InvariantAuditor",
    "InvariantViolation",
    "auditing",
    "check_ledger",
    "check_simplex",
    "disable",
    "enable",
    "enabled",
    "VARIANTS",
    "DifferentialOutcome",
    "matrix_report",
    "run_matrix",
    "run_variant",
    "FuzzCase",
    "FuzzReport",
    "fuzz_autograd_case",
    "fuzz_env_case",
    "run_fuzz",
]
