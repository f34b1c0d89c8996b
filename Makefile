# Convenience targets for the Chiron reproduction.

PYTHON ?= python3

.PHONY: install test faults bench train-resume-test parallel population resilience chaos-smoke resume-test obs-demo golden-verify golden-update diff-matrix fuzz repro repro-paper report clean zoo tournament tournament-test

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Just the fault-injection / failure-handling suite (also part of `test`).
faults:
	$(PYTHON) -m pytest -m faults tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Instrumented demo episode: prints the Prometheus snapshot + span profile.
obs-demo:
	$(PYTHON) -m repro.obs demo

# Recompute every golden scenario and compare digests against tests/golden/.
golden-verify:
	$(PYTHON) -m repro.testing verify

# Re-record the golden traces after an *intentional* numeric change.
# Review the diff before committing (see docs/testing.md).
golden-update:
	$(PYTHON) -m repro.testing update

# Differential N-way identity matrix: sequential vs obs-on vs audited vs
# vectorized M=1/M=4 must be bit-identical.
diff-matrix:
	$(PYTHON) -m repro.testing diff

# Seeded invariant fuzz: random environments + random autograd op chains.
fuzz:
	$(PYTHON) -m repro.testing fuzz

# Just the process-parallel engine suite (also part of `test`).
parallel:
	$(PYTHON) -m pytest -m parallel tests/

# Just the population-engine suite: SoA vs object backend identity,
# clusters, protocol surface (also part of `test`).
population:
	$(PYTHON) -m pytest -m population tests/

# Just the crash-safety suite (journal, resume, chaos; also part of `test`).
resilience:
	$(PYTHON) -m pytest -m resilience tests/

# Deterministic fault injection through a journaled 2-worker pool:
# crashes, hangs, poisoned payloads — exits non-zero if anything is
# silently dropped or the journal replay diverges.
chaos-smoke:
	$(PYTHON) -m repro.resilience chaos

# Parent-death drill: SIGKILL a live journaled sweep mid-grid, resume
# from the journal, require the golden fingerprint bit for bit.
resume-test:
	$(PYTHON) -m repro.resilience resume-test

# SIGKILL drill for training: kill a journaled 2-worker training run
# mid-flight, resume from the checkpoints, require the golden learning
# curve AND the golden checkpoint digest bit for bit.
train-resume-test:
	$(PYTHON) -m repro.resilience train-resume-test

# Just the mechanism-zoo suite (Stackelberg/FMore/BARA/Ding; part of `test`).
zoo:
	$(PYTHON) -m pytest -m zoo tests/

# Just the tournament-harness suite (also part of `test`).
tournament-test:
	$(PYTHON) -m pytest -m tournament tests/

# Cross-evaluate every registered mechanism over the full grid and write
# the ranked leaderboard under results/ (same run as `chiron-repro run
# tournament`).
tournament:
	$(PYTHON) -m repro.experiments run tournament --out results/

# Regenerate every paper figure/table at quick scale and rebuild the report.
repro:
	$(PYTHON) -m repro.experiments run all --out results/
	$(PYTHON) -m repro.experiments report results/

# The paper-sized workloads (hours).
repro-paper:
	$(PYTHON) -m repro.experiments run all --scale paper --out results-paper/

report:
	$(PYTHON) -m repro.experiments report results/

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
