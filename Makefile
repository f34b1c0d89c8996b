# Convenience targets for the Chiron reproduction.

PYTHON ?= python3

.PHONY: install test faults bench bench-smoke perfbench-smoke bench-rollout rollout-smoke bench-sweep bench-train bench-population population-smoke sweep-smoke train-smoke train-resume-test parallel population resilience chaos-smoke resume-test obs-demo golden-verify golden-update diff-matrix fuzz repro repro-paper report clean zoo tournament tournament-test tournament-smoke bench-tournament

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Just the fault-injection / failure-handling suite (also part of `test`).
faults:
	$(PYTHON) -m pytest -m faults tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick end-to-end check of the rollout benchmark harness (tiny workload).
bench-smoke:
	$(PYTHON) -m pytest -m bench tests/

# Seconds-scale self-check of the repository benchmark (perfbench/): every
# workload at smoke size with its output checked against perfbench/pins.json,
# then the benchmark's own tests.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --smoke
	$(PYTHON) -m pytest perfbench

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

# Regenerate the committed vectorized-rollout throughput report.
bench-rollout:
	$(PYTHON) -m repro.bench rollout --num-envs 1,4,8 \
		--episodes-per-env 6 --warmup-episodes 2 --out BENCH_rollout.json

# Seconds-scale inference hot-path gate: replay one seeded rollout through
# the fused fast path, a rerun, the per-replica population response, and
# the generic autograd forward; exits non-zero unless all four fingerprint
# identically.
rollout-smoke:
	$(PYTHON) -m repro.bench rollout --smoke --num-envs 1,4 \
		--out /tmp/bench_rollout_smoke.json

# Regenerate the committed process-parallel sweep report (wall-clock at
# each worker count + determinism fingerprints; exits non-zero on a
# fingerprint mismatch).
bench-sweep:
	$(PYTHON) -m repro.bench sweep --workers 1,2,4 --out BENCH_sweep.json

# Regenerate the committed parallel-training report (episodes/sec at
# each worker count + learning-curve fingerprints; exits non-zero on a
# fingerprint mismatch).
bench-train:
	$(PYTHON) -m repro.bench train --workers 1,2,4 --out BENCH_train.json

# Just the process-parallel engine suite (also part of `test`).
parallel:
	$(PYTHON) -m pytest -m parallel tests/

# Just the population-engine suite: SoA vs object backend identity,
# clusters, protocol surface (also part of `test`).
population:
	$(PYTHON) -m pytest -m population tests/

# Regenerate the committed object-vs-SoA population throughput report
# (N=5 up to 50k nodes; reruns the backend identity proof at every
# measured size).
bench-population:
	$(PYTHON) -m repro.bench population --out BENCH_population.json

# Seconds-scale population benchmark gate: exits non-zero if the backend
# identity or the SoA speedup floor fails (the CI hook).
population-smoke:
	$(PYTHON) -m repro.bench population --smoke \
		--out /tmp/bench_population_smoke.json

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

# Quick end-to-end proof that a 2-worker pooled sweep matches in-process
# execution bit for bit (tiny workload; exits non-zero on mismatch).
sweep-smoke:
	$(PYTHON) -m repro.bench sweep --workers 1,2 --mechanisms greedy,random \
		--train-episodes 2 --eval-episodes 1 --max-rounds 20 \
		--out /tmp/sweep_smoke.json

# Quick end-to-end proof that 2-worker parallel training matches the
# in-process learning curve bit for bit, plus the spawn-heavy training
# tests (exits non-zero on any fingerprint mismatch).
train-smoke:
	$(PYTHON) -m repro.bench train --smoke --out /tmp/train_smoke.json
	$(PYTHON) -m pytest -m train tests/

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

# Tiny 2-mechanism tournament with the worker-count fingerprint gate:
# exits non-zero on a determinism break (the CI hook).
tournament-smoke:
	$(PYTHON) -m repro.bench tournament --smoke \
		--out /tmp/bench_tournament_smoke.json \
		--leaderboard-dir /tmp/tournament_smoke_leaderboard

# Regenerate the committed tournament report + leaderboard artifacts
# (BENCH_tournament.json, results/tournament_leaderboard.{json,md}).
bench-tournament:
	$(PYTHON) -m repro.bench tournament --out BENCH_tournament.json

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
