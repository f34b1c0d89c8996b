"""Federated pipeline: node, server, session, metrics."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from repro.datasets import make_task, partition_dataset
from repro.economics import sample_profiles
from repro.fl import EdgeNode, FederatedSession, LocalTrainingConfig, ParameterServer, evaluate
from repro.nn import MLP, McMahanCNN


def tiny_setup(n_nodes=3, train=60, test=40, local_epochs=1):
    task = make_task("mnist", rng=0)
    train_ds, test_ds = task.train_test_split(train, test, rng=1)
    parts = partition_dataset(train_ds, n_nodes, scheme="iid", rng=2)
    profiles = sample_profiles(n_nodes, rng=3)
    server = ParameterServer(lambda: McMahanCNN(rng=4), test_ds)
    cfg = LocalTrainingConfig(local_epochs=local_epochs, batch_size=10)
    nodes = [
        EdgeNode(i, parts[i], profiles[i], cfg, rng=10 + i) for i in range(n_nodes)
    ]
    return server, nodes


class TestEvaluate:
    def test_perfect_model(self):
        """A model reading the label planted in the input scores 100%."""
        from repro.autograd import Tensor
        from repro.datasets import ArrayDataset
        from repro.nn.module import Module

        class Oracle(Module):
            def forward(self, x):
                flat = Tensor(np.asarray(x)).flatten(start_dim=1)
                return flat[:, :10] * 100.0

        rng = np.random.default_rng(0)
        y = rng.integers(0, 10, size=20)
        x = np.zeros((20, 1, 28, 28))
        x[np.arange(20), 0, 0, y] = 1.0
        ds = ArrayDataset(x, y)
        result = evaluate(Oracle(), ds)
        assert result.accuracy == 1.0
        assert result.n_samples == 20

    def test_empty_dataset(self):
        from repro.datasets import ArrayDataset

        ds = ArrayDataset(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate(McMahanCNN(rng=0), ds)

    def test_restores_training_mode(self):
        server, _ = tiny_setup()
        server.model.train()
        server.evaluate()
        assert server.model.training

    def test_restores_training_mode_when_a_batch_raises(self):
        from repro.datasets import ArrayDataset

        class FailsOnSecondBatch(McMahanCNN):
            calls = 0

            def forward(self, x):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("second batch")
                return super().forward(x)

        model = FailsOnSecondBatch(rng=0)
        ds = ArrayDataset(np.zeros((3, 1, 28, 28)), np.zeros(3, dtype=int))
        with pytest.raises(RuntimeError, match="second batch"):
            evaluate(model, ds, batch_size=2)
        assert model.training
        assert model.dropout.training

    @staticmethod
    def _mnist_shaped(n):
        from repro.datasets import ArrayDataset

        rng = np.random.default_rng(n)
        return ArrayDataset(rng.random((n, 1, 28, 28)), rng.integers(0, 10, size=n))

    def test_peak_memory_is_below_one_batch_conv1_activation(self):
        model, dataset = McMahanCNN(rng=0), self._mnist_shaped(256)
        tracemalloc.start()
        try:
            evaluate(model, dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # conv1's float64 output for the whole 256-image batch.
        assert peak < 256 * 10 * 24 * 24 * 8

    @pytest.mark.parametrize("n", [256, 400])
    def test_accuracy_and_loss_match_graph_path_logits(self, n, monkeypatch):
        from repro.fl import metrics

        model, dataset = McMahanCNN(rng=1), self._mnist_shaped(n)
        result = evaluate(model, dataset)
        # Recording a graph makes every layer run on the whole batch.
        monkeypatch.setattr(metrics, "no_grad", contextlib.nullcontext)
        graph = evaluate(model, dataset)
        assert result.accuracy.hex() == graph.accuracy.hex()
        assert result.loss.hex() == graph.loss.hex()


class TestEdgeNode:
    def test_id_mismatch(self):
        server, nodes = tiny_setup()
        with pytest.raises(ValueError):
            EdgeNode(5, nodes[0].dataset, nodes[0].profile)

    def test_empty_dataset_rejected(self):
        from repro.datasets import ArrayDataset

        _, nodes = tiny_setup()
        empty = ArrayDataset(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            EdgeNode(0, empty, nodes[0].profile)

    def test_local_update_changes_parameters(self):
        server, nodes = tiny_setup()
        worker = server.make_worker_model()
        state = server.broadcast()
        new_state = nodes[0].local_update(worker, state)
        deltas = [np.abs(new_state[k] - state[k]).max() for k in state]
        assert max(deltas) > 0

    def test_respond_to_price_delegates(self):
        _, nodes = tiny_setup()
        response = nodes[0].respond_to_price(0.0)
        assert not response.participates

    def test_data_size(self):
        _, nodes = tiny_setup(n_nodes=3, train=60)
        assert sum(n.data_size for n in nodes) == 60


class TestServerAndSession:
    def test_round_updates_global(self):
        server, nodes = tiny_setup()
        session = FederatedSession(server, nodes)
        before = server.model.flat_parameters()
        record = session.run_round()
        assert server.round_index == 1
        assert record.round_index == 1
        assert not np.allclose(server.model.flat_parameters(), before)

    def test_partial_participation(self):
        server, nodes = tiny_setup()
        session = FederatedSession(server, nodes)
        record = session.run_round([0, 2])
        assert record.participant_ids == [0, 2]

    def test_unknown_participant(self):
        server, nodes = tiny_setup()
        session = FederatedSession(server, nodes)
        with pytest.raises(KeyError):
            session.run_round([99])

    def test_empty_participants(self):
        server, nodes = tiny_setup()
        session = FederatedSession(server, nodes)
        with pytest.raises(ValueError):
            session.run_round([])

    def test_duplicate_node_ids_rejected(self):
        server, nodes = tiny_setup()
        with pytest.raises(ValueError):
            FederatedSession(server, [nodes[0], nodes[0]])

    def test_reset_restores_initial_model(self):
        server, nodes = tiny_setup()
        session = FederatedSession(server, nodes)
        initial = server.model.flat_parameters()
        session.run_round()
        session.reset()
        np.testing.assert_allclose(server.model.flat_parameters(), initial)
        assert session.history == []
        assert server.round_index == 0

    def test_training_improves_accuracy(self):
        server, nodes = tiny_setup(train=150, test=80, local_epochs=5)
        session = FederatedSession(server, nodes)
        initial = server.evaluate().accuracy
        for _ in range(3):
            record = session.run_round()
        assert record.accuracy > initial + 0.3
