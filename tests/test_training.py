import math

import numpy as np
import pytest

import agrec.model
import agrec.training
from agrec.errors import ConfigError, DataError
from agrec.ingest import SplitDataset
from agrec.model import ModelConfig, forward, init_tables
from agrec.training import (TrainDivergedError, _sample_negatives_block,
                            backward, batch_loss, bpr_loss, sgd_step, sigmoid,
                            train)
from agrec.synth import assemble_world, planted_world
from helpers import (dense_union_matrix, finite_difference_gradients,
                     random_bundle, random_tables, reference_backward,
                     split_classes)


def hub_world():
    """(bundle, split) of a planted world whose keyword and aesthetic hubs
    put rows on both sides of the gather plans' degree split."""
    world = planted_world(n_users=40, n_items=200, n_item_keywords=3,
                          n_aesthetic_keywords=4, tastes_per_user=2,
                          interact_prob=0.5, seed=3)
    bundle, split, _ = assemble_world(world, seed=1)
    return bundle, split


class TestBprLoss:
    def test_equal_scores(self):
        assert bpr_loss(1.3, 1.3) == pytest.approx(math.log(2), abs=1e-12)

    def test_gap_ln3(self):
        assert bpr_loss(math.log(3), 0.0) == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_large_positive_gap_no_overflow(self):
        val = bpr_loss(50.0, 0.0)
        assert 0.0 < val < 1e-20

    def test_large_negative_gap_finite(self):
        val = bpr_loss(0.0, 50.0)
        assert np.isfinite(val)
        assert val == pytest.approx(50.0, abs=1e-9)

    def test_always_positive(self):
        rng = np.random.default_rng(0)
        gaps = rng.normal(scale=10, size=1000)
        assert (bpr_loss(gaps, 0.0) > 0).all()

    def test_mean_at_symmetric_scores_near_ln2(self):
        rng = np.random.default_rng(1)
        s_pos = rng.normal(scale=0.05, size=10_000)
        s_neg = rng.normal(scale=0.05, size=10_000)
        assert float(bpr_loss(s_pos, s_neg).mean()) == pytest.approx(
            math.log(2), abs=0.05)


class TestSampler:
    def test_single_candidate(self):
        rng = np.random.default_rng(0)
        users = np.zeros(3, dtype=np.int64)
        got = _sample_negatives_block(users, 5, {0: {0, 1, 2, 3}}, rng)
        assert got.tolist() == [4, 4, 4]

    def test_all_items_positive(self):
        rng = np.random.default_rng(0)
        users = np.array([1, 0], dtype=np.int64)
        with pytest.raises(DataError, match="no negatives"):
            _sample_negatives_block(users, 3, {0: {0, 1, 2}}, rng)

    def test_never_returns_positive_full_scan(self):
        rng = np.random.default_rng(7)
        positives = {0: set(range(0, 40, 2))}
        users = np.zeros(1_000_000, dtype=np.int64)
        negs = _sample_negatives_block(users, 40, positives, rng)
        assert not np.isin(negs, list(positives[0])).any()

    def test_uniform_over_non_positives(self):
        # chi-square on 1e5 draws; critical value for df=19 at p=0.001
        rng = np.random.default_rng(11)
        positives = {0: set(range(30, 40))}
        users = np.zeros(100_000, dtype=np.int64)
        negs = _sample_negatives_block(users, 40, positives, rng)
        counts = np.bincount(negs, minlength=40)
        assert (counts[30:] == 0).all()
        expected = 100_000 / 30
        chi2 = float(((counts[:30] - expected) ** 2 / expected).sum())
        assert chi2 < 58.3  # chi2 df=29, p=0.001


def tiny_problem(rng, n_u=6, n_i=8, n_ia=5, n_iaa=4, dim=3, layers=2,
                 l2=1e-2, lr=0.1, seed=0):
    bundle = random_bundle(rng, n_u, n_i, n_ia, n_iaa, p=0.5)
    cfg = ModelConfig(dim=dim, layers=layers, learning_rate=lr, l2_weight=l2,
                      seed=seed)
    tables = random_tables(rng, bundle, dim)
    return bundle, cfg, tables


class TestBackward:
    def test_k0_closed_form(self):
        rng = np.random.default_rng(3)
        bundle, cfg, tables = tiny_problem(rng, layers=0, l2=0.05)
        users = np.array([2])
        pos = np.array([1])
        negs = np.array([4])
        stack = forward(tables, bundle, cfg)
        grads, _, _ = backward(users, pos, negs, stack, bundle, cfg)
        e_u, e_i, _, _ = split_classes(tables, bundle)
        grad_u, grad_i, _, _ = split_classes(grads, bundle)
        delta = e_u[2] @ e_i[1] - e_u[2] @ e_i[4]
        want_u = -sigmoid(-delta) * (e_i[1] - e_i[4]) + 2 * cfg.l2_weight * e_u[2]
        np.testing.assert_allclose(grad_u[2], want_u, rtol=1e-12)
        want_p = -sigmoid(-delta) * e_u[2] + 2 * cfg.l2_weight * e_i[1]
        np.testing.assert_allclose(grad_i[1], want_p, rtol=1e-12)

    def test_identical_pos_neg_zero_gradient(self):
        rng = np.random.default_rng(4)
        bundle, cfg, tables = tiny_problem(rng, l2=0.0)
        users = np.array([0])
        pos = np.array([3])
        negs = np.array([3])
        stack = forward(tables, bundle, cfg)
        grads, _, _ = backward(users, pos, negs, stack, bundle, cfg)
        assert grads.shape == tables.shape
        assert (grads == 0).all()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            bundle, cfg, tables = tiny_problem(
                rng, layers=int(rng.integers(0, 4)), l2=float(rng.choice([0.0, 1e-2])))
            n = int(rng.integers(1, 5))
            users = rng.integers(0, 6, size=n)
            pos = rng.integers(0, 8, size=n)
            negs = rng.integers(0, 8, size=n)
            stack = forward(tables, bundle, cfg)
            grads, _, _ = backward(users, pos, negs, stack, bundle, cfg)
            fd = finite_difference_gradients(
                tables, lambda t: batch_loss(t, bundle, cfg, users, pos, negs)[0])
            np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-8)

    def test_loss_parts_match_batch_loss(self):
        rng = np.random.default_rng(6)
        bundle, cfg, tables = tiny_problem(rng)
        users = np.array([0, 1])
        pos = np.array([2, 3])
        negs = np.array([4, 5])
        stack = forward(tables, bundle, cfg)
        _, bpr, reg = backward(users, pos, negs, stack, bundle, cfg)
        total, bpr2, reg2 = batch_loss(tables, bundle, cfg, users, pos, negs)
        assert bpr == pytest.approx(bpr2, rel=1e-12)
        assert reg == pytest.approx(reg2, rel=1e-12)
        assert total == pytest.approx(bpr + reg, rel=1e-12)

    @pytest.mark.parametrize("l2", [0.0, 1e-2])
    def test_bitwise_equal_to_add_at_oracle(self, l2):
        bundle, split = hub_world()
        op = bundle.operator
        for plan in (op.forward, op.transpose):
            assert plan.heavy_rows.size and plan.nbr.size
        cfg = ModelConfig(dim=19, layers=2, l2_weight=l2, seed=2)  # 8 + 8 + 3 columns
        rng = np.random.default_rng(17)
        tables = random_tables(rng, bundle, cfg.dim)
        pairs = np.asarray(split.train, dtype=np.int64)
        users = np.repeat(pairs[:, 0], 2)  # users and items repeat
        pos = np.repeat(pairs[:, 1], 2)
        negs = rng.integers(0, len(bundle.vocab_i), size=users.size)
        stack = forward(tables, bundle, cfg)
        got = backward(users, pos, negs, stack, bundle, cfg)
        want = reference_backward(users, pos, negs, stack, bundle, cfg)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]


class TestSgdProperties:
    def test_single_step_decreases_triple_loss(self):
        rng = np.random.default_rng(7)
        for lr in (1e-3, 1e-4):
            bundle, cfg, tables = tiny_problem(rng, l2=0.0, lr=lr, seed=1)
            users, pos, negs = np.array([1]), np.array([0]), np.array([5])
            before = batch_loss(tables, bundle, cfg, users, pos, negs)[0]
            stack = forward(tables, bundle, cfg)
            grads, _, _ = backward(users, pos, negs, stack, bundle, cfg)
            sgd_step(tables, grads, lr)
            after = batch_loss(tables, bundle, cfg, users, pos, negs)[0]
            assert after < before

    def test_l2_contracts_norms_without_bpr_signal(self):
        # pos == neg silences the ranking gradient; remaining dynamics are
        # theta <- (1 - 2*lr*lambda) * theta on the touched rows
        rng = np.random.default_rng(8)
        bundle, cfg, tables = tiny_problem(rng, l2=0.05, lr=0.5)
        users, pos, negs = np.array([0]), np.array([1]), np.array([1])
        user0 = split_classes(tables, bundle)[0][0]  # a view: sgd_step is in place
        norms = [float(np.linalg.norm(user0))]
        for _ in range(10):
            stack = forward(tables, bundle, cfg)
            grads, _, _ = backward(users, pos, negs, stack, bundle, cfg)
            sgd_step(tables, grads, cfg.learning_rate)
            norms.append(float(np.linalg.norm(user0)))
        assert all(b < a for a, b in zip(norms, norms[1:]))


def small_split(rng, bundle, n_rows=40):
    users = rng.integers(0, len(bundle.vocab_u), size=n_rows)
    items = rng.integers(0, len(bundle.vocab_i), size=n_rows)
    train = [(int(u), int(i)) for u, i in zip(users, items)]
    positives = {}
    for u, i in train:
        positives.setdefault(u, set()).add(i)
    val = train[:4]
    return SplitDataset(train=train, validation=val, test=[],
                        user_positives=positives, split_seed=0)


class TestTrainLoop:
    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(9)
        bundle, cfg, _ = tiny_problem(rng, lr=0.0)
        split = small_split(rng, bundle)
        fixed = (np.array([0, 1]), np.array([2, 3]), np.array([4, 5]))
        before = batch_loss(init_tables(bundle, cfg), bundle, cfg, *fixed)[0]
        result = train(split, bundle, cfg, epochs=3, batch_size=8,
                       patience=None, val_k=5)
        np.testing.assert_array_equal(result.tables, init_tables(bundle, cfg))
        # the model's loss on any fixed triple set is exactly unchanged;
        # per-epoch stats still fluctuate with the negative-sampling draw
        after = batch_loss(result.tables, bundle, cfg, *fixed)[0]
        assert after == before
        for st in result.stats:
            assert st.loss == pytest.approx(math.log(2), abs=0.05)

    def test_triples_processed_per_epoch(self):
        rng = np.random.default_rng(10)
        bundle, _, _ = tiny_problem(rng)
        cfg = ModelConfig(dim=3, layers=1, n_negatives=3, learning_rate=0.1,
                          seed=0)
        split = small_split(rng, bundle)
        result = train(split, bundle, cfg, epochs=2, batch_size=16,
                       patience=None, val_k=5)
        assert all(s.triples == len(split.train) * 3 for s in result.stats)

    def test_tables_bitwise_equal_to_add_at_propagation(self, monkeypatch):
        bundle, split = hub_world()
        op = bundle.operator
        cfg = ModelConfig(dim=4, layers=2, learning_rate=0.5, seed=2)
        kwargs = dict(epochs=3, batch_size=128, val_k=5, patience=None)
        real = train(split, bundle, cfg, **kwargs)
        for plan in (op.forward, op.transpose):
            assert plan.heavy_rows.size and plan.nbr.size

        dense = dense_union_matrix(bundle)
        rows, cols = np.nonzero(dense)  # entries in (row, col) order
        coef = dense[rows, cols]
        calls = []

        def add_at_gather(plan, src):
            calls.append(plan)
            out_rows, in_rows = (rows, cols) if plan is op.forward else (cols, rows)
            out = np.zeros((op.size, src.shape[1]))
            np.add.at(out, out_rows, src[in_rows] * coef[:, None])
            return out

        monkeypatch.setattr(agrec.model, "gather_rows", add_at_gather)
        monkeypatch.setattr(agrec.training, "gather_rows", add_at_gather)
        ref = train(split, bundle, cfg, **kwargs)
        assert any(p is op.forward for p in calls)
        assert any(p is op.transpose for p in calls)
        for name, got, want in zip(("users", "items", "item_attrs", "aesthetics"),
                                   op.split(real.tables), op.split(ref.tables)):
            assert got.tobytes() == want.tobytes(), name
        assert [s.loss for s in real.stats] == [s.loss for s in ref.stats]

    def test_validation_forward_serves_next_epoch(self, monkeypatch):
        rng = np.random.default_rng(13)
        bundle, cfg, _ = tiny_problem(rng)
        split = small_split(rng, bundle)  # 40 pairs: 5 batches of 8
        calls = []

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(agrec.training, "forward", counted)
        train(split, bundle, cfg, epochs=3, batch_size=8, patience=None, val_k=5)
        # 5 batch forwards and one validation forward in epoch 1; epochs 2
        # and 3 start from the previous validation's stack
        assert len(calls) == 5 + 1 + 2 * (4 + 1)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(11)
        bundle, cfg, _ = tiny_problem(rng, lr=0.5)
        split = small_split(rng, bundle)
        a = train(split, bundle, cfg, epochs=4, batch_size=8, patience=None, val_k=5)
        b = train(split, bundle, cfg, epochs=4, batch_size=8, patience=None, val_k=5)
        np.testing.assert_array_equal(a.tables, b.tables)
        assert [s.loss for s in a.stats] == [s.loss for s in b.stats]

    def test_divergence_aborts_with_last_good(self):
        rng = np.random.default_rng(12)
        bundle, _, _ = tiny_problem(rng)
        cfg = ModelConfig(dim=3, layers=2, learning_rate=1e12, seed=0)
        split = small_split(rng, bundle)
        with np.errstate(all="ignore"):  # overflow on the way down is the point
            with pytest.raises(TrainDivergedError) as excinfo:
                train(split, bundle, cfg, epochs=10, batch_size=8,
                      patience=None, val_k=5)
        err = excinfo.value
        assert err.last_good is None or err.last_good.shape == (bundle.operator.size, 3)

    @pytest.mark.parametrize("kwargs", [dict(batch_size=0), dict(epochs=0),
                                        dict(val_k=0), dict(patience=-1),
                                        dict(checkpoint_every=-1)])
    def test_rejects_empty_batches_and_epochs(self, kwargs):
        rng = np.random.default_rng(16)
        bundle, cfg, _ = tiny_problem(rng)
        split = small_split(rng, bundle)
        with pytest.raises(ConfigError):
            train(split, bundle, cfg, **{"epochs": 1, "batch_size": 8, **kwargs})

    def test_training_log_schema(self, tmp_path):
        import json

        rng = np.random.default_rng(13)
        bundle, cfg, _ = tiny_problem(rng, lr=0.1)
        split = small_split(rng, bundle)
        log = tmp_path / "train.log.jsonl"
        train(split, bundle, cfg, epochs=2, batch_size=8, patience=None,
              val_k=5, log_path=log)
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert len(lines) == 2
        assert set(lines[0]) == {"epoch", "loss", "reg", "val_recall@5", "seconds"}

    def test_checkpoint_file_matches_returned_tables(self, tmp_path):
        from agrec.model import load_checkpoint

        rng = np.random.default_rng(15)
        bundle, cfg, _ = tiny_problem(rng, lr=0.5)
        split = small_split(rng, bundle)
        path = tmp_path / "model.agr"
        result = train(split, bundle, cfg, epochs=5, batch_size=8, patience=2,
                       val_k=5, checkpoint_path=path, checkpoint_every=2)
        ckpt = load_checkpoint(path)
        np.testing.assert_array_equal(
            ckpt.tables, result.tables.astype(np.float32).astype(np.float64))

    def test_mean_initial_loss_near_ln2(self):
        rng = np.random.default_rng(14)
        bundle = random_bundle(rng, 30, 60, 10, 5, p=0.2)
        cfg = ModelConfig(dim=8, layers=0, learning_rate=0.0, seed=3)
        split = small_split(rng, bundle, n_rows=200)
        result = train(split, bundle, cfg, epochs=1, batch_size=200,
                       patience=None, val_k=5)
        assert result.stats[0].loss == pytest.approx(math.log(2), abs=0.05)
