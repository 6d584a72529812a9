import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agrec.evaluation
import agrec.kernels
import agrec.model
import agrec.training
from agrec.errors import ConfigError, DataError, NumericError
from agrec.graphs import BipartiteGraph
from agrec.ingest import SplitDataset
from agrec.model import ModelConfig, final_embeddings, forward, init_tables
from agrec.training import (_sample_negatives_block, batch_loss, bpr_loss,
                            sgd_step, sigmoid, train)
from agrec.synth import assemble_world, planted_world
from helpers import (backward_from_final, dense_union_matrix,
                     finite_difference_gradients, hub_world, keys_of,
                     random_bundle, random_tables, reference_backward,
                     reference_sample_negatives, snapshot, split_classes,
                     tear_nth_write, traced_peak)


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


@st.composite
def sampler_cases(draw):
    """A block of users over a small catalogue: users without positives,
    users one item short of all, random ones, and (the sampler must refuse
    them) users with every item."""
    n_items = draw(st.integers(1, 12))
    every = set(range(n_items))
    kinds = st.sampled_from(["none", "one short", "random", "random", "random", "all"])
    positives = {}
    for u in range(draw(st.integers(1, 6))):
        kind = draw(kinds)
        positives[u] = (set() if kind == "none"
                        else every - {draw(st.integers(0, n_items - 1))}
                        if kind == "one short"
                        else every if kind == "all"
                        else draw(st.sets(st.integers(0, n_items - 1))))
    users = draw(st.lists(st.integers(0, len(positives) - 1), min_size=1, max_size=40))
    return n_items, positives, np.array(users, dtype=np.int64), draw(st.integers(0, 2**32))


class TestSampler:
    @settings(max_examples=300, deadline=None)
    @given(sampler_cases())
    def test_same_draws_as_reference_loop(self, case):
        n_items, positives, users, seed = case
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = reference_sample_negatives(users, n_items, positives, want_rng)
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{exc}$"):
                _sample_negatives_block(users, n_items, keys_of(positives, n_items),
                                        got_rng)
            return
        got = _sample_negatives_block(users, n_items, keys_of(positives, n_items),
                                      got_rng)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_single_candidate(self):
        rng = np.random.default_rng(0)
        users = np.zeros(3, dtype=np.int64)
        got = _sample_negatives_block(users, 5, keys_of({0: {0, 1, 2, 3}}, 5), rng)
        assert got.tolist() == [4, 4, 4]

    def test_all_items_positive(self):
        rng = np.random.default_rng(0)
        users = np.array([1, 0], dtype=np.int64)
        with pytest.raises(DataError, match="no negatives available for user 0"):
            _sample_negatives_block(users, 3, keys_of({0: {0, 1, 2}}, 3), rng)

    def test_never_returns_positive_full_scan(self):
        rng = np.random.default_rng(7)
        positives = {0: set(range(0, 40, 2))}
        users = np.zeros(1_000_000, dtype=np.int64)
        negs = _sample_negatives_block(users, 40, keys_of(positives, 40), rng)
        assert not np.isin(negs, list(positives[0])).any()

    def test_uniform_over_non_positives(self):
        # chi-square on 1e5 draws; critical value for df=19 at p=0.001
        rng = np.random.default_rng(11)
        positives = {0: set(range(30, 40))}
        users = np.zeros(100_000, dtype=np.int64)
        negs = _sample_negatives_block(users, 40, keys_of(positives, 40), rng)
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
        final = final_embeddings(forward(tables, bundle, cfg))
        grads, _, _ = backward_from_final(users, pos, negs, final, tables, bundle, cfg)
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
        final = final_embeddings(forward(tables, bundle, cfg))
        grads, _, _ = backward_from_final(users, pos, negs, final, tables, bundle, cfg)
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
            final = final_embeddings(forward(tables, bundle, cfg))
            grads, _, _ = backward_from_final(users, pos, negs, final, tables, bundle, cfg)
            fd = finite_difference_gradients(
                tables, lambda t: batch_loss(t, bundle, cfg, users, pos, negs)[0])
            np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-8)

    def test_loss_parts_match_batch_loss(self):
        rng = np.random.default_rng(6)
        bundle, cfg, tables = tiny_problem(rng)
        users = np.array([0, 1])
        pos = np.array([2, 3])
        negs = np.array([4, 5])
        final = final_embeddings(forward(tables, bundle, cfg))
        _, bpr, reg = backward_from_final(users, pos, negs, final, tables, bundle, cfg)
        total, bpr2, reg2 = batch_loss(tables, bundle, cfg, users, pos, negs)
        assert bpr == pytest.approx(bpr2, rel=1e-12)
        assert reg == pytest.approx(reg2, rel=1e-12)
        assert total == pytest.approx(bpr + reg, rel=1e-12)

    @pytest.mark.parametrize("l2, block", [
        pytest.param(0.0, None, id="0.0"), pytest.param(1e-2, None, id="0.01"),
        pytest.param(0.0, 7, id="0.0-block7"), pytest.param(1e-2, 7, id="0.01-block7")])
    def test_bitwise_equal_to_add_at_oracle(self, monkeypatch, l2, block):
        if block:  # many blocks of triples: each cell still sums in triple order
            monkeypatch.setattr(agrec.training, "_TRIPLE_BLOCK", block)
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
        final = final_embeddings(forward(tables, bundle, cfg))
        got = backward_from_final(users, pos, negs, final, tables, bundle, cfg)
        want = reference_backward(users, pos, negs, final, tables, bundle, cfg)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]


class TestSgdProperties:
    def test_single_step_decreases_triple_loss(self):
        rng = np.random.default_rng(7)
        for lr in (1e-3, 1e-4):
            bundle, cfg, tables = tiny_problem(rng, l2=0.0, lr=lr, seed=1)
            users, pos, negs = np.array([1]), np.array([0]), np.array([5])
            before = batch_loss(tables, bundle, cfg, users, pos, negs)[0]
            final = final_embeddings(forward(tables, bundle, cfg))
            grads, _, _ = backward_from_final(users, pos, negs, final, tables, bundle, cfg)
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
            final = final_embeddings(forward(tables, bundle, cfg))
            grads, _, _ = backward_from_final(users, pos, negs, final, tables, bundle, cfg)
            sgd_step(tables, grads, cfg.learning_rate)
            norms.append(float(np.linalg.norm(user0)))
        assert all(b < a for a, b in zip(norms, norms[1:]))


def small_split(rng, bundle, n_rows=40):
    """A trainable world where the train pairs are the graph: the bundle,
    less the last g_ui edge of each user linked to every item (no negative
    is left for them), and n_rows train pairs in random order that are its
    g_ui edges, each at least once and the rest drawn at random."""
    g = bundle.g_ui
    last = np.append(g.left[1:] != g.left[:-1], True)
    keep = ~(last & (g.left_deg[g.left] == g.right_count))
    g = BipartiteGraph(g.left_count, g.right_count,
                       np.column_stack((g.left, g.right))[keep])
    assert 0 < g.edge_count <= n_rows
    extra = rng.integers(0, g.edge_count, size=n_rows - g.edge_count)
    pick = rng.permutation(np.concatenate((np.arange(g.edge_count), extra)))
    train = np.column_stack((g.left, g.right))[pick]
    return dataclasses.replace(bundle, g_ui=g), SplitDataset(
        train=train, validation=train[:4], test=np.empty((0, 2), np.int64))


class TestTrainLoop:
    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(9)
        bundle, cfg, _ = tiny_problem(rng, lr=0.0)
        bundle, split = small_split(rng, bundle)
        fixed = (np.array([0, 1]), np.array([2, 3]), np.array([4, 5]))
        before = batch_loss(init_tables(bundle, cfg), bundle, cfg, *fixed)[0]
        result = train(split, bundle, cfg, epochs=3, batch_size=8,
                       patience=0, val_k=5)
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
        bundle, split = small_split(rng, bundle)
        result = train(split, bundle, cfg, epochs=2, batch_size=16,
                       patience=0, val_k=5)
        assert all(s.triples == len(split.train) * 3 for s in result.stats)

    def test_tables_bitwise_equal_to_add_at_propagation(self, monkeypatch):
        bundle, split = hub_world()
        op = bundle.operator
        cfg = ModelConfig(dim=4, layers=2, learning_rate=0.5, seed=2)
        kwargs = dict(epochs=3, batch_size=128, val_k=5, patience=0)
        real = train(split, bundle, cfg, **kwargs)
        for plan in (op.forward, op.transpose):
            assert plan.heavy_rows.size and plan.nbr.size

        dense = dense_union_matrix(bundle)
        rows, cols = np.nonzero(dense)  # entries in (row, col) order
        coef = dense[rows, cols]
        calls, adjoint = [], []

        def add_at_gather(plan, src):
            # full M or Mᵀ; the head is served M's scored rows
            calls.append(plan)
            along_m = plan is op.forward or plan is op.head
            out_rows, in_rows = (rows, cols) if along_m else (cols, rows)
            out = np.zeros((op.size, src.shape[1]))
            np.add.at(out, out_rows, src[in_rows] * coef[:, None])
            return out[:op.bounds[2]] if plan is op.head else out

        def adjoint_gather(plan, src):
            adjoint.append(plan)
            return add_at_gather(plan, src)

        monkeypatch.setattr(agrec.model, "gather_rows", add_at_gather)
        monkeypatch.setattr(agrec.training, "gather_rows", adjoint_gather)
        ref = train(split, bundle, cfg, **kwargs)
        assert {id(p) for p in calls} == {id(op.forward), id(op.head), id(op.transpose)}
        # backward is Mᵀ applied K times per batch
        batches = kwargs["epochs"] * -(-split.train.shape[0] // kwargs["batch_size"])
        assert all(p is op.transpose for p in adjoint)
        assert len(adjoint) == cfg.layers * batches
        for name, got, want in zip(("users", "items", "item_attrs", "aesthetics"),
                                   op.split(real.tables), op.split(ref.tables)):
            assert got.tobytes() == want.tobytes(), name
        assert [s.loss for s in real.stats] == [s.loss for s in ref.stats]

    def test_tables_bitwise_equal_across_triple_blocks(self, monkeypatch):
        bundle, split = hub_world()
        cfg = ModelConfig(dim=19, layers=2, learning_rate=0.5, l2_weight=1e-2,
                          n_negatives=2, seed=2)
        kwargs = dict(epochs=2, batch_size=64, val_k=5, patience=0)
        default = train(split, bundle, cfg, **kwargs)
        monkeypatch.setattr(agrec.training, "_TRIPLE_BLOCK", 7)
        blocked = train(split, bundle, cfg, **kwargs)
        assert blocked.tables.tobytes() == default.tables.tobytes()
        assert ([(s.loss, s.reg, s.val_recall) for s in blocked.stats]
                == [(s.loss, s.reg, s.val_recall) for s in default.stats])

    def test_tables_bitwise_equal_across_hub_chunks(self, monkeypatch):
        bundle, split = hub_world()
        cfg = ModelConfig(dim=19, layers=2, learning_rate=0.5, l2_weight=1e-2,
                          n_negatives=2, seed=2)
        kwargs = dict(epochs=2, batch_size=64, val_k=5, patience=0)
        default = train(split, bundle, cfg, **kwargs)
        monkeypatch.setattr(agrec.kernels, "_HUB_CELLS", 1)  # one hub per chunk
        chunked = train(split, bundle, cfg, **kwargs)
        assert chunked.tables.tobytes() == default.tables.tobytes()
        assert ([(s.loss, s.reg, s.val_recall) for s in chunked.stats]
                == [(s.loss, s.reg, s.val_recall) for s in default.stats])

    def test_adjoint_sees_no_forward_layer_and_memory_is_bounded(self, monkeypatch):
        world = planted_world(n_users=60, n_items=300, n_item_keywords=20,
                              n_aesthetic_keywords=6, tastes_per_user=2,
                              interact_prob=0.3, seed=5)
        bundle, split, _ = assemble_world(world, seed=1)
        op = bundle.operator
        cfg = ModelConfig(dim=32, layers=3, learning_rate=0.5, n_negatives=8, seed=2)
        n_triples = split.train.shape[0] * cfg.n_negatives  # one batch per epoch
        monkeypatch.setattr(agrec.training, "_TRIPLE_BLOCK", 64)
        assert n_triples > 50 * 64  # the batch spans many blocks
        real, layers, finals, alive = agrec.model.gather_rows, [], [], []

        def forward_gather(plan, src):
            out = real(plan, src)
            layers.append(weakref.ref(out))
            return out

        def kept_final(stack):
            e_u, e_i = final_embeddings(stack)
            finals.append(weakref.ref(e_u.base))  # the one (n_ui, dim) array
            return e_u, e_i

        def adjoint_gather(plan, src):
            alive.append(sum(ref() is not None for ref in layers + finals))
            return real(plan, src)

        monkeypatch.setattr(agrec.model, "gather_rows", forward_gather)
        monkeypatch.setattr(agrec.training, "final_embeddings", kept_final)
        monkeypatch.setattr(agrec.training, "gather_rows", adjoint_gather)
        # train builds the plans, so they are traced too
        _, peak = traced_peak(train, split, bundle, cfg, epochs=2,
                              batch_size=split.train.shape[0], val_k=5, patience=0)
        assert len(alive) == 2 * cfg.layers and not any(alive)
        assert len(finals) == 3  # two batches and the validation between
        table = op.size * cfg.dim * 8
        plans = sum(a.nbytes for p in (op.forward, op.head, op.transpose)
                    for a in vars(p).values() if isinstance(a, np.ndarray))
        # The peak is the L2 term's one (triples, dim) square, beside the
        # table and its best copy, G (the n_ui scored rows) and the batch's
        # index arrays (under a table here): 4.06 tables measured. Final
        # embeddings alive through backward would add a fifth, the layers K
        # more, and the whole batch's score and scatter terms several
        # (triples, dim) arrays.
        assert peak <= plans + 4.5 * table + n_triples * cfg.dim * 8

    def test_validation_forward_serves_next_epoch(self, monkeypatch):
        rng = np.random.default_rng(13)
        bundle, cfg, _ = tiny_problem(rng)
        bundle, split = small_split(rng, bundle)  # 40 pairs: 5 batches of 8
        calls = []

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(agrec.training, "forward", counted)
        train(split, bundle, cfg, epochs=3, batch_size=8, patience=0, val_k=5)
        # 5 batch forwards and one validation forward in epoch 1; epochs 2
        # and 3 start from the previous validation's final embeddings
        assert len(calls) == 5 + 1 + 2 * (4 + 1)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(11)
        bundle, cfg, _ = tiny_problem(rng, lr=0.5)
        bundle, split = small_split(rng, bundle)
        a = train(split, bundle, cfg, epochs=4, batch_size=8, patience=0, val_k=5)
        b = train(split, bundle, cfg, epochs=4, batch_size=8, patience=0, val_k=5)
        np.testing.assert_array_equal(a.tables, b.tables)
        assert [s.loss for s in a.stats] == [s.loss for s in b.stats]

    def test_divergence_raises_numeric_error(self):
        rng = np.random.default_rng(12)
        bundle, _, _ = tiny_problem(rng)
        cfg = ModelConfig(dim=3, layers=2, learning_rate=1e12, seed=0)
        bundle, split = small_split(rng, bundle)
        with np.errstate(all="ignore"):  # overflow on the way down is the point
            with pytest.raises(NumericError, match=r"^training diverged at epoch \d+: "):
                train(split, bundle, cfg, epochs=10, batch_size=8,
                      patience=0, val_k=5)

    @pytest.mark.parametrize("kwargs", [dict(batch_size=0), dict(epochs=0),
                                        dict(val_k=0), dict(patience=-1)])
    def test_rejects_empty_batches_and_epochs(self, kwargs):
        rng = np.random.default_rng(16)
        bundle, cfg, _ = tiny_problem(rng)
        bundle, split = small_split(rng, bundle)
        with pytest.raises(ConfigError):
            train(split, bundle, cfg, **{"epochs": 1, "batch_size": 8, **kwargs})

    @pytest.mark.parametrize("patience, epochs_run", [(0, 6), (1, 2), (2, 3)])
    def test_patience_zero_runs_every_epoch(self, monkeypatch, patience, epochs_run):
        rng = np.random.default_rng(13)
        bundle, cfg, _ = tiny_problem(rng)
        bundle, split = small_split(rng, bundle)
        recalls = iter([0.5, 0.4, 0.3, 0.2, 0.1, 0.0])  # best at epoch 1
        monkeypatch.setattr(agrec.evaluation, "mean_recall_at_k",
                            lambda *args: next(recalls))
        result = train(split, bundle, cfg, epochs=6, batch_size=8,
                       patience=patience, val_k=5)
        assert len(result.stats) == epochs_run
        assert result.best_epoch == 1

    def test_training_log_schema(self, tmp_path):
        import json

        rng = np.random.default_rng(13)
        bundle, cfg, _ = tiny_problem(rng, lr=0.1)
        bundle, split = small_split(rng, bundle)
        log = tmp_path / "train.log.jsonl"
        train(split, bundle, cfg, epochs=2, batch_size=8, patience=0,
              val_k=5, log_path=log)
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert len(lines) == 2
        phases = {"sample_s", "forward_s", "backward_s", "step_s", "validate_s"}
        assert set(lines[0]) == {"epoch", "loss", "reg", "val_recall@5",
                                 "seconds", "maxrss_mb"} | phases
        for line in lines:
            assert all(line[p] > 0.0 for p in phases)
            assert sum(line[p] for p in phases) <= line["seconds"]
        # the peak resident set so far, in MB, never falls
        assert 0.0 < lines[0]["maxrss_mb"] <= lines[1]["maxrss_mb"]

    def test_checkpoint_file_matches_returned_tables(self, tmp_path):
        from agrec.model import load_checkpoint

        rng = np.random.default_rng(15)
        bundle, cfg, _ = tiny_problem(rng, lr=0.5)
        bundle, split = small_split(rng, bundle)
        path = tmp_path / "model.agr"
        result = train(split, bundle, cfg, epochs=5, batch_size=8, patience=2,
                       val_k=5, checkpoint_path=path)
        ckpt = load_checkpoint(path)
        np.testing.assert_array_equal(
            ckpt.tables, result.tables.astype(np.float32).astype(np.float64))

    def test_checkpoint_written_once_per_improving_epoch(self, tmp_path, monkeypatch):
        from agrec.model import load_checkpoint

        rng = np.random.default_rng(15)
        bundle, cfg, _ = tiny_problem(rng, lr=0.5)
        bundle, split = small_split(rng, bundle)
        saved = []
        real_save = agrec.model.save_checkpoint

        def counted_save(path, tables, *args, **kwargs):
            saved.append(tables.copy())
            real_save(path, tables, *args, **kwargs)

        monkeypatch.setattr(agrec.model, "save_checkpoint", counted_save)
        recalls = iter([0.1, 0.3, 0.2, 0.4])  # epochs 1, 2 and 4 improve
        monkeypatch.setattr(agrec.evaluation, "mean_recall_at_k",
                            lambda *args: next(recalls))
        path = tmp_path / "model.agr"
        result = train(split, bundle, cfg, epochs=4, batch_size=8, patience=0,
                       val_k=5, checkpoint_path=path)
        assert result.best_epoch == 4 and len(saved) == 3
        assert saved[-1].tobytes() == result.tables.tobytes()
        np.testing.assert_array_equal(
            load_checkpoint(path).tables,
            result.tables.astype(np.float32).astype(np.float64))
        # without a validation split nothing improves: one write, at the end
        saved.clear()
        no_val = dataclasses.replace(split, validation=split.validation[:0])
        result = train(no_val, bundle, cfg, epochs=2, batch_size=8, patience=0,
                       val_k=5, checkpoint_path=path)
        assert result.best_epoch is None and len(saved) == 1
        assert saved[0].tobytes() == result.tables.tobytes()

    def test_failed_save_keeps_the_best_checkpoint_so_far(self, tmp_path,
                                                          monkeypatch):
        from agrec.model import load_checkpoint

        world = planted_world(n_users=20, n_items=40, n_item_keywords=4,
                              n_aesthetic_keywords=3, tastes_per_user=1, seed=3)
        bundle, split, _ = assemble_world(world, seed=1)
        cfg = ModelConfig(dim=4, layers=1, learning_rate=2.0, seed=2)
        saved = []
        real_save = agrec.model.save_checkpoint

        def recording_save(path, tables, *args, **kwargs):
            saved.append(tables.copy())
            real_save(path, tables, *args, **kwargs)

        monkeypatch.setattr(agrec.model, "save_checkpoint", recording_save)
        tear_nth_write(monkeypatch, nth=3, budget=600)
        path = tmp_path / "model.agr"
        with pytest.raises(OSError, match="No space"):
            train(split, bundle, cfg, epochs=8, batch_size=16, patience=0,
                  val_k=5, checkpoint_path=path)
        assert len(saved) == 3  # epochs 1-3 each improved validation recall
        assert list(snapshot(tmp_path)) == ["model.agr"]
        np.testing.assert_array_equal(
            load_checkpoint(path).tables,
            saved[1].astype(np.float32).astype(np.float64))

    def test_mean_initial_loss_near_ln2(self):
        rng = np.random.default_rng(14)
        bundle = random_bundle(rng, 30, 60, 10, 5, p=0.2)
        cfg = ModelConfig(dim=8, layers=0, learning_rate=0.0, seed=3)
        bundle, split = small_split(rng, bundle, n_rows=400)
        result = train(split, bundle, cfg, epochs=1, batch_size=400,
                       patience=0, val_k=5)
        assert result.stats[0].loss == pytest.approx(math.log(2), abs=0.05)
