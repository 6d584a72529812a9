import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from agrec.errors import ConfigError, DataError, IntegrityError, NumericError
from agrec.evaluation import (RankingResult, evaluate, mean_recall_at_k,
                              ndcg_at_k, precision_at_k, rank_items,
                              recall_at_k, top_k)
from agrec.model import ModelConfig, save_checkpoint, load_checkpoint
from agrec.synth import assemble_world, planted_world
from helpers import brute_force_metrics


def embeddings_for_scores(scores):
    """1-d embeddings so that score(u0, i) == scores[i]."""
    e_u = np.array([[1.0]])
    e_i = np.asarray(scores, dtype=np.float64)[:, None]
    return e_u, e_i


class TestRankItems:
    def test_orders_by_score(self):
        e_u, e_i = embeddings_for_scores([0.9, 0.1])
        got = rank_items(0, [0, 1], e_u, e_i)
        np.testing.assert_array_equal(got.ordering, [0, 1])
        got = rank_items(0, [1, 0], e_u, e_i)
        np.testing.assert_array_equal(got.ordering, [0, 1])

    def test_ties_break_by_ascending_index(self):
        e_u, e_i = embeddings_for_scores([0.5, 0.5, 0.5])
        got = rank_items(0, [2, 0, 1], e_u, e_i)
        np.testing.assert_array_equal(got.ordering, [0, 1, 2])

    def test_training_positive_in_candidates_rejected(self):
        e_u, e_i = embeddings_for_scores([1.0, 2.0])
        with pytest.raises(DataError, match="training positives"):
            rank_items(0, [0, 1], e_u, e_i, train_positives={1})

    def test_empty_candidates(self):
        e_u, e_i = embeddings_for_scores([1.0])
        with pytest.raises(DataError, match="empty candidate"):
            rank_items(0, [], e_u, e_i)


@st.composite
def ranking_cases(draw):
    """Integer-valued embeddings in -3..3: every score is an exact small
    integer under GEMM and GEMV alike, so ties are real ties."""
    dim = draw(st.integers(1, 6))
    n_users = draw(st.integers(1, 8))
    n_items = draw(st.integers(1, 12))
    entries = st.integers(-3, 3).map(float)
    e_u = draw(hnp.arrays(np.float64, (n_users, dim), elements=entries))
    e_i = draw(hnp.arrays(np.float64, (n_items, dim), elements=entries))
    exclude = [draw(st.one_of(st.sets(st.integers(0, n_items - 1)),
                              st.just(set(range(n_items)))))
               for _ in range(n_users)]
    k = draw(st.integers(1, n_items + 2))
    return e_u, e_i, exclude, k


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(ranking_cases())
    def test_equals_full_ordering_prefix(self, case):
        e_u, e_i, exclude, k = case
        tops = top_k(e_u, e_i, k, exclude=exclude)
        assert len(tops) == e_u.shape[0]
        for r, top in enumerate(tops):
            cand = [i for i in range(e_i.shape[0]) if i not in exclude[r]]
            want = (rank_items(r, cand, e_u, e_i).ordering[:k] if cand
                    else np.empty(0, dtype=np.int64))
            np.testing.assert_array_equal(top, want)

    def test_ties_at_kth_place_take_lowest_index(self):
        e_u, e_i = embeddings_for_scores([0.2, 0.5, 0.9, 0.5, 0.5])
        (top,) = top_k(e_u, e_i, 3)
        np.testing.assert_array_equal(top, [2, 1, 3])
        (top,) = top_k(e_u, e_i, 3, exclude=[{1}])
        np.testing.assert_array_equal(top, [2, 3, 4])

    def test_several_blocks_match_one_user_at_a_time(self):
        # 30000 items make two users per block, so five users take three
        rng = np.random.default_rng(6)
        e_u = rng.normal(size=(5, 3))
        e_i = np.round(rng.normal(size=(30000, 3)), 1)
        exclude = [set(rng.choice(30000, size=50, replace=False).tolist())
                   for _ in range(5)]
        tops = top_k(e_u, e_i, 20, exclude=exclude)
        for r in range(5):
            (alone,) = top_k(e_u[r:r + 1], e_i, 20, exclude=[exclude[r]])
            np.testing.assert_array_equal(tops[r], alone)
            assert not set(tops[r].tolist()) & exclude[r]

    def test_non_finite_score_refused(self):
        e_u, e_i = embeddings_for_scores([1.0, np.nan])
        with pytest.raises(NumericError, match="non-finite"):
            top_k(e_u, e_i, 1)

    def test_bad_k(self):
        e_u, e_i = embeddings_for_scores([1.0])
        with pytest.raises(ConfigError):
            top_k(e_u, e_i, 0)


def result_from_order(order):
    return RankingResult(user=0, ordering=np.asarray(order, dtype=np.int64))


class TestMetrics:
    def test_recall_fraction(self):
        res = result_from_order([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        # 5 positives, 2 inside top-3
        assert recall_at_k(res, {0, 2, 7, 8, 9}, 3) == pytest.approx(0.4)

    def test_recall_all_ranked_first(self):
        res = result_from_order([3, 4, 0, 1, 2])
        assert recall_at_k(res, {3, 4}, 2) == 1.0

    def test_precision_two_hits_k50(self):
        res = result_from_order(list(range(60)))
        assert precision_at_k(res, {0, 1}, 50) == pytest.approx(0.04)

    def test_precision_no_hits(self):
        res = result_from_order([0, 1, 2])
        assert precision_at_k(res, {99}, 3) == 0.0

    def test_ndcg_hit_at_rank_one(self):
        res = result_from_order([5, 1, 2])
        assert ndcg_at_k(res, {5}, 3) == 1.0

    def test_ndcg_hit_at_rank_two(self):
        res = result_from_order([1, 5, 2])
        assert ndcg_at_k(res, {5}, 3) == pytest.approx(1 / math.log2(3))

    def test_ndcg_no_hit(self):
        res = result_from_order([1, 2, 3])
        assert ndcg_at_k(res, {9}, 3) == 0.0

    def test_ndcg_bounds_and_perfection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            order = rng.permutation(n)
            k = int(rng.integers(1, n + 1))
            positives = set(int(x) for x in
                            rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            val = ndcg_at_k(result_from_order(order), positives, k)
            assert 0.0 <= val <= 1.0 + 1e-12
            prefix = min(k, len(positives))
            all_prefix_hit = all(int(order[r]) in positives for r in range(prefix))
            assert (val == pytest.approx(1.0)) == all_prefix_hit

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            order = rng.permutation(n)
            k = int(rng.integers(1, n + 1))
            positives = set(int(x) for x in
                            rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            res = result_from_order(order)
            want = brute_force_metrics(order, positives, k)
            got = (recall_at_k(res, positives, k), ndcg_at_k(res, positives, k),
                   precision_at_k(res, positives, k))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12

    def test_recall_precision_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            order = rng.permutation(n)
            k = int(rng.integers(1, n + 1))
            positives = set(int(x) for x in
                            rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            res = result_from_order(order)
            lhs = recall_at_k(res, positives, k) * len(positives)
            rhs = precision_at_k(res, positives, k) * k
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=20)
        for transform in (lambda s: 2 * s + 1, np.exp, lambda s: s ** 3):
            e_u, e_i = embeddings_for_scores(scores)
            base = rank_items(0, np.arange(20), e_u, e_i)
            e_u2, e_i2 = embeddings_for_scores(transform(scores))
            moved = rank_items(0, np.arange(20), e_u2, e_i2)
            np.testing.assert_array_equal(base.ordering, moved.ordering)


def trained_world(tmp_path, cold_fraction=0.0):
    from agrec.synth import hold_out_items
    from agrec.training import train

    world = planted_world(n_users=24, n_items=40, n_item_keywords=8,
                          n_aesthetic_keywords=4, seed=5)
    cold_ids = hold_out_items(world, cold_fraction) if cold_fraction else []
    bundle, split, cold = assemble_world(world, seed=2, cold_items=cold_ids)
    cfg = ModelConfig(dim=8, layers=2, learning_rate=8.0, l2_weight=1e-4, seed=1)
    result = train(split, bundle, cfg, epochs=15, batch_size=64,
                   patience=None, val_k=5)
    path = tmp_path / "model.agr"
    save_checkpoint(path, result.tables, bundle, cfg)
    return load_checkpoint(path), bundle, split, cold


class TestEvaluate:
    def test_perfect_ranker_scores_one(self):
        # hand-built embeddings that rank each user's positive first
        e_u = np.eye(3)
        e_i = np.vstack([np.eye(3), np.zeros((2, 3))])
        vals = []
        for u in range(3):
            res = rank_items(u, np.arange(5), e_u, e_i)
            vals.append((recall_at_k(res, {u}, 2), ndcg_at_k(res, {u}, 2)))
        assert all(v == (1.0, 1.0) for v in vals)

    def test_random_scores_recall_matches_expectation(self):
        # random-score model: E[recall@k] = k / n_candidates
        rng = np.random.default_rng(4)
        n, k, trials = 50, 10, 400
        hits = []
        for _ in range(trials):
            e_u = np.array([[1.0]])
            e_i = rng.normal(size=(n, 1))
            res = rank_items(0, np.arange(n), e_u, e_i)
            hits.append(recall_at_k(res, {int(rng.integers(n))}, k))
        assert np.mean(hits) == pytest.approx(k / n, abs=0.05)

    def test_standard_mode_end_to_end(self, tmp_path):
        checkpoint, bundle, split, _ = trained_world(tmp_path)
        report = evaluate(checkpoint, bundle, split, k=5)
        assert report.mode == "standard"
        assert report.users > 0
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.ndcg <= 1.0
        assert report.recall > 0.3  # planted signal is easy at this size

    def test_cold_mode_end_to_end(self, tmp_path):
        checkpoint, bundle, split, cold = trained_world(tmp_path, cold_fraction=0.2)
        report = evaluate(checkpoint, bundle, split, k=3, mode="cold_start",
                          cold=cold)
        assert report.mode == "cold_start"
        assert report.users > 0
        # 8 cold candidates, ~3 positives per user; random recall@3 ~ 0.375
        assert report.recall > 0.7
        assert report.precision > 0.7

    def test_vocab_hash_mismatch_refused(self, tmp_path):
        checkpoint, bundle, split, _ = trained_world(tmp_path)
        other = planted_world(n_users=24, n_items=39, n_item_keywords=8,
                              n_aesthetic_keywords=4, seed=5)
        bundle2, split2, _ = assemble_world(other, seed=2)
        with pytest.raises(IntegrityError):
            evaluate(checkpoint, bundle2, split2, k=5)

    def test_deterministic_reports(self, tmp_path):
        checkpoint, bundle, split, _ = trained_world(tmp_path)
        a = evaluate(checkpoint, bundle, split, k=5)
        b = evaluate(checkpoint, bundle, split, k=5)
        assert a.to_dict() == b.to_dict()

    def test_bad_k(self, tmp_path):
        checkpoint, bundle, split, _ = trained_world(tmp_path)
        with pytest.raises(ConfigError):
            evaluate(checkpoint, bundle, split, k=0)

    def test_users_without_test_positives_excluded(self):
        e_u = np.ones((2, 1))
        e_i = np.ones((3, 1))
        vals = mean_recall_at_k(e_u, e_i, {}, {}, 2)
        assert vals == 0.0

    def test_mean_recall_skips_user_without_candidates(self):
        e_u = np.ones((2, 1))
        e_i = np.array([[3.0], [2.0], [1.0]])
        # user 0 has seen every item; user 1 finds its positive at rank 2
        vals = mean_recall_at_k(e_u, e_i, {0: {1}, 1: {1}},
                                {0: {0, 1, 2}, 1: set()}, 2)
        assert vals == 1.0

    def test_user_who_has_seen_every_item_is_counted(self, tmp_path):
        checkpoint, bundle, split, _ = trained_world(tmp_path)
        base = evaluate(checkpoint, bundle, split, k=5)
        assert base.excluded_users == 0
        user = int(split.test[0][0])
        seen_all = dataclasses.replace(split, user_positives={
            **split.user_positives, user: set(range(len(bundle.vocab_i)))})
        report = evaluate(checkpoint, bundle, seen_all, k=5)
        assert report.excluded_users == 1
        assert report.users == base.users - 1
        assert report.to_dict()["excluded_users"] == 1

    def test_cold_item_without_known_keyword_is_counted(self, tmp_path):
        checkpoint, bundle, split, cold = trained_world(tmp_path, cold_fraction=0.2)
        base = evaluate(checkpoint, bundle, split, k=3, mode="cold_start",
                        cold=cold)
        assert (base.unscorable_cold_items, base.excluded_users) == (0, 0)
        unknown = dataclasses.replace(cold, keywords={
            **cold.keywords, cold.ids[0]: ["no-such-keyword"]})
        report = evaluate(checkpoint, bundle, split, k=3, mode="cold_start",
                          cold=unknown)
        assert report.unscorable_cold_items == 1
        assert report.to_dict()["unscorable_cold_items"] == 1
        # users whose only cold positive was that item can no longer be ranked
        only_first = {u for u, _ in cold.test_pairs} - {
            u for u, i in cold.test_pairs if i != cold.ids[0]}
        assert report.excluded_users == len(only_first)
        assert report.users + report.excluded_users == base.users
