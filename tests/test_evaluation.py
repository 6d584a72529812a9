import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import agrec.evaluation
from agrec.errors import ConfigError, DataError, IntegrityError, NumericError
from agrec.graphs import BipartiteGraph, _in_sorted
from agrec.evaluation import (evaluate, hit_matrix, mean_recall_at_k,
                              ndcg_at_k, precision_at_k, rank_items,
                              recall_at_k, top_k)
from agrec.model import ModelConfig, save_checkpoint, load_checkpoint
from agrec.synth import assemble_world, planted_world
from helpers import brute_force_metrics, hits_of, keys_of


def seen_graph(n_users, n_items, seen):
    """The users x items graph of a {user: items} mapping."""
    return BipartiteGraph(n_users, n_items,
                          [(u, i) for u, items in seen.items() for i in items])


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
        tops = top_k(e_u, e_i, k, exclude=keys_of(dict(enumerate(exclude)),
                                                  e_i.shape[0]))
        width = min(k, e_i.shape[0])
        assert tops.shape == (e_u.shape[0], width) and tops.dtype == np.int64
        for r, top in enumerate(tops):
            cand = [i for i in range(e_i.shape[0]) if i not in exclude[r]]
            want = (rank_items(r, cand, e_u, e_i).ordering[:k] if cand
                    else np.empty(0, dtype=np.int64))
            np.testing.assert_array_equal(  # -1 after the last candidate
                top, np.pad(want, (0, width - want.size), constant_values=-1))

    def test_ties_at_kth_place_take_lowest_index(self):
        e_u, e_i = embeddings_for_scores([0.2, 0.5, 0.9, 0.5, 0.5])
        (top,) = top_k(e_u, e_i, 3)
        np.testing.assert_array_equal(top, [2, 1, 3])
        (top,) = top_k(e_u, e_i, 3, exclude=np.array([1]))
        np.testing.assert_array_equal(top, [2, 3, 4])

    def test_several_blocks_match_one_user_at_a_time(self):
        # 30000 items make two users per block, so five users take three;
        # row 0 excludes nothing, and each other row excludes its top 5
        rng = np.random.default_rng(6)
        e_u = rng.normal(size=(5, 3))
        e_i = np.round(rng.normal(size=(30000, 3)), 1)
        full = top_k(e_u, e_i, 20)
        exclude = [set()] + [set(rng.choice(30000, size=50, replace=False).tolist())
                             | set(full[r][:5].tolist()) for r in range(1, 5)]
        keys = keys_of(dict(enumerate(exclude)), 30000)
        assert sorted(set((keys // 60000).tolist())) == [0, 1, 2]  # every block
        tops = top_k(e_u, e_i, 20, exclude=keys)
        for r in range(5):
            (alone,) = top_k(e_u[r:r + 1], e_i, 20,
                             exclude=keys_of({0: exclude[r]}, 30000))
            np.testing.assert_array_equal(tops[r], alone)
            assert not set(tops[r].tolist()) & exclude[r]
        np.testing.assert_array_equal(tops[0], full[0])

    def test_non_finite_score_refused(self):
        e_u, e_i = embeddings_for_scores([1.0, np.nan])
        with pytest.raises(NumericError, match="non-finite"):
            top_k(e_u, e_i, 1)

    def test_bad_k(self):
        e_u, e_i = embeddings_for_scores([1.0])
        with pytest.raises(ConfigError):
            top_k(e_u, e_i, 0)


def recall_of(order, positives, k):
    return float(recall_at_k(*hits_of(order, positives, k))[0])


def precision_of(order, positives, k):
    return float(precision_at_k(hits_of(order, positives, k)[0], k)[0])


def ndcg_of(order, positives, k):
    return float(ndcg_at_k(*hits_of(order, positives, k))[0])


class TestMetrics:
    def test_recall_fraction(self):
        order = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        # 5 positives, 2 inside top-3
        assert recall_of(order, {0, 2, 7, 8, 9}, 3) == pytest.approx(0.4)

    def test_recall_all_ranked_first(self):
        assert recall_of([3, 4, 0, 1, 2], {3, 4}, 2) == 1.0

    def test_precision_two_hits_k50(self):
        assert precision_of(list(range(60)), {0, 1}, 50) == pytest.approx(0.04)

    def test_precision_no_hits(self):
        assert precision_of([0, 1, 2], {99}, 3) == 0.0

    def test_ndcg_hit_at_rank_one(self):
        assert ndcg_of([5, 1, 2], {5}, 3) == 1.0

    def test_ndcg_hit_at_rank_two(self):
        assert ndcg_of([1, 5, 2], {5}, 3) == pytest.approx(1 / math.log2(3))

    def test_ndcg_no_hit(self):
        assert ndcg_of([1, 2, 3], {9}, 3) == 0.0

    def test_ndcg_bounds_and_perfection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            order = rng.permutation(n)
            k = int(rng.integers(1, n + 1))
            positives = set(int(x) for x in
                            rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            val = ndcg_of(order, positives, k)
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
            want = brute_force_metrics(order, positives, k)
            got = (recall_of(order, positives, k), ndcg_of(order, positives, k),
                   precision_of(order, positives, k))
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
            lhs = recall_of(order, positives, k) * len(positives)
            rhs = precision_of(order, positives, k) * k
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_one_user_at_a_time(self, k, seed):
        # k up to 60: numpy sums 8 or more terms pairwise, not in sequence
        rng = np.random.default_rng(seed)
        hits = rng.random((int(rng.integers(0, 40)), k)) < rng.random()
        n_positives = hits.sum(axis=1) + rng.integers(0, 3, size=hits.shape[0])
        n_positives[n_positives == 0] = 1
        recall, ndcg = recall_at_k(hits, n_positives), ndcg_at_k(hits, n_positives)
        precision = precision_at_k(hits, k)
        assert recall.shape == ndcg.shape == precision.shape == (hits.shape[0],)
        for row, n, r, g, p in zip(hits, n_positives.tolist(), recall, ndcg, precision):
            ranks = np.flatnonzero(row) + 1
            ideal = np.arange(1, min(k, n) + 1)
            want = (float(np.sum(1.0 / np.log2(ranks + 1)))
                    / float(np.sum(1.0 / np.log2(ideal + 1))))
            assert (r, g, p) == (ranks.size / n, want, ranks.size / k)

    def test_no_positives_refused(self):
        hits = np.zeros((2, 3), dtype=bool)
        for metric in (recall_at_k, ndcg_at_k):
            with pytest.raises(DataError, match="without positives"):
                metric(hits, np.array([1, 0]))

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=20)
        for transform in (lambda s: 2 * s + 1, np.exp, lambda s: s ** 3):
            e_u, e_i = embeddings_for_scores(scores)
            base = rank_items(0, np.arange(20), e_u, e_i)
            e_u2, e_i2 = embeddings_for_scores(transform(scores))
            moved = rank_items(0, np.arange(20), e_u2, e_i2)
            np.testing.assert_array_equal(base.ordering, moved.ordering)


def hit_case(rng):
    """(tops, users, keys, n_items, positives): top_k-shaped rows of
    distinct items then -1 padding, for some of the users of a random
    {user: set of items}, and its sorted keys user * n_items + item."""
    n_users, n_items = int(rng.integers(1, 8)), int(rng.integers(1, 20))
    k = int(rng.integers(1, n_items + 3))
    positives = {u: set(rng.choice(n_items, size=int(rng.integers(0, n_items + 1)),
                                   replace=False).tolist())
                 for u in range(n_users)}
    keys = np.sort(np.array([u * n_items + i for u, s in positives.items()
                             for i in s], dtype=np.int64))
    users = rng.permutation(n_users)[:int(rng.integers(0, n_users + 1))]
    tops = np.full((users.size, min(k, n_items)), -1, dtype=np.int64)
    for top in tops:  # a top_k row: distinct items, then -1 padding
        n = int(rng.integers(0, top.size + 1))
        top[:n] = rng.permutation(n_items)[:n]
    return tops, users, keys, n_items, positives


class TestHitMatrix:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_set_membership(self, seed):
        tops, users, keys, n_items, positives = hit_case(np.random.default_rng(seed))
        hits = hit_matrix(tops, users, keys, n_items)
        assert hits.shape == tops.shape and hits.dtype == bool
        for row, user, top in zip(hits, users.tolist(), tops.tolist()):
            assert row.tolist() == [i >= 0 and i in positives[user] for i in top]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_blocks_equal_one_lookup(self, seed, block_scores):
        # blocks of a few cells, so most cases span several; one row per
        # block when a row is wider than the block
        tops, users, keys, n_items, _ = hit_case(np.random.default_rng(seed))
        with mock.patch.object(agrec.evaluation, "_BLOCK_SCORES", block_scores):
            hits = hit_matrix(tops, users, keys, n_items)
        want = (tops >= 0) & _in_sorted(keys, users[:, None] * n_items + tops)
        assert hits.shape == want.shape and hits.tolist() == want.tolist()


def trained_world(tmp_path, cold_fraction=0.0):
    from agrec.synth import hold_out_items
    from agrec.training import train

    world = planted_world(n_users=24, n_items=40, n_item_keywords=8,
                          n_aesthetic_keywords=4, seed=5)
    cold_ids = hold_out_items(world, cold_fraction) if cold_fraction else []
    bundle, split, cold = assemble_world(world, seed=2, cold_items=cold_ids)
    cfg = ModelConfig(dim=8, layers=2, learning_rate=8.0, l2_weight=1e-4, seed=1)
    result = train(split, bundle, cfg, epochs=15, batch_size=64,
                   patience=0, val_k=5)
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
            vals.append((recall_of(res.ordering, {u}, 2),
                         ndcg_of(res.ordering, {u}, 2)))
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
            hits.append(recall_of(res.ordering, {int(rng.integers(n))}, k))
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
        vals = mean_recall_at_k(e_u, e_i, np.empty((0, 2), np.int64),
                                seen_graph(2, 3, {}), 2)
        assert vals == 0.0

    def test_mean_recall_skips_user_without_candidates(self):
        e_u = np.ones((2, 1))
        e_i = np.array([[3.0], [2.0], [1.0]])
        # user 0 has seen every item; user 1 finds its positive at rank 2
        vals = mean_recall_at_k(e_u, e_i, np.array([[0, 1], [1, 1]]),
                                seen_graph(2, 3, {0: {0, 1, 2}}), 2)
        assert vals == 1.0

    def test_mean_recall_counts_a_repeated_pair_once(self):
        rng = np.random.default_rng(4)
        e_u, e_i = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        pairs = np.column_stack((rng.integers(0, 6, 30), rng.integers(0, 9, 30)))
        assert len(set(map(tuple, pairs.tolist()))) < len(pairs)  # repeats
        distinct = np.array(sorted(set(map(tuple, pairs.tolist()))))
        seen = seen_graph(6, 9, {0: {1, 2}, 3: {4}})
        for k in (1, 3, 9):
            assert mean_recall_at_k(e_u, e_i, pairs, seen, k) == \
                mean_recall_at_k(e_u, e_i, distinct, seen, k)

    def test_k_past_the_catalogue_ranks_like_k_equal_n_items(self):
        # user 0 has seen every item and is left out; the others' hit
        # matrix is n_items wide however large k is
        from agrec.evaluation import _rank_positives

        rng = np.random.default_rng(5)
        e_u, e_i = rng.normal(size=(4, 2)), rng.normal(size=(5, 2))
        pairs = np.array([[0, 1], [1, 0], [1, 3], [2, 4], [3, 2]])
        seen = seen_graph(4, 5, {0: set(range(5)), 2: {1}})
        assert top_k(e_u, e_i, 10_000).shape == (4, 5)
        hits, n_positives = _rank_positives(e_u, e_i, pairs, seen, 10_000)
        want, want_n = _rank_positives(e_u, e_i, pairs, seen, 5)
        assert hits.shape == (3, 5)
        np.testing.assert_array_equal(hits, want)
        np.testing.assert_array_equal(n_positives, want_n)
        assert (mean_recall_at_k(e_u, e_i, pairs, seen, 10_000)
                == mean_recall_at_k(e_u, e_i, pairs, seen, 5) == 1.0)

    def test_user_who_has_seen_every_item_is_counted(self, tmp_path):
        checkpoint, bundle, split, _ = trained_world(tmp_path)
        base = evaluate(checkpoint, bundle, split, k=5)
        assert base.excluded_users == 0
        user = int(split.test[0, 0])
        every_item = np.arange(len(bundle.vocab_i))
        row = np.column_stack((np.full_like(every_item, user), every_item))
        g = bundle.g_ui  # the training positives are its edges
        seen_all = dataclasses.replace(bundle, g_ui=BipartiteGraph(
            g.left_count, g.right_count,
            np.concatenate((np.column_stack((g.left, g.right)), row))))
        report = evaluate(checkpoint, seen_all, dataclasses.replace(
            split, train=np.concatenate((split.train, row))), k=5)
        assert report.excluded_users == 1
        assert report.users == base.users - 1
        assert report.to_dict()["excluded_users"] == 1

    def test_cold_item_without_known_keyword_is_counted(self, tmp_path):
        checkpoint, bundle, split, cold = trained_world(tmp_path, cold_fraction=0.2)
        base = evaluate(checkpoint, bundle, split, k=3, mode="cold_start",
                        cold=cold)
        assert (base.unscorable_cold_items, base.excluded_users) == (0, 0)
        # the first cold item keeps no keyword the model was trained on
        unknown = dataclasses.replace(cold, edges=cold.edges[cold.edges[:, 0] != 0])
        report = evaluate(checkpoint, bundle, split, k=3, mode="cold_start",
                          cold=unknown)
        assert report.unscorable_cold_items == 1
        assert report.to_dict()["unscorable_cold_items"] == 1
        # users whose only cold positive was that item can no longer be ranked
        only_first = {u for u, _ in cold.test_pairs.tolist()} - {
            u for u, p in cold.test_pairs.tolist() if p != 0}
        assert report.excluded_users == len(only_first)
        assert report.users + report.excluded_users == base.users
