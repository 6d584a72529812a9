import json
import pathlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrec.errors import (AgrecError, ConfigError, DataError, IntegrityError,
                          NumericError)
from agrec.graphs import (BipartiteGraph, GraphBundle, Vocabulary,
                          build_item_attribute_graph, build_user_graph)
from agrec.evaluation import top_k
from agrec.kernels import GatherPlan, gather_rows
from agrec.model import (ModelConfig, cold_item_embedding, final_embeddings,
                         forward, init_tables, load_checkpoint,
                         save_checkpoint)
from agrec.pipeline import _cold_edges
from helpers import (backward_from_final, dense_forward, dense_propagation_matrix,
                     dense_union_matrix, random_bundle, random_tables,
                     reference_cold_item_embedding, snapshot, split_classes,
                     tear_nth_write)

CLASSES = ("users", "items", "item_attrs", "aesthetics")


def toy_bundle():
    """Two users, two items, two attrs, one aesthetic keyword."""
    g_iia, vocab_i, vocab_ia = build_item_attribute_graph(
        [("i1", "denim"), ("i1", "blue"), ("i2", "blue")])
    g_ui, g_uiaa, vocab_u, vocab_iaa = build_user_graph(
        [("u1", "i1"), ("u2", "i1"), ("u2", "i2")],
        [("i1", "minimal")], vocab_i)
    return GraphBundle(g_iia, g_ui, g_uiaa, vocab_u, vocab_i, vocab_ia, vocab_iaa)


class TestModelConfig:
    def test_defaults_validate(self):
        ModelConfig().validate()

    def test_uniform_alpha(self):
        np.testing.assert_allclose(ModelConfig(layers=3).alpha(), [0.25] * 4)

    @pytest.mark.parametrize("kwargs", [
        dict(dim=0),
        dict(layers=-1),
        dict(layers=2, layer_weights=(0.5, 0.5)),       # needs K+1 weights
        dict(layers=1, layer_weights=(0.9, 0.2)),       # must sum to 1
        dict(layers=1, layer_weights=(1.5, -0.5)),      # non-negative
        dict(l2_weight=-1e-4),
        dict(learning_rate=-1.0),
        dict(n_negatives=0),
        dict(init_scale=0.0),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(l2_weight=float("nan")),
        dict(init_scale=float("inf")),
        dict(layers=1, layer_weights=(float("nan"), 1.0)),
        dict(seed=-1),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs).validate()


def layer_one(counts, iia=(), ui=(), uiaa=(), **given):
    """M applied once to the stacked layer-0 table of a hand-built bundle,
    by class name; `counts` are the user, item, item-attribute and aesthetic
    vertex counts, and the rows of the table not given are zero. This is
    every row of x_1 at K >= 2 (at K = 1 forward keeps only the scored
    rows)."""
    n_u, n_i, n_ia, n_iaa = counts
    vocabs = [Vocabulary.from_ids(f"{prefix}{j}" for j in range(n))
              for prefix, n in zip("uias", counts)]
    bundle = GraphBundle(BipartiteGraph(n_i, n_ia, list(iia)),
                         BipartiteGraph(n_u, n_i, list(ui)),
                         BipartiteGraph(n_u, n_iaa, list(uiaa)), *vocabs)
    dim = next(iter(given.values())).shape[1]
    tables = np.concatenate([given.get(name, np.zeros((n, dim)))
                             for name, n in zip(CLASSES, counts)])
    op = bundle.operator
    return dict(zip(CLASSES, op.split(gather_rows(op.forward, tables))))


class TestPropagation:
    def test_item_with_two_unit_attributes(self):
        # item i has attrs a1, a2; deg(i)=2, deg(a1)=deg(a2)=1
        e_ia = np.array([[1.0, 0.0], [0.0, 2.0]])
        got = layer_one((0, 1, 2, 0), iia=[(0, 0), (0, 1)], item_attrs=e_ia)
        np.testing.assert_allclose(got["items"],
                                   (e_ia[0] + e_ia[1])[None, :] / np.sqrt(2))

    def test_single_attribute_degree_four(self):
        # four items share attr a; each item has only that attr
        e_ia = np.array([[2.0, -4.0]])
        got = layer_one((0, 4, 1, 0), iia=[(j, 0) for j in range(4)],
                        item_attrs=e_ia)
        np.testing.assert_allclose(got["items"][0], e_ia[0] / 2.0)

    def test_item_without_attributes(self):
        got = layer_one((0, 2, 1, 0), iia=[(0, 0)], item_attrs=np.ones((1, 3)))
        assert (got["items"][1] == 0).all()

    def test_attribute_copies_single_unit_item(self):
        e_i = np.array([[3.0, 1.0]])
        got = layer_one((0, 1, 1, 0), iia=[(0, 0)], items=e_i)
        np.testing.assert_allclose(got["item_attrs"], e_i)

    def test_attribute_two_items_degree_two(self):
        # attr on two items, each of degree 2
        e_i = np.array([[1.0], [3.0]])
        got = layer_one((0, 2, 3, 0), iia=[(0, 0), (0, 1), (1, 0), (1, 2)],
                        items=e_i)
        np.testing.assert_allclose(got["item_attrs"][0], [(1.0 + 3.0) / 2.0])

    def test_unused_attribute_zero(self):
        got = layer_one((0, 1, 2, 0), iia=[(0, 0)], items=np.ones((1, 2)))
        assert (got["item_attrs"][1] == 0).all()

    def test_aesthetic_copies_single_user(self):
        e_u = np.array([[0.5, -0.5]])
        got = layer_one((1, 0, 0, 1), uiaa=[(0, 0)], users=e_u)
        np.testing.assert_allclose(got["aesthetics"], e_u)

    def test_aesthetic_two_users(self):
        # keyword degree 2, each user aesthetic-degree 1
        e_u = np.array([[1.0], [2.0]])
        got = layer_one((2, 0, 0, 1), uiaa=[(0, 0), (1, 0)], users=e_u)
        np.testing.assert_allclose(got["aesthetics"][0], [(1.0 + 2.0) / np.sqrt(2)])

    def test_user_single_item_all_unit(self):
        e_i = np.array([[4.0, 2.0]])
        got = layer_one((1, 1, 0, 0), ui=[(0, 0)], items=e_i)
        np.testing.assert_allclose(got["users"], e_i)

    def test_user_item_plus_aesthetic_unit(self):
        got = layer_one((1, 1, 0, 1), ui=[(0, 0)], uiaa=[(0, 0)],
                        items=np.array([[1.0, 0.0]]),
                        aesthetics=np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(got["users"], [[1.0, 1.0]])

    def test_user_without_edges(self):
        got = layer_one((2, 1, 0, 0), ui=[(0, 0)], items=np.ones((1, 2)))
        assert (got["users"][1] == 0).all()

    def test_per_relation_degrees_in_user_update(self):
        # user0: two items, one aesthetic; degrees differ per relation
        got = layer_one((1, 2, 0, 1), ui=[(0, 0), (0, 1)], uiaa=[(0, 0)],
                        items=np.ones((2, 1)), aesthetics=np.ones((1, 1)))
        want = 1.0 / np.sqrt(1 * 1) + 2 * (1.0 / np.sqrt(2 * 1))
        np.testing.assert_allclose(got["users"], [[want]])


def plan_neighbours(plan):
    """Each output row's neighbours in the order gather_rows sums them."""
    out = [[] for _ in range(plan.n_out)]
    for j in range(plan.slot_ptr.size - 1):
        lo, hi = plan.slot_ptr[j], plan.slot_ptr[j + 1]
        for row, nbr in zip(plan.light_rows[:hi - lo], plan.nbr[lo:hi]):
            out[row].append(int(nbr))
    for h, row in enumerate(plan.heavy_rows):
        lo, hi = plan.heavy_ptr[h], plan.heavy_ptr[h + 1]
        out[row] += [int(nbr) for nbr in plan.heavy_nbr[lo:hi]]
    return out


class TestOperator:
    def test_matches_dense_block_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = rng.integers(0, 7, size=4)
            bundle = random_bundle(rng, *counts, p=float(rng.uniform(0.1, 0.9)))
            op = bundle.operator
            dense = dense_union_matrix(bundle)
            eye = np.eye(op.size)
            np.testing.assert_array_equal(gather_rows(op.forward, eye), dense)
            np.testing.assert_array_equal(gather_rows(op.transpose, eye), dense.T)

    def test_sorted_by_row_then_col_and_cached(self):
        # every row of M and of Mᵀ sums its entries in ascending index
        bundle = random_bundle(np.random.default_rng(6), 5, 6, 4, 3, p=0.5)
        op = bundle.operator
        assert bundle.operator is op
        assert op.forward is op.forward and op.transpose is op.transpose
        dense = dense_union_matrix(bundle)
        for plan, matrix in ((op.forward, dense), (op.transpose, dense.T)):
            got = plan_neighbours(plan)
            assert got == [np.flatnonzero(row).tolist() for row in matrix]
        assert op.bounds == (0, 5, 11, 15, 18)

    def test_transpose_plan_built_on_first_use(self):
        def built(op):
            return {k for k, v in vars(op).items() if isinstance(v, GatherPlan)}

        for layers, after_forward in ((2, {"forward", "head"}), (1, {"head"})):
            bundle = random_bundle(np.random.default_rng(8), 4, 5, 3, 2, p=0.5)
            cfg = ModelConfig(dim=2, layers=layers, seed=0)
            tables = init_tables(bundle, cfg)
            final = final_embeddings(forward(tables, bundle, cfg))
            assert built(bundle.operator) == after_forward
            backward_from_final([0], [0], [1], final, tables, bundle, cfg)
            assert built(bundle.operator) == after_forward | {"transpose"}

    def test_head_plans_are_the_scored_rows(self):
        # head: M's user and item rows, each summing its entries in the
        # full plan's order
        bundle = random_bundle(np.random.default_rng(6), 5, 6, 4, 3, p=0.5)
        op = bundle.operator
        n_ui = op.bounds[2]
        head = dense_union_matrix(bundle)[:n_ui]
        assert op.head.n_out == n_ui
        got = plan_neighbours(op.head)
        assert got == [np.flatnonzero(row).tolist() for row in head]

    def test_adjoint_identity(self):
        # <M x, y> = <x, Mᵀ y>, with Mᵀ the plan backprop uses
        rng = np.random.default_rng(7)
        for _ in range(50):
            counts = rng.integers(1, 9, size=4)
            bundle = random_bundle(rng, *counts, p=float(rng.uniform(0.1, 0.9)))
            op = bundle.operator
            x = rng.normal(size=(op.size, 3))
            y = rng.normal(size=(op.size, 3))
            mx = gather_rows(op.forward, x)
            mty = gather_rows(op.transpose, y)
            assert abs(float((mx * y).sum()) - float((x * mty).sum())) < 1e-12


# 60 users or items at p = 0.8 give rows on both sides of the plans' hub degree
_COUNTS = st.sampled_from([1, 3, 8, 60])
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300, np.inf, -np.inf, np.nan])


def _sprinkle(rng, x, specials):
    flat = x.reshape(-1)
    if flat.size:
        flat[rng.integers(0, flat.size, size=len(specials))] = specials


def _same_bits_or_both_nan(a, b):
    """Every cell equal bitwise, except that a cell NaN in either array
    need only be NaN in both: a NaN's sign bit may differ between a head
    plan and its full plan (the PropagationOperator docstring)."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=60, deadline=None)
@given(counts=st.tuples(_COUNTS, _COUNTS, st.integers(0, 6), st.integers(0, 6)),
       p=st.sampled_from([0.2, 0.5, 0.8]), dim=st.sampled_from([1, 3, 7, 8, 9, 16, 17]),
       seed=st.integers(0, 2**32 - 1), specials=st.lists(_VALUES, max_size=8))
# two draws whose NaN cells differ in sign bit between the plans
@example(counts=(60, 3, 4, 6), p=0.8, dim=1, seed=1,
         specials=[0.0, 0.0, 0.0, 0.0, np.inf, -np.inf, np.nan, 0.0])
@example(counts=(60, 60, 1, 5), p=0.2, dim=1, seed=0,
         specials=[0.0, 0.0, np.inf, 0.0, -np.inf, 0.0, np.nan])
def test_head_plans_are_bitwise_full_plans(counts, p, dim, seed, specials):
    rng = np.random.default_rng(seed)
    op = random_bundle(rng, *counts, p=p).operator
    n_ui = op.bounds[2]
    x = rng.normal(size=(op.size, dim))
    _sprinkle(rng, x, specials)
    with np.errstate(invalid="ignore", over="ignore"):
        _same_bits_or_both_nan(gather_rows(op.head, x),
                               gather_rows(op.forward, x)[:n_ui])


def test_largest_drawn_world_has_hub_and_jagged_rows():
    # the largest world test_head_plans_are_bitwise_full_plans draws
    op = random_bundle(np.random.default_rng(0), 60, 60, 6, 6, p=0.8).operator
    for plan in (op.head, op.forward):
        assert plan.heavy_rows.size and plan.nbr.size


class TestForward:
    def test_k0_stack_is_initial_tables(self):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=3, layers=0, seed=1)
        tables = init_tables(bundle, cfg)
        stack = forward(tables, bundle, cfg)
        assert stack.depth == 0
        assert stack.layers[0] is tables

    def test_matches_dense_oracle_on_toy_graph(self):
        # every row forward returns; x_K holds the users and items only
        rng = np.random.default_rng(11)
        bundle = random_bundle(rng, 3, 3, 3, 2, p=0.6)
        cfg = ModelConfig(dim=2, layers=2, seed=0)
        tables = random_tables(rng, bundle, 2)
        stack = forward(tables, bundle, cfg)
        dense = dense_forward(tables, bundle, 2)
        op = bundle.operator
        assert [x.shape[0] for x in stack.layers] == [op.size, op.size, op.bounds[2]]
        for k in range(3):
            want = np.concatenate(dense[k])[:stack.layers[k].shape[0]]
            np.testing.assert_allclose(stack.layers[k], want, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        bundle = random_bundle(rng, 5, 6, 4, 3, p=0.5)
        cfg = ModelConfig(dim=3, layers=3, seed=0)
        tables = random_tables(rng, bundle, 3)
        base = forward(tables, bundle, cfg)
        got = forward(7.0 * tables, bundle, cfg)
        for k in range(4):
            (got_u, got_i, _, _), (base_u, base_i, _, _) = got.split(k), base.split(k)
            np.testing.assert_allclose(got_u, 7.0 * base_u, rtol=1e-12)
            np.testing.assert_allclose(got_i, 7.0 * base_i, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        n_u, n_i, n_ia, n_iaa = 4, 5, 3, 2
        bundle = random_bundle(rng, n_u, n_i, n_ia, n_iaa, p=0.5)
        cfg = ModelConfig(dim=2, layers=2, seed=0)
        tables = random_tables(rng, bundle, 2)

        perm_i = rng.permutation(n_i)
        # relabel item vertices: edge (i, a) -> (perm_i[i], a) etc.
        g_iia = BipartiteGraph(n_i, n_ia, np.column_stack(
            (perm_i[bundle.g_iia.left], bundle.g_iia.right)))
        g_ui = BipartiteGraph(n_u, n_i, np.column_stack(
            (bundle.g_ui.left, perm_i[bundle.g_ui.right])))
        permuted = GraphBundle(g_iia, g_ui, bundle.g_uiaa, bundle.vocab_u,
                               bundle.vocab_i, bundle.vocab_ia, bundle.vocab_iaa)
        p_tables = tables.copy()
        split_classes(p_tables, bundle)[1][perm_i] = split_classes(tables, bundle)[1]

        base = forward(tables, bundle, cfg)
        got = forward(p_tables, permuted, cfg)
        for k in range(3):
            (got_u, got_i, _, _), (base_u, base_i, _, _) = got.split(k), base.split(k)
            np.testing.assert_allclose(got_i[perm_i], base_i, atol=1e-12)
            np.testing.assert_allclose(got_u, base_u, atol=1e-12)

    def test_adjointness_of_item_attribute_propagation(self):
        rng = np.random.default_rng(4)
        bundle = random_bundle(rng, 3, 6, 5, 2, p=0.5)
        fwd = dense_propagation_matrix(bundle.g_iia)
        # Eq (2)'s matrix is exactly the transpose of Eq (1)'s
        x = rng.normal(size=(bundle.g_iia.right_count, 3))
        y = rng.normal(size=(bundle.g_iia.left_count, 3))
        got = layer_one((3, 6, 5, 2), iia=zip(bundle.g_iia.left, bundle.g_iia.right),
                        items=y, item_attrs=x)
        np.testing.assert_allclose(got["items"], fwd @ x, atol=1e-12)
        np.testing.assert_allclose(got["item_attrs"], fwd.T @ y, atol=1e-12)

    def test_nonfinite_raises_named_error(self):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=2, layers=1, seed=0)
        tables = init_tables(bundle, cfg)
        split_classes(tables, bundle)[2][0, 0] = np.inf
        with pytest.raises(NumericError, match="item.*layer 1"):
            forward(tables, bundle, cfg)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_refuses_table_of_wrong_row_count(self, tmp_path, extra):
        # rows are vertices by position: a short or long table would shift them
        bundle = toy_bundle()
        cfg = ModelConfig(dim=2, layers=1, seed=0)
        tables = np.zeros((bundle.operator.size + extra, 2))
        with pytest.raises(IntegrityError, match="rows for"):
            forward(tables, bundle, cfg)
        with pytest.raises(IntegrityError, match="rows for"):
            save_checkpoint(tmp_path / "model.agr", tables, bundle, cfg)
        assert not (tmp_path / "model.agr").exists()


class TestFinalEmbeddings:
    def test_uniform_two_layer_mean(self):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=2, layers=1, layer_weights=(0.5, 0.5), seed=5)
        tables = init_tables(bundle, cfg)
        stack = forward(tables, bundle, cfg)
        e_u, e_i = final_embeddings(stack)
        (u0, i0, _, _), (u1, i1, _, _) = stack.split(0), stack.split(1)
        np.testing.assert_allclose(e_u, (u0 + u1) / 2)
        np.testing.assert_allclose(e_i, (i0 + i1) / 2)

    def test_degenerate_weights_return_initial(self):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=2, layers=2, layer_weights=(1.0, 0.0, 0.0), seed=5)
        tables = init_tables(bundle, cfg)
        stack = forward(tables, bundle, cfg)
        e_u, e_i = final_embeddings(stack)
        users, items, _, _ = split_classes(tables, bundle)
        np.testing.assert_array_equal(e_u, users)
        np.testing.assert_array_equal(e_i, items)

    def test_matches_dense_hand_computation(self):
        rng = np.random.default_rng(8)
        bundle = random_bundle(rng, 4, 4, 3, 2, p=0.6)
        cfg = ModelConfig(dim=2, layers=2, seed=0)
        tables = random_tables(rng, bundle, 2)
        stack = forward(tables, bundle, cfg)
        e_u, e_i = final_embeddings(stack)
        dense = dense_forward(tables, bundle, 2)
        want_u = sum(dense[k][0] for k in range(3)) / 3
        want_i = sum(dense[k][1] for k in range(3)) / 3
        np.testing.assert_allclose(e_u, want_u, atol=1e-12)
        np.testing.assert_allclose(e_i, want_i, atol=1e-12)


class TestScore:
    """A preference score is the inner product of final user and item
    embeddings; top_k is the one place that ranks by it."""

    @staticmethod
    def ranked(user_vec, item_vecs):
        return top_k(np.atleast_2d(user_vec), np.asarray(item_vecs), k=len(item_vecs))[0][0].tolist()

    def test_orthogonal_unit_vectors(self):
        # scores 0 and 1: the aligned item first
        assert self.ranked([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]) == [1, 0]

    def test_identical_unit_vector(self):
        v = np.array([0.6, 0.8])
        assert self.ranked(v, [[0.8, 0.6], v, [0.0, 1.0]]) == [1, 0, 2]

    def test_arithmetic(self):
        # scores 1, 0.8 and 1.2
        assert self.ranked([1.0, 2.0], [[3.0, -1.0], [0.0, 0.4], [1.0, 0.1]]) == [2, 0, 1]

    def test_bilinear(self):
        rng = np.random.default_rng(0)
        u, v, w = rng.normal(size=(3, 4))
        items = np.stack([v, w, v + w, -v])
        want = np.argsort(-(items @ u), kind="stable").tolist()
        assert self.ranked(u, items) == want
        assert self.ranked(2 * u, items) == want
        assert self.ranked(-u, items) == want[::-1]

    def test_ranking_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(1)
        e_u = rng.normal(size=(1, 6))
        e_i = rng.normal(size=(30, 6))
        base = self.ranked(e_u[0], e_i)
        assert base == np.argsort(-(e_i @ e_u[0])).tolist()
        assert self.ranked(3.7 * e_u[0], e_i) == base


def embed_cold(keyword_lists, bundle, stack):
    """cold_item_embedding over the edges the pipeline builds from
    `keyword_lists`, one list per cold item."""
    edges = _cold_edges({str(n): kws for n, kws in enumerate(keyword_lists)},
                        bundle.vocab_ia)
    return cold_item_embedding(edges, len(keyword_lists), bundle.g_iia, stack)


class TestColdItem:
    def test_single_known_keyword_unit_degree(self):
        g_iia, vocab_i, vocab_ia = build_item_attribute_graph([("i1", "a")])
        g_ui, g_uiaa, vocab_u, vocab_iaa = build_user_graph(
            [("u1", "i1")], [], vocab_i)
        bundle = GraphBundle(g_iia, g_ui, g_uiaa, vocab_u, vocab_i, vocab_ia, vocab_iaa)
        cfg = ModelConfig(dim=3, layers=2, seed=2)
        tables = init_tables(bundle, cfg)
        stack = forward(tables, bundle, cfg)
        alpha = cfg.alpha()
        (got,), scorable = embed_cold([["a"]], bundle, stack)
        want = alpha[1] * stack.split(0)[2][0] + alpha[2] * stack.split(1)[2][0]
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert scorable.tolist() == [True]

    def test_unknown_keywords_unscorable(self):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=2, layers=1, seed=0)
        stack = forward(init_tables(bundle, cfg), bundle, cfg)
        got, scorable = embed_cold([["never-seen"], ["blue"], []], bundle, stack)
        assert scorable.tolist() == [False, True, False]
        assert got.shape == (3, 2) and not got[[0, 2]].any() and got[1].any()

    def test_duplicate_keyword_set_matches_attribute_component(self):
        # a cold twin of item i1 reproduces i1's attribute-only component
        bundle = toy_bundle()
        cfg = ModelConfig(dim=4, layers=2, seed=9)
        tables = init_tables(bundle, cfg)
        stack = forward(tables, bundle, cfg)
        alpha = cfg.alpha()
        (twin,), _ = embed_cold([["denim", "blue"]], bundle, stack)
        i1 = bundle.vocab_i.index_of("i1")
        attribute_component = sum(alpha[k] * stack.split(k)[1][i1]
                                  for k in range(1, 3))
        cosine = (twin @ attribute_component
                  / np.linalg.norm(twin) / np.linalg.norm(attribute_component))
        assert cosine >= 0.99

    def test_duplicate_keywords_in_input_deduplicated(self):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=2, layers=1, seed=0)
        stack = forward(init_tables(bundle, cfg), bundle, cfg)
        (once, twice), _ = embed_cold([["blue"], ["blue", "blue"]], bundle, stack)
        np.testing.assert_array_equal(once, twice)

    def test_edges_keep_first_occurrences_of_known_keywords(self):
        vocab = Vocabulary.from_ids(["a", "b", "c"])
        edges = _cold_edges({"x": ["c", "zz", "a", "c", "a"], "y": ["zz"],
                             "z": ["b", "b"]}, vocab)
        assert edges.dtype == np.int64
        assert edges.tolist() == [[0, 2], [0, 0], [2, 1]]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_batched_matches_per_item_oracle(self, seed, layers):
        rng = np.random.default_rng(seed)
        bundle = random_bundle(rng, int(rng.integers(1, 8)), int(rng.integers(1, 10)),
                               int(rng.integers(1, 8)), int(rng.integers(1, 5)))
        # keywords without a trained edge have degree 0, which no pipeline builds
        known = [kw for j, kw in enumerate(bundle.vocab_ia.entries)
                 if bundle.g_iia.right_deg[j] > 0]
        pool = known + ["unknown-1", "unknown-2"]
        lists = [[pool[j] for j in rng.integers(0, len(pool), size=rng.integers(0, 6))]
                 for _ in range(int(rng.integers(1, 12)))]
        alpha = rng.random(layers + 1) * (rng.random(layers + 1) < 0.7)
        cfg = ModelConfig(dim=int(rng.integers(1, 6)), layers=layers,
                          layer_weights=tuple(alpha), seed=seed)
        stack = forward(random_tables(rng, bundle, cfg.dim), bundle, cfg)
        got, scorable = embed_cold(lists, bundle, stack)
        want = [reference_cold_item_embedding(kws, bundle.vocab_ia, bundle.g_iia,
                                              stack, alpha) for kws in lists]
        assert scorable.tolist() == [w is not None for w in want]
        assert int((~scorable).sum()) == sum(w is None for w in want)
        for row, w in zip(got, want):
            np.testing.assert_allclose(row, 0.0 if w is None else w, rtol=0, atol=1e-12)


def toy_checkpoint_bytes(tmp_path) -> bytes:
    bundle = toy_bundle()
    cfg = ModelConfig(dim=2, layers=1, seed=4)
    path = tmp_path / "toy.agr"
    save_checkpoint(path, init_tables(bundle, cfg), bundle, cfg)
    return path.read_bytes()


def rewrite_header(tmp_path, edit):
    """A copy of the toy checkpoint whose JSON header went through `edit`;
    the tables stay as they were."""
    blob = toy_checkpoint_bytes(tmp_path)
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + hlen])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    path = tmp_path / "edited.agr"
    path.write_bytes(b"AGR1" + struct.pack("<I", len(text)) + text
                     + blob[8 + hlen:])
    return path


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=3, layers=2, seed=4)
        tables = init_tables(bundle, cfg)
        path = tmp_path / "model.agr"
        save_checkpoint(path, tables, bundle, cfg, extra={"config": {"note": 1}})
        ckpt = load_checkpoint(path)
        assert ckpt.header["dim"] == 3
        assert ckpt.header["layers"] == 2
        assert ckpt.header["counts"]["users"] == len(bundle.vocab_u)
        assert ckpt.header["config"] == {"note": 1}
        # float32 round-trip: values equal after f32 cast
        np.testing.assert_array_equal(ckpt.tables,
                                      tables.astype(np.float32).astype(np.float64))

    # torn in the magic, the length prefix, the header and the table block
    @pytest.mark.parametrize("budget", [2, 6, 100, -20])
    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch,
                                                 budget):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=3, layers=1, seed=4)
        path = tmp_path / "model.agr"
        save_checkpoint(path, init_tables(bundle, cfg), bundle, cfg)
        before = snapshot(tmp_path)
        if budget < 0:
            budget += len(before["model.agr"])
        tear_nth_write(monkeypatch, budget=budget)
        other = init_tables(bundle, ModelConfig(dim=3, layers=1, seed=5))
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, other, bundle, cfg)
        assert snapshot(tmp_path) == before
        load_checkpoint(path)

    def test_magic_guard(self, tmp_path):
        path = tmp_path / "bad.agr"
        path.write_bytes(b"NOPE....")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=3, layers=1, seed=4)
        path = tmp_path / "model.agr"
        save_checkpoint(path, init_tables(bundle, cfg), bundle, cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_refused(self, tmp_path):
        blob = toy_checkpoint_bytes(tmp_path)
        path = tmp_path / "long.agr"
        path.write_bytes(blob + b"junk")
        with pytest.raises(DataError, match="4 bytes after the last table"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [2, 6, 12])
    def test_short_magic_prefix_or_header(self, tmp_path, cut):
        path = tmp_path / "short.agr"
        path.write_bytes(toy_checkpoint_bytes(tmp_path)[:cut])
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob, match", [
        (b"\xff\xfe{}", "header"),
        (b"{not json", "header"),
        (b"[1, 2]", "not a JSON object"),
    ])
    def test_unreadable_header(self, tmp_path, blob, match):
        path = tmp_path / "bad.agr"
        path.write_bytes(b"AGR1" + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(DataError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["dim", "counts", "alpha", "layers",
                                     "seed", "vocab_sha256", "table_sha256"])
    def test_header_key_missing(self, tmp_path, key):
        path = rewrite_header(tmp_path, lambda h: h.pop(key))
        with pytest.raises(DataError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(dim=-3),
        lambda h: h.update(dim=0),
        lambda h: h["counts"].update(items=-1),
        lambda h: h["counts"].update(users="2"),
        lambda h: h["counts"].pop("aesthetics"),
        lambda h: h.update(alpha=[0.5]),
        lambda h: h.update(layers="1"),
        lambda h: h.update(alpha=[2.0, -1.0] + [0.0] * (len(h["alpha"]) - 2)),
        lambda h: h.update(alpha=[float("nan")] + h["alpha"][1:]),
    ], ids=["negative-dim", "zero-dim", "negative-count", "string-count",
            "missing-count", "short-alpha", "string-layers", "negative-alpha",
            "nan-alpha"])
    def test_bad_header_values(self, tmp_path, edit):
        path = rewrite_header(tmp_path, edit)
        with pytest.raises(DataError, match="corrupt checkpoint"):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fuzzed_checkpoint_raises_only_package_errors(self, data):
        # and a file that loads holds the saved table block, byte for byte
        with tempfile.TemporaryDirectory() as tmp:
            saved = toy_checkpoint_bytes(pathlib.Path(tmp))
            table = saved[8 + struct.unpack("<I", saved[4:8])[0]:]
            blob = bytearray(saved)
            if data.draw(st.booleans(), label="table flip"):
                pos = data.draw(st.integers(len(saved) - len(table), len(saved) - 1))
                blob[pos] ^= data.draw(st.integers(1, 255))
            if data.draw(st.booleans(), label="cut"):
                blob = blob[:data.draw(st.integers(0, len(blob)))]
            for _ in range(data.draw(st.integers(0, 4), label="flips")):
                if blob:
                    pos = data.draw(st.integers(0, len(blob) - 1))
                    blob[pos] = data.draw(st.integers(0, 255))
            blob += data.draw(st.binary(max_size=8), label="tail")
            path = pathlib.Path(tmp) / "fuzz.agr"
            path.write_bytes(bytes(blob))
            try:
                loaded = load_checkpoint(path)
                loaded.config().validate()
            except AgrecError:
                return
            assert loaded.tables.astype("<f4").tobytes() == table

    def test_refuses_tables_not_finite_in_float32(self, tmp_path):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=2, layers=1, seed=4)
        tables = init_tables(bundle, cfg)
        split_classes(tables, bundle)[1][1, 0] = 1e39  # finite in float64, inf in float32
        path = tmp_path / "model.agr"
        with pytest.raises(NumericError, match="items"):
            save_checkpoint(path, tables, bundle, cfg)
        assert not path.exists()

    def test_layout_in_file(self, tmp_path):
        bundle = toy_bundle()
        cfg = ModelConfig(dim=2, layers=0, seed=4)
        tables = init_tables(bundle, cfg)
        path = tmp_path / "model.agr"
        save_checkpoint(path, tables, bundle, cfg)
        blob = path.read_bytes()
        assert blob[:4] == b"AGR1"
        hlen = int.from_bytes(blob[4:8], "little")
        body = blob[8 + hlen:]
        n_u = len(bundle.vocab_u)
        first = np.frombuffer(body[:n_u * 2 * 4], dtype="<f4").reshape(n_u, 2)
        np.testing.assert_array_equal(first, tables[:n_u].astype(np.float32))


def test_every_public_name_resolves():
    import agrec
    missing = [name for name in agrec.__all__ if not hasattr(agrec, name)]
    assert missing == []
