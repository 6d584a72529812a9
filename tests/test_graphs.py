import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrec.errors import GraphError, UnknownIdError
from agrec.graphs import (BipartiteGraph, Vocabulary, build_item_attribute_graph,
                          build_user_graph)
from helpers import (random_bipartite, reference_item_attribute_graph,
                     reference_user_graph)


def edge_list(g):
    return list(zip(g.left.tolist(), g.right.tolist()))


def assert_matches_reference(g, want):
    edges, deg_left, deg_right, coef = want
    assert edge_list(g) == edges
    assert g.edge_count == len(edges)
    assert g.left_deg.tolist() == deg_left
    assert g.right_deg.tolist() == deg_right
    assert g.coef.tobytes() == np.array(coef, dtype=np.float64).tobytes()


class TestVocabulary:
    def test_first_appearance_order(self):
        vocab = Vocabulary.from_ids(["b", "a", "b", "c"])
        assert vocab.entries == ["b", "a", "c"]
        assert [vocab.index_of(x) for x in ("b", "a", "c")] == [0, 1, 2]

    def test_bijective(self):
        vocab = Vocabulary.from_ids(f"x{j}" for j in range(100))
        for k, entry in enumerate(vocab.entries):
            assert vocab.index_of(entry) == k

    def test_unknown_id(self):
        with pytest.raises(UnknownIdError, match="nope"):
            Vocabulary().index_of("nope")

    @given(st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=30))
    def test_order_deterministic(self, ids):
        assert Vocabulary.from_ids(ids).entries == Vocabulary.from_ids(ids).entries


class TestNormCoefficient:
    """Each edge carries 1/sqrt(deg_left * deg_right)."""

    @staticmethod
    def complete(a, b):
        """The coefficients of the complete a x b bipartite graph."""
        return BipartiteGraph(a, b, [(i, j) for i in range(a) for j in range(b)]).coef

    def test_unit(self):
        assert self.complete(1, 1).tolist() == [1.0]

    def test_two_one(self):
        assert self.complete(1, 2) == pytest.approx([0.70710678] * 2, abs=1e-8)

    def test_four_nine(self):
        assert self.complete(9, 4) == pytest.approx([1 / 6] * 36, abs=1e-12)

    def test_isolated_vertex(self):
        # an isolated vertex has degree 0 and no edge, so no coefficient
        g = BipartiteGraph(3, 2, [(0, 0), (2, 0)])
        assert g.left_deg.tolist() == [1, 0, 1]
        assert g.right_deg.tolist() == [2, 0]
        assert np.isfinite(g.coef).all() and g.coef.size == 2

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_symmetric(self, a, b):
        assert self.complete(a, b).tobytes() == self.complete(b, a).tobytes()


class TestItemAttributeGraph:
    def test_basic_construction(self):
        g, items, attrs = build_item_attribute_graph(
            [("i1", "denim"), ("i1", "blue"), ("i2", "blue")])
        assert (g.left_count, g.right_count, g.edge_count) == (2, 2, 3)
        assert g.left_deg[items.index_of("i1")] == 2
        assert g.right_deg[attrs.index_of("blue")] == 2

    def test_duplicate_edges_collapse(self):
        g, _, _ = build_item_attribute_graph([("i1", "denim"), ("i1", "denim")])
        assert g.edge_count == 1

    def test_empty_input(self):
        with pytest.raises(GraphError, match="empty graph"):
            build_item_attribute_graph([])

    def test_blank_keyword_names_item(self):
        with pytest.raises(GraphError, match="i7"):
            build_item_attribute_graph([("i7", "  ")])

    def test_vocabulary_covers_exactly_inputs(self):
        g, items, attrs = build_item_attribute_graph(
            [("a", "x"), ("b", "y"), ("a", "y")])
        assert items.entries == ["a", "b"]
        assert attrs.entries == ["x", "y"]


class TestUserGraph:
    def test_binary_aesthetic_edges(self):
        _, items, _ = build_item_attribute_graph([("i1", "k"), ("i2", "k")])
        g_ui, g_uiaa, users, aes = build_user_graph(
            [("u1", "i1"), ("u1", "i2")],
            [("i1", "minimalist"), ("i2", "minimalist"), ("i2", "bright")],
            items)
        assert g_ui.edge_count == 2
        # u1 links to minimalist once despite two carrying items
        assert g_uiaa.edge_count == 2
        assert set(aes.entries) == {"minimalist", "bright"}

    def test_no_aesthetics_succeeds(self):
        _, items, _ = build_item_attribute_graph([("i1", "k")])
        _, g_uiaa, _, aes = build_user_graph([("u1", "i1")], [], items)
        assert g_uiaa.edge_count == 0
        assert len(aes) == 0

    def test_unknown_item_rejected(self):
        _, items, _ = build_item_attribute_graph([("i1", "k")])
        with pytest.raises(UnknownIdError, match="i999"):
            build_user_graph([("u1", "i999")], [], items)

    def test_blank_aesthetic_keyword_names_item(self):
        _, items, _ = build_item_attribute_graph([("i1", "k"), ("i2", "k")])
        # a blank keyword on an item outside the vocabulary is ignored
        build_user_graph([("u1", "i1")], [("i9", " "), ("i1", "x")], items)
        with pytest.raises(GraphError, match="i2"):
            build_user_graph([("u1", "i1")],
                             [("i1", "x"), ("i2", ""), ("i1", " ")], items)

    def test_interaction_dedup(self):
        _, items, _ = build_item_attribute_graph([("i1", "k")])
        g_ui, _, _, _ = build_user_graph([("u1", "i1"), ("u1", "i1")], [], items)
        assert g_ui.edge_count == 1

    def test_users_inherit_aesthetics_of_their_items(self):
        rng = np.random.default_rng(17)
        item_ids = [f"i{j}" for j in range(12)]
        _, items, _ = build_item_attribute_graph([(i, "k") for i in item_ids])
        aes = [(i, f"aes{rng.integers(3)}") for i in item_ids if rng.random() < 0.5]
        inter = [(f"u{rng.integers(5)}", i) for i in item_ids for _ in range(2)]
        g_ui, g_uiaa, users, _ = build_user_graph(inter, aes, items)
        with_aes = {items.index_of(i) for i, _ in aes}
        for u in range(g_ui.left_count):
            touches_aes_item = any(int(i) in with_aes for i in g_ui.right[g_ui.left == u])
            if touches_aes_item:
                assert g_uiaa.left_deg[u] >= 1


class TestBipartiteInvariants:
    def test_edge_symmetry_full_scan(self):
        # every input pair is an edge, every edge an input pair, and each
        # vertex's degree counts its edges on either side
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_left, n_right = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            pairs = [(a, b) for a in range(n_left) for b in range(n_right)
                     if rng.random() < 0.4]
            g = BipartiteGraph(n_left, n_right, pairs)
            assert set(edge_list(g)) == set(pairs)
            for i in range(n_left):
                assert g.left_deg[i] == sum(1 for a, _ in pairs if a == i)
            for j in range(n_right):
                assert g.right_deg[j] == sum(1 for _, b in pairs if b == j)

    def test_degree_sums_match_edge_count(self):
        rng = np.random.default_rng(6)
        g = random_bipartite(rng, 12, 9, 0.5)
        assert g.left_deg.sum() == g.right_deg.sum() == g.edge_count

    def test_adjacency_strictly_increasing(self):
        rng = np.random.default_rng(7)
        g = random_bipartite(rng, 10, 10, 0.5)
        keys = g.left * g.right_count + g.right
        assert (np.diff(keys) > 0).all()

    def test_coefficients_match_norm_coefficient(self):
        g, items, attrs = build_item_attribute_graph(
            [("i1", "a"), ("i1", "b"), ("i2", "b")])
        for pos, (i, j) in enumerate(edge_list(g)):
            assert g.coef[pos] == pytest.approx(
                1.0 / math.sqrt(g.left_deg[i] * g.right_deg[j]))

    def test_out_of_range_edge(self):
        with pytest.raises(GraphError):
            BipartiteGraph(2, 2, [(2, 0)])
        with pytest.raises(GraphError):
            BipartiteGraph(2, 2, [(0, -1)])

    def test_any_pair_order_builds_the_same_graph(self):
        pairs = [(2, 1), (0, 3), (2, 1), (1, 0), (0, 0)]
        want = BipartiteGraph(3, 4, pairs)
        for again in (BipartiteGraph(3, 4, pairs[::-1]),
                      BipartiteGraph(3, 4, np.array(pairs))):
            for name in ("left", "right", "coef", "left_deg", "right_deg"):
                assert getattr(again, name).tobytes() == getattr(want, name).tobytes()

    def test_empty_graph(self):
        g = BipartiteGraph(3, 0, [])
        assert g.edge_count == 0 and g.coef.dtype == np.float64
        assert g.left_deg.tolist() == [0, 0, 0]


def id_pairs(g, left_vocab, right_vocab):
    return [(left_vocab.entries[i], right_vocab.entries[j]) for i, j in edge_list(g)]


class TestEdgeDump:
    """A graph rebuilt from the ID pairs its edge arrays name."""

    def test_round_trip_rebuild(self):
        pairs = [("i1", "denim"), ("i1", "blue"), ("i2", "blue"), ("i3", "red")]
        g, items, attrs = build_item_attribute_graph(pairs)
        rebuilt, items2, attrs2 = build_item_attribute_graph(id_pairs(g, items, attrs))
        assert items2.entries == items.entries
        assert attrs2.entries == attrs.entries
        assert edge_list(rebuilt) == edge_list(g)
        assert rebuilt.coef.tobytes() == g.coef.tobytes()


@settings(max_examples=30)
@given(st.lists(
    st.tuples(st.sampled_from(["i1", "i2", "i3", "i4"]),
              st.sampled_from(["a", "b", "c"])),
    min_size=1, max_size=30))
def test_rebuild_from_edges_is_identical(pairs):
    def id_adjacency(graph, items, attrs):
        out = {}
        for i, a in id_pairs(graph, items, attrs):
            out.setdefault(i, []).append(a)
        return {i: sorted(kws) for i, kws in out.items()}

    g, items, attrs = build_item_attribute_graph(pairs)
    again, items2, attrs2 = build_item_attribute_graph(id_pairs(g, items, attrs))
    assert id_adjacency(again, items2, attrs2) == id_adjacency(g, items, attrs)
    # a second normalization pass is a fixed point, indices included
    third, items3, attrs3 = build_item_attribute_graph(id_pairs(again, items2, attrs2))
    assert items3.entries == items2.entries
    assert attrs3.entries == attrs2.entries
    assert edge_list(third) == edge_list(again)


ITEM_IDS = st.sampled_from([f"i{j}" for j in range(6)])
KEYWORDS = st.sampled_from(["a", "b", "c", "dd", "e"])


@settings(max_examples=150, deadline=None)
@given(item_pairs=st.lists(st.tuples(ITEM_IDS, KEYWORDS), min_size=1, max_size=25),
       interactions=st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2", "u3"]),
                                       st.integers(0, 5)), max_size=30),
       aesthetics=st.lists(st.tuples(st.sampled_from([f"i{j}" for j in range(8)]),
                                     KEYWORDS), max_size=20))
def test_builders_match_reference(item_pairs, interactions, aesthetics):
    # duplicate pairs, aesthetics of unknown items (i6, i7), items without
    # aesthetics and an empty aesthetic list are all drawn
    g_iia, vocab_i, vocab_ia = build_item_attribute_graph(item_pairs)
    want_items, want_kws, want_iia = reference_item_attribute_graph(item_pairs)
    assert vocab_i.entries == want_items
    assert vocab_ia.entries == want_kws
    assert_matches_reference(g_iia, want_iia)

    inter = [(u, want_items[k % len(want_items)]) for u, k in interactions]
    g_ui, g_uiaa, vocab_u, vocab_iaa = build_user_graph(inter, aesthetics, vocab_i)
    want_users, want_aes, want_ui, want_uiaa = reference_user_graph(
        inter, aesthetics, want_items)
    assert vocab_u.entries == want_users
    assert vocab_iaa.entries == want_aes
    assert_matches_reference(g_ui, want_ui)
    assert_matches_reference(g_uiaa, want_uiaa)
    assert (g_uiaa.left_count, g_uiaa.right_count) == (len(want_users), len(want_aes))
