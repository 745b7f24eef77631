"""The graph kernels against their oracles: clique search, the intersection
graph of a cover (with its order, strict order and nerve), and the graph of
non-orthogonal generators of a map with abelian domain."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cprank import (
    CPMap,
    Cover,
    FiniteDimAlgebra,
    ball_cover,
    cover_order,
    cover_strict_order,
    function_algebra,
    interval_grid,
    nerve,
    strict_order_abelian,
    tensor_strict_order_exact,
    torus_grid,
)
from cprank.cliques import _color_classes, _to_masks, max_clique
from cprank.covers import intersection_graph

from conftest import rand_unitary
from oracles import (
    cover_order_brute,
    cover_strict_order_brute,
    max_clique_brute,
    strict_order_abelian_brute,
)


def random_graph(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density, k=1)
    return upper | upper.T


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw):
    """A symmetric matrix on 0-12 vertices, self-loops allowed."""
    n = draw(st.integers(0, 12))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adj = np.array(bits, dtype=bool).reshape(n, n)
    return adj | adj.T


class TestMaxClique:
    def test_brute_force_agreement(self):
        rng = np.random.default_rng(71)
        for n in range(15):
            for density in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
                for _ in range(3):
                    adj = random_graph(rng, n, density)
                    if rng.random() < 0.5:
                        np.fill_diagonal(adj, True)
                    clique = max_clique(adj)
                    assert clique == sorted(clique)
                    assert all(adj[a, b] for a, b in combinations(clique, 2))
                    assert len(clique) == max_clique_brute(adj)

    def test_near_complete_graphs_against_brute_force(self):
        # few missing edges: long unit-propagation chains, many pruned vertices
        rng = np.random.default_rng(73)
        for n in range(17):
            for density in (0.97, 0.99):
                for _ in range(4):
                    adj = random_graph(rng, n, density)
                    clique = max_clique(adj)
                    assert all(adj[a, b] for a, b in combinations(clique, 2))
                    assert len(clique) == max_clique_brute(adj)

    def test_dense_graphs_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(74)
        for n in (25, 35, 45, 60):
            for density in (0.8, 0.9, 0.97):
                for _ in range(3):
                    adj = random_graph(rng, n, density)
                    clique = max_clique(adj)
                    assert all(adj[a, b] for a, b in combinations(clique, 2))
                    graph = nx.from_numpy_array(adj.astype(int))
                    expect, _ = nx.max_weight_clique(graph, weight=None)
                    assert len(clique) == len(expect)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_complements_of_regular_graphs_against_networkx(self, d):
        # the complement of a sparse d-regular graph: the colour classes pair
        # vertices along complement edges, which the class start order serves
        nx = pytest.importorskip("networkx")
        for n in (20, 31, 44, 60):
            n += n * d % 2
            sparse = nx.random_regular_graph(d, n, seed=1000 * d + n)
            adj = ~nx.to_numpy_array(sparse, dtype=bool)
            clique = max_clique(adj)
            assert all(adj[a, b] for a, b in combinations(clique, 2))
            expect, _ = nx.max_weight_clique(nx.complement(sparse), weight=None)
            assert len(clique) == len(expect)

    def test_beats_a_poor_greedy_dive(self):
        # the dive takes hub 4 (degree 7), then vertex 0, its only neighbour
        # in the K4 on 0-3; the leaves 5-10 are pairwise non-adjacent
        adj = np.zeros((11, 11), dtype=bool)
        for a, b in combinations(range(4), 2):
            adj[a, b] = adj[b, a] = True
        for leaf in (0, *range(5, 11)):
            adj[4, leaf] = adj[leaf, 4] = True
        assert max_clique(adj) == [0, 1, 2, 3]

    @PROPERTY
    @given(graphs())
    def test_drawn_graphs_against_brute_force(self, adj):
        clique = max_clique(adj)
        assert clique == sorted(clique)
        assert all(adj[a, b] for a, b in combinations(clique, 2))
        assert len(clique) == max_clique_brute(adj)

    @PROPERTY
    @given(graphs(), st.data())
    def test_self_loops_leave_the_clique_unchanged(self, adj, data):
        # self-loops are no edges, so they change neither the degree order
        # nor which maximum clique the search returns
        loops = data.draw(st.lists(st.booleans(), min_size=len(adj), max_size=len(adj)))
        bare, looped = adj.copy(), adj.copy()
        np.fill_diagonal(bare, False)
        np.fill_diagonal(looped, loops)
        assert max_clique(looped) == max_clique(bare)

    @PROPERTY
    @given(graphs(), st.data())
    def test_color_classes_partition_the_candidates_into_independent_sets(self, adj, data):
        n = len(adj)
        np.fill_diagonal(adj, False)
        masks = _to_masks(adj)
        cand = sum(1 << v for v in data.draw(st.sets(st.integers(0, max(n - 1, 0)))) if v < n)
        classes = _color_classes(cand, masks)
        assert all(classes) and sum(classes) == cand
        left = cand
        for cls in classes:
            assert cls & left == cls  # disjoint from the classes before it
            members = [v for v in range(n) if cls >> v & 1]
            assert not any(adj[a, b] for a, b in combinations(members, 2))
            # it starts at the vertex left with the most neighbours in cand, the lowest on ties
            left_vs = [v for v in range(n) if left >> v & 1]
            assert max(left_vs, key=lambda v: ((masks[v] & cand).bit_count(), -v)) in members
            left ^= cls

    def test_clique_of_1100_vertices(self):
        # one search frame per clique vertex, none of them a Python call frame
        assert max_clique(~np.eye(1100, dtype=bool)) == list(range(1100))

    def test_dense_torus_cover(self):
        # 100 balls of radius 3.5 spacings on the 10x10 torus: graph density
        # 0.95, clique number 41
        assert cover_strict_order(ball_cover(torus_grid(10, 10), 0.35)) == 40


# Members are a run of consecutive points plus a few scattered ones, drawn
# from 600 points, so two members can share more than 255 points.
POINTS = 600


@st.composite
def covers(draw):
    members = []
    for _ in range(draw(st.integers(0, 7))):
        lo = draw(st.integers(0, POINTS))
        hi = draw(st.integers(lo, POINTS))
        scattered = draw(st.frozensets(st.integers(0, POINTS - 1), max_size=4))
        members.append(frozenset(range(lo, hi)) | scattered)
    if any(len(a & b) > 255 for a, b in combinations(members, 2)):
        event("two members share more than 255 points")
    return Cover(members)


class TestCoverProperties:
    @PROPERTY
    @given(covers())
    def test_orders_match_oracles(self, cover):
        assert cover_order(cover) == cover_order_brute(cover)
        assert cover_strict_order(cover) == cover_strict_order_brute(cover)

    @PROPERTY
    @given(covers())
    def test_intersection_graph_edges(self, cover):
        adj = intersection_graph(cover)
        k = len(cover)
        assert adj.shape == (k, k)
        for i in range(k):
            for j in range(k):
                assert adj[i, j] == (i != j and bool(cover.members[i] & cover.members[j]))

    @PROPERTY
    @given(covers())
    def test_nerve_faces_are_subfamilies_with_a_common_point(self, cover):
        expect = set()
        for size in range(1, len(cover) + 1):
            for sub in combinations(range(len(cover)), size):
                if frozenset.intersection(*(cover.members[i] for i in sub)):
                    expect.add(frozenset(sub))
        assert nerve(cover).faces == expect


def scalar_codomain_map(rng, s):
    """C^s into functions on a grid, with sparse nonnegative values."""
    space = interval_grid(int(rng.integers(1, 10)))
    values = rng.uniform(0, 1, size=(s, space.npts)) * (rng.random((s, space.npts)) < 0.4)
    images = {
        (i, x): np.full((1, 1, 1, 1), values[i, x], complex)
        for i in range(s)
        for x in range(space.npts)
        if values[i, x]
    }
    return CPMap(FiniteDimAlgebra([1] * s), function_algebra(space), images, codomain_space=space)


def matrix_codomain_map(rng, s):
    """C^s into M_n: generator i goes to a rotated diagonal projection, so two
    images are orthogonal exactly when their diagonal supports are disjoint."""
    n = int(rng.integers(2, 5))
    u = rand_unitary(rng, n)
    images = {}
    for i in range(s):
        diag = (rng.random(n) < 0.4).astype(complex)
        if diag.any():
            images[(i, 0)] = ((u * diag) @ u.conj().T).reshape(1, 1, n, n)
    return CPMap(FiniteDimAlgebra([1] * s), FiniteDimAlgebra([n]), images)


class TestGeneratorGraph:
    def test_tensored_order_matches_abelian_order(self):
        rng = np.random.default_rng(72)
        for make in (scalar_codomain_map, matrix_codomain_map):
            for _ in range(40):
                phi = make(rng, int(rng.integers(1, 8)))
                order, witness = tensor_strict_order_exact(phi, 2)
                assert order == strict_order_abelian(phi) == strict_order_abelian_brute(phi)
                assert len(witness) == order + 1
