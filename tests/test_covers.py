"""Covers, nerves, subdivisions, partitions of unity, and the refinement."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprank import (
    Cover,
    FiniteMetricSpace,
    SimplicialComplex,
    ball_cover,
    barycentric_subdivision,
    circle_grid,
    cover_order,
    cover_strict_order,
    interval_grid,
    member_diameters,
    nerve,
    net_ball_cover,
    partition_of_unity,
    refines,
    strict_refinement,
    torus_grid,
)
from cprank.covers import greedy_net, oscillation_scale

from conftest import interval_chain_cover, three_arcs_cover
from oracles import (
    cover_order_brute,
    cover_strict_order_brute,
    greedy_net_per_center,
    level_set_refinement,
    member_diameter,
    oscillation_scale_pairs,
    partition_of_unity_by_sets,
)


def random_cover(rng, npts, members):
    out = []
    for _ in range(members):
        size = int(rng.integers(1, max(2, npts // 2)))
        out.append(frozenset(rng.choice(npts, size=size, replace=False).tolist()))
    return Cover(out)


class TestOrders:
    def test_interval_chain(self):
        sp = interval_grid(101)
        chain = interval_chain_cover(sp)
        assert cover_order(chain) == 1
        assert cover_strict_order(chain) == 1

    def test_disjoint(self):
        c = Cover([frozenset({0, 1}), frozenset({2}), frozenset({3, 4})])
        assert cover_order(c) == 0
        assert cover_strict_order(c) == 0

    def test_three_arcs(self):
        arcs = three_arcs_cover(90)
        assert cover_order(arcs) == 1
        assert cover_strict_order(arcs) == 2

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(61)
        for _ in range(150):
            c = random_cover(rng, int(rng.integers(4, 20)), int(rng.integers(1, 9)))
            assert cover_order(c) == cover_order_brute(c)
            assert cover_strict_order(c) == cover_strict_order_brute(c)

    def test_overlap_of_256_points(self):
        # the two copies meet in 256 points, a count that wraps to 0 in a byte
        c = Cover([frozenset(range(256)), frozenset(range(256)), frozenset(range(300, 310))])
        assert cover_strict_order(c) == cover_strict_order_brute(c) == 1

    def test_brute_force_agreement_large_overlaps(self):
        # members are one or two of five 256-point blocks plus a private tail,
        # so two members share 0, 256 or 512 points
        rng = np.random.default_rng(63)
        blocks = [frozenset(range(256 * b, 256 * (b + 1))) for b in range(5)]
        overlaps = set()
        for _ in range(60):
            members = []
            for i in range(int(rng.integers(2, 8))):
                picked = rng.choice(5, size=int(rng.integers(1, 3)), replace=False)
                tail = frozenset(range(2000 + 10 * i, 2003 + 10 * i))
                members.append(frozenset().union(*(blocks[b] for b in picked)) | tail)
            overlaps |= {len(a & b) for a, b in combinations(members, 2)}
            c = Cover(members)
            assert cover_strict_order(c) == cover_strict_order_brute(c)
        assert overlaps == {0, 256, 512}

    def test_order_below_strict_order(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            c = random_cover(rng, 15, int(rng.integers(1, 8)))
            assert cover_order(c) <= cover_strict_order(c)


class TestNerve:
    def test_chain_is_path(self):
        sp = interval_grid(101)
        k = nerve(interval_chain_cover(sp))
        assert k.dimension() == 1
        assert frozenset({0, 1}) in k.faces and frozenset({1, 2}) in k.faces
        assert frozenset({0, 2}) not in k.faces

    def test_arcs_hollow_triangle(self):
        k = nerve(three_arcs_cover(90))
        assert k.dimension() == 1
        assert len([f for f in k.faces if len(f) == 2]) == 3

    def test_dimension_equals_order(self):
        rng = np.random.default_rng(63)
        for _ in range(60):
            c = random_cover(rng, 12, int(rng.integers(1, 7)))
            assert nerve(c).dimension() == cover_order(c)


class TestBarycentricSubdivision:
    def test_single_edge(self):
        k = SimplicialComplex({frozenset({0}), frozenset({1}), frozenset({0, 1})})
        sd = barycentric_subdivision(k)
        assert len(sd.vertices) == 3
        assert len([f for f in sd.faces if len(f) == 2]) == 2
        assert sd.dimension() == 1

    def test_two_simplex_counts(self):
        k = SimplicialComplex(
            {frozenset(s) for s in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]}
        )
        sd = barycentric_subdivision(k)
        sizes = {}
        for f in sd.faces:
            sizes[len(f)] = sizes.get(len(f), 0) + 1
        assert sizes[1] == 7 and sizes[2] == 12 and sizes[3] == 6

    def test_dimension_preserved_and_vertex_count(self):
        rng = np.random.default_rng(64)
        for _ in range(40):
            c = random_cover(rng, 10, int(rng.integers(1, 6)))
            k = nerve(c)
            sd = barycentric_subdivision(k)
            assert sd.dimension() == k.dimension()
            assert len(sd.vertices) == len(k.faces)
            # maximal chains use one face per dimension
            assert max(len(f) for f in sd.faces) == k.dimension() + 1


class TestPartitionOfUnity:
    def test_single_member(self):
        sp = interval_grid(11)
        pou = partition_of_unity(sp, Cover([frozenset(range(11))]))
        assert np.allclose(pou.weights, 1.0)

    def test_symmetric_overlap_midpoint(self):
        sp = interval_grid(11)
        xs = sp.coords[:, 0]
        c = Cover(
            [
                frozenset(np.flatnonzero(xs <= 0.6 + 1e-9).tolist()),
                frozenset(np.flatnonzero(xs >= 0.4 - 1e-9).tolist()),
            ]
        )
        pou = partition_of_unity(sp, c)
        mid = 5  # x = 0.5
        assert pou.weights[:, mid] == pytest.approx([0.5, 0.5])

    def test_normalization_and_support(self):
        rng = np.random.default_rng(65)
        sp = interval_grid(40)
        for _ in range(20):
            c = random_cover(rng, 40, int(rng.integers(2, 7)))
            seen = set()
            for m in c.members:
                seen |= m
            if len(seen) < 40:
                missing = frozenset(set(range(40)) - seen)
                c = Cover(list(c.members) + [missing])
            pou = partition_of_unity(sp, c)
            assert np.abs(pou.weights.sum(axis=0) - 1.0).max() <= 1e-12
            for idx, m in enumerate(c.members):
                outside = sorted(set(range(40)) - m)
                if outside:
                    assert np.abs(pou.weights[idx, outside]).max() == 0.0

    def test_uncovered_point_rejected(self):
        sp = interval_grid(5)
        with pytest.raises(ValueError, match="not covered"):
            partition_of_unity(sp, Cover([frozenset({0, 1})]))

    @pytest.mark.parametrize("point", [-1, 5])
    def test_point_outside_space_rejected(self, point):
        cover = Cover([frozenset(range(5)), frozenset({0, point})])
        with pytest.raises(ValueError, match="outside"):
            partition_of_unity(interval_grid(5), cover)


class TestStrictRefinement:
    def test_interval_chain(self):
        sp = interval_grid(101)
        chain = interval_chain_cover(sp)
        ref = strict_refinement(sp, chain)
        assert ref.is_covering(101)
        assert refines(ref, chain)[0]
        assert cover_strict_order(ref) <= cover_order(chain)

    def test_three_arcs_drop(self):
        c = circle_grid(90)
        arcs = three_arcs_cover(90)
        assert cover_strict_order(arcs) == 2
        ref = strict_refinement(c, arcs)
        assert cover_strict_order(ref) == 1

    def test_disjoint_cover_unchanged(self):
        sp = interval_grid(10)
        c = Cover([frozenset(range(0, 5)), frozenset(range(5, 10))])
        ref = strict_refinement(sp, c)
        assert sorted(map(sorted, ref.members)) == sorted(map(sorted, c.members))
        assert cover_strict_order(ref) == 0

    def test_random_grid_suite(self):
        rng = np.random.default_rng(66)
        for _ in range(30):
            kind = rng.integers(0, 3)
            if kind == 0:
                n = int(rng.integers(20, 120))
                sp, spacing = interval_grid(n), 1.0 / (n - 1)
            elif kind == 1:
                n = int(rng.integers(20, 120))
                sp, spacing = circle_grid(n), 1.0 / n
            else:
                nx, ny = int(rng.integers(4, 9)), int(rng.integers(4, 9))
                sp, spacing = torus_grid(nx, ny), 1.0 / max(nx, ny)
            radius = spacing * float(rng.uniform(1.2, 4.0))
            cov = ball_cover(sp, radius)
            ref = strict_refinement(sp, cov)
            assert ref.is_covering(sp.npts)
            assert refines(ref, cov)[0]
            assert cover_strict_order(ref) <= cover_order(cov)


class TestRefinesAndBalls:
    def test_identity_witness(self):
        c = Cover([frozenset({0, 1}), frozenset({2})])
        ok, witness = refines(c, c)
        assert ok and witness == [0, 1]

    def test_straddling_member(self):
        fine = Cover([frozenset({0, 2})])
        coarse = Cover([frozenset({0, 1}), frozenset({2, 3})])
        ok, witness = refines(fine, coarse)
        assert not ok and witness == [None]

    def test_first_containing_member_is_witness(self):
        fine = Cover([frozenset({1}), frozenset({3}), frozenset(), frozenset({0, 3})])
        coarse = Cover([frozenset({2, 3}), frozenset({0, 1}), frozenset({0, 1, 3})])
        ok, witness = refines(fine, coarse)
        assert ok and witness == [1, 0, 0, 2]

    def test_empty_fine_member(self):
        assert refines(Cover([frozenset()]), Cover([frozenset({4})])) == (True, [0])
        assert refines(Cover([frozenset()]), Cover([])) == (False, [None])
        assert refines(Cover([frozenset({7})]), Cover([frozenset({4})])) == (False, [None])

    def test_ball_cover_basics(self):
        sp = interval_grid(30)
        whole = ball_cover(sp, sp.diameter() + 1.0)
        assert len(whole.members) == 1
        tiny = ball_cover(sp, 1e-6)
        assert len(tiny.members) == 30
        assert all(len(m) == 1 for m in tiny.members)

    def test_ball_diameters(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            pts = rng.uniform(0, 1, size=(25, 2))
            sp = FiniteMetricSpace.from_coords(pts)
            r = float(rng.uniform(0.05, 0.5))
            cov = ball_cover(sp, r)
            assert cov.is_covering(25)
            diameters = member_diameters(sp, cov.members)
            assert diameters.tolist() == [member_diameter(sp, m) for m in cov.members]
            assert np.all(diameters < 2 * r)
        assert member_diameters(sp, [frozenset(), frozenset({3})]).tolist() == [0.0, 0.0]

    def test_radius_must_be_positive(self):
        sp = interval_grid(5)
        with pytest.raises(ValueError, match="radius"):
            ball_cover(sp, 0.0)


class TestSpaces:
    def test_metric_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            FiniteMetricSpace(np.array([[1.0]]))

    def test_triangle_warning(self):
        m = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        sp = FiniteMetricSpace(m)
        with pytest.warns(UserWarning, match="triangle"):
            sp.check_triangle()

    def test_grid_metrics(self):
        sp = circle_grid(8, circumference=8.0)
        assert sp.metric[0, 4] == pytest.approx(4.0)
        assert sp.metric[0, 7] == pytest.approx(1.0)
        t = torus_grid(4, 4)
        assert t.metric[0, 3] == pytest.approx(0.25)


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def metric_covers(draw):
    """A finite model of 1-9 points and a cover of it by 1-6 members.

    Distances sit on a few levels plus multiples of 5e-13, so weights of one
    point tie within the 1e-12 level-set tolerance, in chains longer than it,
    and distinct points can be at distance zero.  One member may be the whole
    space.
    """
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.choice([0.0, 1.0, 2.0], size=(n, n), p=[0.1, 0.8, 0.1])
    dist = np.triu(levels + 5e-13 * rng.integers(0, 10, size=(n, n)), 1)
    inside = rng.random((k, n)) < draw(st.sampled_from([0.3, 0.6, 0.9]))
    inside[rng.integers(0, k, size=n), np.arange(n)] = True  # every point in some member
    if draw(st.booleans()):
        inside[rng.integers(0, k)] = True
    return FiniteMetricSpace(dist + dist.T), Cover([frozenset(np.flatnonzero(r).tolist()) for r in inside])


@PROPERTY
@given(metric_covers())
def test_refinement_matches_level_set_oracle(case):
    space, cover = case
    try:
        want = partition_of_unity_by_sets(space, cover).weights
    except ValueError:  # a point at distance zero from every complement
        for kernel in (partition_of_unity, strict_refinement):
            with pytest.raises(ValueError, match="not covered"):
                kernel(space, cover)
        return
    assert partition_of_unity(space, cover).weights.tobytes() == want.tobytes()
    got, ref = strict_refinement(space, cover), level_set_refinement(want)
    assert got.members == ref.members
    assert got.labels == ref.labels


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_oscillation_scale_matches_pairs(n, k, seed, complex_rows):
    rng = np.random.default_rng(seed)
    dist = np.triu(rng.choice([0.0, 0.25, 1.0, 1.5], size=(n, n)), 1)
    space = FiniteMetricSpace(dist + dist.T)
    rows = rng.choice([0.0, 0.5, 1.0, -0.5], size=(k, n))  # differences hit the level exactly
    if complex_rows:
        rows = rows + 1j * rng.choice([0.0, 0.5], size=(k, n))
    level = float(rng.choice([0.5, 1.0, 2.0]))
    assert oscillation_scale(space, rows, level) == oscillation_scale_pairs(space, rows, level)


@PROPERTY
@given(
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from([0.0, -1.0, np.nan, np.inf, 1e-300, 0.25, 1.0]), st.floats(0, 2)),
)
def test_greedy_net_matches_per_center(n, seed, spacing):
    # distances tie with the spacings, and include zero, tiny and infinite ones
    rng = np.random.default_rng(seed)
    choices = [0.0, 1e-300, 0.25, 1.0, 1.5, np.inf, float(rng.uniform(0, 2))]
    dist = np.triu(rng.choice(choices, size=(n, n)), 1)
    space = FiniteMetricSpace(dist + dist.T)
    assert greedy_net(space, spacing) == greedy_net_per_center(space, spacing)
