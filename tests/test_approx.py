"""Builder, verification, combination, and cover extraction."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cprank.approx
import oracles
from cprank import (
    CPApproximation,
    CPMap,
    Cover,
    FiniteDimAlgebra,
    FiniteMetricSpace,
    StepFailure,
    build_cp_approx,
    circle_grid,
    cover_order,
    cover_strict_order,
    direct_sum_approx,
    estimate_cpr_commutative,
    extract_cover,
    extraction_targets,
    function_algebra,
    interval_grid,
    member_diameter,
    nerve,
    orthogonalize_family,
    refines,
    strict_order_abelian,
    tensor_approx,
    torus_grid,
    verify_cp_approx,
)
from cprank.approx import ExtractionConstants, _real, _values_of
from cprank.cpmaps import tensor_strict_order_exact

from conftest import interval_chain_cover, matrix_path_approximation, three_arcs_cover, with_scaled_psi_image
from oracles import (
    compose_values_per_function,
    error_on_per_function,
    extract_cover_per_class,
    values_of_per_block,
)


class TestBuilder:
    def test_interval_coordinate(self):
        sp = interval_grid(101)
        xs = sp.coords[:, 0]
        approx = build_cp_approx(sp, [xs], eps=0.3)
        assert max(approx.report.errors) <= 0.3
        assert approx.report.phi_strict_order <= 1
        rep = verify_cp_approx(approx, [xs], 0.3)
        assert rep.within and rep.psi_cp and rep.phi_cp
        assert rep.psi_contractive and rep.phi_contractive

    def test_constant_function_exact(self):
        sp = interval_grid(60)
        c = np.full(60, 0.37)
        approx = build_cp_approx(sp, [c], eps=0.05)
        assert approx.error_on(c) == 0.0

    def test_two_far_points(self):
        sp = FiniteMetricSpace(np.array([[0.0, 9.0], [9.0, 0.0]]))
        f = np.array([1.0, -1.0])
        approx = build_cp_approx(sp, [f], eps=0.01)
        assert approx.F.num_blocks == 2
        assert approx.error_on(f) == 0.0

    def test_exclusive_points_and_unit_rows(self):
        sp = circle_grid(80)
        f = np.cos(2 * np.pi * np.arange(80) / 80)
        approx = build_cp_approx(sp, [f], eps=0.2)
        w = approx.weights
        assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
        for l, x in enumerate(approx.evaluation_points):
            assert w[l, x] == pytest.approx(1.0)

    def test_strict_order_matches_support_cover(self):
        sp = interval_grid(101)
        xs = sp.coords[:, 0]
        approx = build_cp_approx(sp, [xs, np.sin(3 * xs)], eps=0.25)
        support = Cover(
            [frozenset(np.flatnonzero(row > 0).tolist()) for row in approx.weights]
        )
        assert strict_order_abelian(approx.phi) == cover_strict_order(support)
        assert cover_strict_order(support) <= approx.report.base_order

    def test_builder_errors_below_oscillation(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(25, 110))
            sp = interval_grid(n) if rng.random() < 0.5 else circle_grid(n)
            xs = sp.coords[:, 0]
            funcs = [xs, np.cos(4 * xs), rng.uniform(0.5, 1.0) * np.sin(7 * xs)]
            eps = float(rng.uniform(0.1, 0.5))
            approx = build_cp_approx(sp, funcs, eps=eps)
            for f in funcs:
                assert approx.error_on(f) <= eps
            assert np.abs(approx.weights.sum(axis=0) - 1.0).max() <= 1e-12

    def test_linearity_bound_on_partition_sums(self):
        # the error on a sum of partition functions is at most the count times
        # the worst individual error
        sp = interval_grid(120)
        U = interval_chain_cover(sp)
        targets = extraction_targets(sp, U, 1)
        funcs = targets.target_functions()
        approx = build_cp_approx(sp, funcs, eps=targets.constants.eta / (2 * len(funcs)))
        rng = np.random.default_rng(73)
        worst = max(approx.error_on(f) for f in funcs)
        for _ in range(20):
            size = int(rng.integers(1, len(funcs) + 1))
            pick = rng.choice(len(funcs), size=size, replace=False)
            total = np.sum([funcs[i] for i in pick], axis=0)
            assert approx.error_on(total) <= size * worst + 1e-15

    def test_corrupted_phi_flagged(self):
        sp = interval_grid(40)
        xs = sp.coords[:, 0]
        approx = build_cp_approx(sp, [xs], eps=0.3)
        from cprank import CPMap

        bad_images = {k: 2.0 * v for k, v in approx.phi.images.items()}
        approx.phi = CPMap(
            approx.phi.domain,
            approx.phi.codomain,
            bad_images,
            approx.phi.codomain_space,
            approx.phi.codomain_matdim,
        )
        rep = verify_cp_approx(approx, [xs], 0.3)
        assert not rep.phi_contractive


class TestTensorAndSum:
    def test_tensor_r1_identity(self):
        sp = interval_grid(30)
        xs = sp.coords[:, 0]
        approx = build_cp_approx(sp, [xs], eps=0.3)
        assert tensor_approx(approx, 1) is approx

    def test_tensor_error_on_elementary_tensors(self):
        sp = interval_grid(60)
        xs = sp.coords[:, 0]
        approx = build_cp_approx(sp, [xs], eps=0.3)
        big = tensor_approx(approx, 2)
        rng = np.random.default_rng(72)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        values = np.einsum("p,jk->pjk", xs, b)
        base_err = approx.error_on(xs)
        assert big.error_on(values) <= base_err * np.linalg.norm(b, 2) + 1e-12

    def test_tensor_strict_order_preserved(self):
        sp = interval_grid(60)
        xs = sp.coords[:, 0]
        approx = build_cp_approx(sp, [xs], eps=0.3)
        base = strict_order_abelian(approx.phi)
        order, witness = tensor_strict_order_exact(approx.phi, 2)
        assert order == base
        witness.validate()

    def test_direct_sum_error_is_max(self):
        a_sp = interval_grid(40)
        b_sp = circle_grid(30)
        fa = a_sp.coords[:, 0]
        fb = np.sin(2 * np.pi * np.arange(30) / 30)
        a = build_cp_approx(a_sp, [fa], eps=0.2)
        b = build_cp_approx(b_sp, [fb], eps=0.35)
        total = direct_sum_approx(a, b)
        joint = np.concatenate([fa, fb])
        expect = max(a.error_on(fa), b.error_on(fb))
        assert total.error_on(joint) == pytest.approx(expect, abs=1e-12)

    def test_direct_sum_strict_order_is_max(self):
        a_sp = interval_grid(50)
        b_sp = interval_grid(35)
        a = build_cp_approx(a_sp, [a_sp.coords[:, 0]], eps=0.25)
        b = build_cp_approx(b_sp, [b_sp.coords[:, 0]], eps=0.4)
        total = direct_sum_approx(a, b)
        assert strict_order_abelian(total.phi) == max(
            strict_order_abelian(a.phi), strict_order_abelian(b.phi)
        )

    def test_sum_with_trivial_component(self):
        sp = interval_grid(30)
        xs = sp.coords[:, 0]
        a = build_cp_approx(sp, [xs], eps=0.3)
        one_pt = FiniteMetricSpace(np.zeros((1, 1)))
        b = build_cp_approx(one_pt, [np.array([0.5])], eps=0.1)
        total = direct_sum_approx(a, b)
        joint = np.concatenate([xs, [0.5]])
        assert total.error_on(joint) == pytest.approx(a.error_on(xs), abs=1e-12)


class TestExtractionConstants:
    def test_identities(self):
        for n in range(0, 5):
            c = ExtractionConstants.for_order(n)
            ident = c.verify_identities()
            assert ident["eta/C"] <= ident["1/(n+2)"] + 1e-12
            assert c.beta == pytest.approx(1.0 / (4 * (n + 1)))
            assert c.alpha > 1.0
            if n >= 1:
                assert c.alpha <= (n + 2) / n


class TestExtractCover:
    def run_roundtrip(self, space, U, n=1):
        targets = extraction_targets(space, U, n)
        funcs = targets.target_functions()
        eps_b = targets.constants.eta / (2 * len(funcs))
        approx = build_cp_approx(space, funcs, eps=eps_b)
        W, rep = extract_cover(space, U, n, approx, targets)
        assert W.is_covering(space.npts)
        assert rep.W_order <= n
        assert refines(W, U)[0]
        assert all(c.ok for c in rep.checks)
        assert all(c.ok for c in rep.eta_checks)
        return W, rep

    def test_interval_roundtrip(self):
        sp = interval_grid(201)
        self.run_roundtrip(sp, interval_chain_cover(sp))

    def test_circle_roundtrip(self):
        c = circle_grid(120)
        self.run_roundtrip(c, three_arcs_cover(120))

    def test_single_point_space(self):
        sp = FiniteMetricSpace(np.zeros((1, 1)))
        U = Cover([frozenset({0})])
        W, rep = self.run_roundtrip(sp, U, n=0)
        assert sorted(map(sorted, W.members)) == [[0]]

    def test_matrix_path_synthetic(self):
        space, U, approx = matrix_path_approximation()
        W, rep = extract_cover(space, U, 1, approx)
        assert W.is_covering(4)
        assert rep.W_order <= 1
        assert refines(W, U)[0]
        # the q projections genuinely overlapped and were repaired
        assert rep.orthogonalization_nontrivial
        assert any(v > 0 for v in rep.p_deviations.values())
        assert all(c.ok for c in rep.checks)

    def test_failure_names_the_step(self):
        space, U, approx = matrix_path_approximation()
        # breaking the approximation quality trips the eta check by name
        approx = with_scaled_psi_image(approx, 0.5)
        with pytest.raises(StepFailure) as err:
            extract_cover(space, U, 1, approx)
        assert err.value.step in ("eta", "(1)")

    def test_report_carries_constants(self):
        sp = interval_grid(81)
        xs = sp.coords[:, 0]
        U = interval_chain_cover(sp)
        targets = extraction_targets(sp, U, 1)
        funcs = targets.target_functions()
        approx = build_cp_approx(sp, funcs, eps=targets.constants.eta / (2 * len(funcs)))
        _, rep = extract_cover(sp, U, 1, approx, targets)
        assert rep.constants.C == pytest.approx(0.25)
        assert rep.constants.beta == pytest.approx(0.125)
        assert rep.constants.eta / rep.constants.C <= 1.0 / 3.0 + 1e-12
        assert rep.linearity_certificate < rep.constants.eta


class TestEstimate:
    def test_interval_dimension_one(self):
        sp = interval_grid(101)
        value, evidence = estimate_cpr_commutative(sp, [0.05, 0.1, 0.2], [sp.coords[:, 0]])
        assert value == 1
        for e in evidence:
            assert e.refined_strict_order <= e.base_order

    def test_discrete_space_zero(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        sp = FiniteMetricSpace.from_coords(pts)
        value, _ = estimate_cpr_commutative(sp, [0.5, 1.0])
        assert value == 0

    def test_torus_dimension_two(self):
        sp = torus_grid(10, 10)
        value, evidence = estimate_cpr_commutative(sp, [0.3, 0.35])
        assert value == 2

    def test_scales_validated(self):
        sp = interval_grid(10)
        with pytest.raises(ValueError, match="positive"):
            estimate_cpr_commutative(sp, [0.0])


# ---------------------------------------------------------------------------
# batched evaluation against the per-function oracle
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# exact zeros of both signs, extremes whose triple products stay finite, and
# plain values
ENTRIES = [0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, 1e-300, 1e100]


def sparse_complex(rng, shape):
    parts = [np.where(rng.random(shape) < 0.5, rng.choice(ENTRIES, shape), rng.normal(size=shape)) for _ in "ri"]
    out = parts[0] + 1j * parts[1]
    out.real, out.imag = parts  # 1j * x would turn -0.0 into 0.0
    return out


def random_images(rng, dom, cod):
    """Mostly-zero images of every block pair, in a shuffled dictionary order."""
    images = {}
    for i in rng.permutation(dom.num_blocks).tolist():
        for c in rng.permutation(cod.num_blocks).tolist():
            if rng.random() < 0.6:
                d, r = dom.block_sizes[i], cod.block_sizes[c]
                images[(i, c)] = sparse_complex(rng, (d, d, r, r))
    return images


@st.composite
def random_approximations(draw):
    """A triple over 1-8 points with matdim 1 or 2 and F of 1-4 blocks of
    sizes 1-3, psi and phi random (not c.p.), and a seeded generator."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = interval_grid(draw(st.integers(1, 8)))
    m = draw(st.sampled_from([1, 2]))
    F = FiniteDimAlgebra(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    fun = function_algebra(space, m)
    psi = CPMap(fun, F, random_images(rng, fun, F))
    phi = CPMap(F, fun, random_images(rng, F, fun), codomain_space=space, codomain_matdim=m)
    return CPApproximation(space, m, F, psi, phi), rng


class TestBatchedEvaluation:
    @PROPERTY
    @given(random_approximations(), st.integers(0, 5))
    def test_compose_and_errors_match_per_function(self, case, count):
        approx, rng = case
        m = approx.matdim
        funcs = sparse_complex(rng, (count, approx.space.npts) + ((m, m) if m > 1 else ()))
        got = approx.compose_values(funcs)
        errors = approx.errors_on(funcs)
        assert got.shape == funcs.shape and len(errors) == count
        for f, row, err in zip(funcs, got, errors):
            assert row.tobytes() == compose_values_per_function(approx, f).tobytes()
            want = error_on_per_function(approx, f)
            assert np.float64(err).tobytes() == np.float64(want).tobytes()
            assert np.float64(approx.error_on(f)).tobytes() == np.float64(want).tobytes()

    @PROPERTY
    @given(random_approximations(), st.integers(0, 6))
    def test_values_of_matches_per_block(self, case, count):
        approx, rng = case
        sizes = approx.F.block_sizes
        blocks = rng.integers(len(sizes), size=count).tolist()
        elems = [(b, sparse_complex(rng, (sizes[b], sizes[b]))) for b in blocks]
        got = _values_of(approx.phi, elems)
        assert len(got) == count
        for row, (b, mat) in zip(got, elems):
            assert row.tobytes() == values_of_per_block(approx.phi, b, mat).tobytes()


def _outcome(extract, space, U, n, approx, targets):
    """What an extraction returns or the StepFailure it raises, in comparable form."""
    try:
        W, rep = extract(space, U, n, approx, targets)
    except StepFailure as exc:
        return ("failure", exc.step, str(exc), repr(exc.data))
    return (W, rep.checks, rep.eta_checks, rep.p_deviations, rep.A_sets, rep.classes, rep.V_tilde)


def _break(approx, kind, j, x):
    """The approximation broken on block j, whose evaluation point is x, so
    that extraction fails at that block's class.

    ``eta``: block j evaluates at the point next to x, so psi(1) stays 1.
    ``(1)``: psi halved and phi doubled on block j; phi psi is unchanged but q
    vanishes.  ``(*)``: an extra block evaluating where j does carries -K at x
    and j carries +K, which phi psi cannot see; with p shrunk (see
    :func:`_shrinking`), phi(1_j - p) sees K.
    """
    psi, phi, F, space = approx.psi.images, approx.phi.images, approx.F, approx.space
    if kind == "eta":
        near = int(np.argsort(space.metric[x], kind="stable")[1])
        psi = {(near if b == j else p, b): v for (p, b), v in psi.items()}
    elif kind == "(1)":
        psi = {(p, b): v * 0.5 if b == j else v for (p, b), v in psi.items()}
        phi = {(b, p): v * 2.0 if b == j else v for (b, p), v in phi.items()}
    elif kind == "(*)":
        s, K = F.num_blocks, np.full((1, 1, 1, 1), 40.0 + 0j)
        F = FiniteDimAlgebra((1,) * (s + 1))
        psi = {**psi, **{(p, s): v for (p, b), v in psi.items() if b == j}}
        phi = {**phi, (j, x): phi[(j, x)] + K, (s, x): -K}
    fun = function_algebra(space)
    return CPApproximation(space, 1, F, CPMap(fun, F, psi), CPMap(F, fun, phi, space, 1))


def _shrinking(call, beta):
    """``orthogonalize_family`` with the projections of its ``call``-th call,
    counted from 1, shrunk by beta/2: within beta of q, but no projection.
    The deviations are those of the shrunk projections, as the real call
    measures them."""
    calls = []

    def ortho(qs, alpha, *args):
        fam = orthogonalize_family(qs, alpha, *args)
        calls.append(None)
        if len(calls) == call:
            fam.projections = [p * (1 - beta / 2) for p in fam.projections]
            fam.deviations = [(p - q).norm() for p, q in zip(fam.projections, qs)]
        return fam

    return ortho


def _wide_through(x, delta):
    """``member_diameter`` reporting delta for every set through the point x."""

    def diameter(space, member):
        return delta if x in member else member_diameter(space, member)

    return diameter


class TestBatchedExtraction:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["interval", "circle"]),
        st.integers(12, 40),
        st.integers(1, 2),
        st.sampled_from([None, "eta", "(1)", "(*)"]),
    )
    # "chain-m": one member U and balls of m grid steps, whose classes chain
    # through shared points
    @example("chain-2", 12, 1, None)
    @example("chain-4", 12, 1, None)
    @example("chain-2", 20, 1, None)
    @example("chain-4", 20, 1, None)
    @example("chain-2", 40, 1, None)
    @example("chain-4", 40, 1, None)
    # "diam": the class through block j's evaluation point reads delta wide
    @example("interval", 20, 1, "diam")
    @example("circle", 30, 2, "diam")
    def test_extract_cover_matches_per_class(self, kind, npts, n, broken):
        if kind == "interval":
            space = interval_grid(npts)
            U = interval_chain_cover(space)
        elif kind == "circle":
            space = circle_grid(npts)
            U = three_arcs_cover(npts)
        else:
            space = interval_grid(npts)
            U = Cover([frozenset(range(npts))])
        n = 2 if broken == "(*)" else n  # room in the strict order for the extra block
        targets = extraction_targets(space, U, n)
        funcs = targets.target_functions()
        if kind.startswith("chain"):
            m = int(kind.split("-")[1])
            approx = build_cp_approx(space, funcs, eps=1.0, base_radius=m / (npts - 1))
        else:
            approx = build_cp_approx(space, funcs, eps=targets.constants.eta / (2 * len(funcs)))
        j = approx.F.num_blocks // 2
        x = approx.evaluation_points[j]
        if broken in ("eta", "(1)", "(*)"):
            approx = _break(approx, broken, j, x)
        outcomes = []
        for extract, module in ((extract_cover, cprank.approx), (extract_cover_per_class, oracles)):
            ortho = _shrinking(j + 1, targets.constants.beta) if broken == "(*)" else orthogonalize_family
            diameter = _wide_through(x, targets.delta) if broken == "diam" else member_diameter
            with mock.patch.object(module, "orthogonalize_family", ortho):
                with mock.patch.object(module, "member_diameter", diameter):
                    outcomes.append(_outcome(extract, space, U, n, approx, targets))
        got, want = outcomes
        assert repr(got) == repr(want)
        if kind.startswith("chain") and npts != 20:
            assert got[:2] == ("failure", "eta")
        elif broken:
            assert got[:2] == ("failure", broken)
            assert "(0,0)" not in got[2] and "full index set" not in got[2]
            if broken == "diam":
                assert "chain_points" in got[3]
        else:
            assert got[1] and all(c.ok for c in got[1])

    @pytest.mark.parametrize("overlap", [1e-6, 1e-3, 0.05])
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_matrix_blocks_match_per_class(self, overlap, scale):
        space, U, approx = matrix_path_approximation(overlap)
        approx = with_scaled_psi_image(approx, scale)
        got = _outcome(extract_cover, space, U, 1, approx, None)
        want = _outcome(extract_cover_per_class, space, U, 1, approx, None)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("n, calls", [(1, 0), (0, 1)])
    def test_block_order_certifies_only_blocks_above_n_plus_one(self, n, calls):
        # the criterion-12 matrix path: two 2x2 blocks, so r - 1 <= n alone admits
        # each block at n = 1; at n = 0 block 0 needs, and fails, its certificate
        space, U, approx = matrix_path_approximation()
        real = cprank.approx.certify_order_zero
        with mock.patch.object(cprank.approx, "certify_order_zero", wraps=real) as certify:
            got = _outcome(extract_cover, space, U, n, approx, None)
        assert certify.call_count == calls
        want = _outcome(extract_cover_per_class, space, U, n, approx, None)
        assert repr(got) == repr(want)
        if n == 1:
            assert [c.context for c in got[1] if c.step == "block-order"] == ["block 0", "block 1"]
        else:
            assert got[:2] == ("failure", "block-order")

    def test_non_real_values_are_rejected(self):
        space, U, approx = matrix_path_approximation()
        vals = _values_of(approx.phi, [(0, np.eye(2)), (1, 1j * np.eye(2))])
        assert _real(vals[:1]).tobytes() == vals[:1].real.tobytes()
        with pytest.raises(AssertionError, match="expected real function values"):
            _real(vals[1])
