"""Builder, verification, combination, and cover extraction."""

import numpy as np
import pytest

from cprank import (
    Cover,
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
    interval_grid,
    nerve,
    refines,
    strict_order_abelian,
    tensor_approx,
    torus_grid,
    verify_cp_approx,
)
from cprank.approx import ExtractionConstants
from cprank.cpmaps import tensor_strict_order_exact

from conftest import interval_chain_cover, matrix_path_approximation, three_arcs_cover


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
        approx.psi.images[(0, 0)] = approx.psi.images[(0, 0)] * 0.5
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
