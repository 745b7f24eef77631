"""Projection repair, orthogonalization, and the partial-isometry bounds."""

import numpy as np
import pytest

from cprank import (
    AlgebraElement,
    FamilyOrthogonalization,
    FiniteDimAlgebra,
    alpha_for,
    check_almost_unit,
    connect_projections,
    invertible_sum_witness,
    orthogonalization_schedule,
    orthogonalize_family,
    orthogonalize_pair,
    repair_almost_projection,
    trace_rank_bound,
    validate,
)
from cprank.projections import sum_smallest_eigenvalue

from conftest import rand_complex, rand_projection, rand_unitary, two_cluster_hermitian


def elem(mat):
    return AlgebraElement(FiniteDimAlgebra([mat.shape[0]]), [mat])


class TestRepair:
    def test_diagonal_example(self):
        h = elem(np.diag([0.1, 0.9]).astype(complex))
        p, c, moved = repair_almost_projection(h, 0.1)
        assert np.allclose(p.blocks[0], np.diag([0.0, 1.0]))
        assert np.allclose(c.blocks[0], np.diag([0.0, 0.9**-0.5]))
        assert moved.measured == (p - h).norm() == pytest.approx(0.1)
        assert moved.ok and moved.bound == 0.2

    def test_projection_fixed(self):
        h = elem(np.diag([0.0, 1.0, 1.0]).astype(complex))
        p, c, moved = repair_almost_projection(h, 0.2)
        assert moved.measured <= 1e-12
        assert (c - h).norm() <= 1e-12

    def test_conjugated(self):
        rng = np.random.default_rng(21)
        u = rand_unitary(rng, 2)
        h = elem(u @ np.diag([0.05, 0.95]) @ u.conj().T)
        p, _, _ = repair_almost_projection(h, 0.1)
        assert (p - elem(u @ np.diag([0.0, 1.0]) @ u.conj().T)).norm() <= 1e-10

    def test_repaired_outputs_validate(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            eps = float(rng.choice([0.05, 0.1, 0.2]))
            h = elem(two_cluster_hermitian(rng, n, eps))
            p, c, moved = repair_almost_projection(h, eps)
            assert validate(p, "projection", 1e-10).ok
            assert moved.ok and moved.measured == (p - h).norm() < 2 * eps
            assert (p - c).norm() < 4 * eps
            # c inverts h on the range of p, and everything commutes
            assert ((c @ h @ c) - p).norm() <= 1e-10
            assert ((p @ h) - (h @ p)).norm() <= 1e-10
            assert ((c @ h) - (h @ c)).norm() <= 1e-10

    def test_preconditions(self):
        h = elem(np.diag([0.5, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="not below eps"):
            repair_almost_projection(h, 0.2)  # ||h-h^2|| = 0.25 >= 0.2
        with pytest.raises(ValueError, match="eps"):
            repair_almost_projection(h, 0.3)


class TestOrthogonalizePair:
    def test_already_orthogonal(self):
        p = elem(np.diag([1.0, 0.0, 0.0]).astype(complex))
        q = elem(np.diag([0.0, 1.0, 0.0]).astype(complex))
        out = orthogonalize_pair(p, q, 0.0)
        assert (out - p).norm() <= 1e-10

    def test_two_by_two_closed_form(self):
        t = np.arcsin(0.02)
        v = np.array([np.sin(t), np.cos(t)])
        p = elem(np.diag([1.0, 0.0]).astype(complex))
        q = elem(np.outer(v, v).astype(complex))
        # ||pq|| equals the vector overlap sin t
        assert (p @ q).norm() == pytest.approx(0.02, abs=1e-12)
        out = orthogonalize_pair(p, q, 0.02)
        assert (out @ q).norm() <= 1e-12
        assert (out - p).norm() <= 14 * 0.02

    def test_zero_q(self):
        p = elem(np.diag([1.0, 0.0]).astype(complex))
        q = elem(np.zeros((2, 2), dtype=complex))
        out = orthogonalize_pair(p, q, 0.0)
        assert (out - p).norm() <= 1e-12

    def test_preconditions(self):
        p = elem(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="delta"):
            orthogonalize_pair(p, p, 0.1)  # delta >= 1/24
        q = elem(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="exceeds delta"):
            orthogonalize_pair(p, q, 0.01)


class TestAlphaFor:
    def test_k1_returns_cap(self):
        assert alpha_for(1, 0.3) == pytest.approx(1.05)
        assert alpha_for(1, 0.3, order=1) == pytest.approx(1.05)

    def test_k2_quadratic_root(self):
        alpha = alpha_for(2, 0.25)
        gamma = 0.25 / 14.0
        # the inversion carries a 1e-6 safety shrink on gamma
        assert alpha * (alpha - 1) == pytest.approx(gamma**2, rel=1e-5)
        assert alpha - 1 == pytest.approx(3.188e-4, rel=1e-3)

    def test_schedule_stays_below_beta(self):
        for K in range(1, 7):
            for beta in (0.05, 0.125, 0.25):
                alpha = alpha_for(K, beta)
                sched = orthogonalization_schedule(K, alpha)
                assert all(d <= beta + 1e-12 for d in sched)

    def test_monotone_in_k(self):
        # past K = 264 the power 15^(K-2) leaves the double range
        for K in range(1, 400):
            assert alpha_for(K + 1, 0.2) <= alpha_for(K, 0.2) + 1e-15
        assert alpha_for(400, 0.2) == 1.0

    def test_order_cap(self):
        assert alpha_for(1, 10.0, order=1) <= 1.05
        # for huge beta the quadratic root is capped by (n+2)/n and 1.05
        assert alpha_for(2, 100.0, order=40) == pytest.approx(42 / 40)


class TestOrthogonalizeFamily:
    def test_orthogonal_family_unchanged(self):
        sub = FiniteDimAlgebra([6])
        qs = [
            AlgebraElement(sub, [np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex)]),
            AlgebraElement(sub, [np.diag([0, 1.0, 1.0, 0, 0, 0]).astype(complex)]),
            AlgebraElement(sub, [np.diag([0, 0, 0, 1.0, 0, 0]).astype(complex)]),
        ]
        fam = orthogonalize_family(qs, alpha_for(3, 0.125))
        assert fam.unchanged
        for p, q in zip(fam.projections, qs):
            assert (p - q).norm() == 0.0

    def test_overlap_at_tolerance_scale_is_repaired(self):
        # the last two members overlap by 5e-10: the sum still has norm 1 within
        # tol, so only the pairwise test, which must reach the last pair, sees it
        sub = FiniteDimAlgebra([3])
        v = np.array([0.0, 5e-10, 1.0]) / np.linalg.norm([0.0, 5e-10, 1.0])
        qs = [AlgebraElement(sub, [np.outer(w, w).astype(complex)]) for w in (np.eye(3)[0], np.eye(3)[1], v)]
        assert FamilyOrthogonalization(qs, [], False).max_pairwise_product() == pytest.approx(5e-10)
        fam = orthogonalize_family(qs, alpha_for(3, 0.125))
        assert not fam.unchanged
        assert fam.max_pairwise_product() <= 1e-12

    def test_single_member(self):
        sub = FiniteDimAlgebra([3])
        q = AlgebraElement(sub, [np.diag([1.0, 0, 0]).astype(complex)])
        fam = orthogonalize_family([q], 1.01)
        assert fam.unchanged and len(fam.projections) == 1

    def test_small_angle_pair_in_m3(self):
        rng = np.random.default_rng(23)
        sub = FiniteDimAlgebra([3])
        alpha = 1.001
        t = 5e-4  # keeps ||q1 + q2|| <= alpha
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([np.sin(t), np.cos(t), 0.0])
        qs = [
            AlgebraElement(sub, [np.outer(v1, v1).astype(complex)]),
            AlgebraElement(sub, [np.outer(v2, v2).astype(complex)]),
        ]
        total = qs[0] + qs[1]
        assert total.norm() <= alpha
        fam = orthogonalize_family(qs, alpha)
        assert not fam.unchanged
        assert fam.max_pairwise_product() <= 1e-12
        sched = orthogonalization_schedule(2, alpha)
        for dev, bound in zip(fam.deviations, sched):
            assert dev <= bound + 1e-9

    def test_sum_norm_precondition(self):
        sub = FiniteDimAlgebra([2])
        q = AlgebraElement(sub, [np.diag([1.0, 0.0]).astype(complex)])
        with pytest.raises(ValueError, match="exceeds alpha"):
            orthogonalize_family([q, q], 1.5)


class TestConnectProjections:
    def test_equal_projections(self):
        p = elem(np.diag([1.0, 0.0]).astype(complex))
        s = connect_projections(p, p, 0.25)
        assert (s - p).norm() <= 1e-10

    def test_two_by_two_rotation(self):
        t = np.arcsin(0.1)
        u = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        p = elem(np.diag([1.0, 0.0]).astype(complex))
        q = elem(u @ np.diag([1.0, 0.0]) @ u.T)
        assert (p - q).norm() == pytest.approx(0.1, abs=1e-12)
        s = connect_projections(p, q, 0.11)
        assert ((s.adjoint() @ s) - p).norm() <= 1e-10
        assert ((s @ s.adjoint()) - q).norm() <= 1e-10
        assert (s - p).norm() < 4 * 0.11
        # the symmetries compose to the rotation by 2t, so the half rotation
        # carrying p onto q turns by t
        half = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        assert np.abs(s.blocks[0] - half @ np.diag([1.0, 0.0])).max() <= 1e-9

    def test_random_pairs(self):
        rng = np.random.default_rng(24)
        alg = FiniteDimAlgebra([4])
        import scipy.linalg as sla

        for _ in range(60):
            rank = int(rng.integers(1, 4))
            pm = rand_projection(rng, 4, rank)
            herm = rand_complex(rng, (4, 4))
            herm = (herm + herm.conj().T) / 2
            herm /= np.linalg.norm(herm, 2)
            w = sla.expm(1j * rng.uniform(0.01, 0.12) * herm)
            qm = w @ pm @ w.conj().T
            p, q = AlgebraElement(alg, [pm]), AlgebraElement(alg, [qm])
            eta = min(max((p - q).norm() * 1.05, 1e-6), 0.25)
            s = connect_projections(p, q, eta)
            assert ((s.adjoint() @ s) - p).norm() <= 1e-10
            assert ((s @ s.adjoint()) - q).norm() <= 1e-10
            assert (s - p).norm() < 4 * eta

    def test_preconditions(self):
        p = elem(np.diag([1.0, 0.0]).astype(complex))
        q = elem(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="eta"):
            connect_projections(p, q, 0.5)
        with pytest.raises(ValueError, match="not below eta"):
            connect_projections(p, q, 0.25)


class TestAlmostUnit:
    def test_trivial(self):
        one = AlgebraElement.identity(FiniteDimAlgebra([2]))
        c = check_almost_unit(one, one, one)
        assert (c.measured, c.bound, c.ok) == (0.0, 0.0, True)

    def test_diagonal_example(self):
        alg = FiniteDimAlgebra([2])
        h = AlgebraElement(alg, [np.diag([0.91, 1.0]).astype(complex)])
        d = AlgebraElement(alg, [np.diag([0.95, 1.0]).astype(complex)])
        x = AlgebraElement(alg, [np.diag([1.0, 0.0]).astype(complex)])
        c = check_almost_unit(h, d, x)
        assert c.measured == pytest.approx(0.05)
        assert c.bound == pytest.approx(0.3)
        assert c.ok

    def test_ordering_enforced(self):
        alg = FiniteDimAlgebra([2])
        h = AlgebraElement(alg, [np.diag([0.95, 1.0]).astype(complex)])
        d = AlgebraElement(alg, [np.diag([0.91, 1.0]).astype(complex)])
        with pytest.raises(ValueError, match="ordering"):
            check_almost_unit(h, d, AlgebraElement.identity(alg))

    def test_randomized(self):
        rng = np.random.default_rng(25)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            alg = FiniteDimAlgebra([n])
            w = rng.uniform(0, 1, size=n)
            u = rand_unitary(rng, n)
            hm = u @ np.diag(w) @ u.conj().T
            dm = u @ np.diag(w + rng.uniform(0, 1, size=n) * (1 - w)) @ u.conj().T
            x = rand_complex(rng, (n, n))
            x /= max(np.linalg.norm(x, 2), 1.0)
            c = check_almost_unit(
                AlgebraElement(alg, [hm]), AlgebraElement(alg, [dm]), AlgebraElement(alg, [x])
            )
            assert c.ok, (c.measured, c.bound)


class TestTraceRank:
    def test_orthogonal_family_certificate(self):
        mats = [np.diag([0.95, 0.0, 0.0]), np.diag([0.0, 0.9, 0.0])]
        rep = trace_rank_bound(mats)
        assert rep.hypotheses_ok and rep.bound_ok
        assert rep.normalized_trace <= 1.0

    def test_hypotheses_rejected(self):
        rep = trace_rank_bound([np.diag([0.5, 0.0])])  # norm below n/(n+1)
        assert not rep.hypotheses_ok

    def test_overfull_families_never_meet_hypotheses(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            k = n + 1
            mats = []
            # try to squeeze k = n+1 high-norm positives under the unit
            basis = [rand_projection(rng, n, 1) for _ in range(k)]
            scale = rng.uniform(0.9, 1.0)
            mats = [scale * b for b in basis]
            rep = trace_rank_bound(mats)
            assert not rep.hypotheses_ok or rep.bound_ok
            if rep.hypotheses_ok:
                assert rep.k <= rep.n


class TestInvertibleSum:
    def test_rank_one_case(self):
        us, lam = invertible_sum_witness(1, np.array([[1.0]]), seed=0)
        assert np.allclose(us[0], np.eye(1))
        assert lam == pytest.approx(1.0)

    def test_m2_neighborhood(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        us, lam = invertible_sum_witness(2, p, radius=0.5, seed=3)
        assert len(us) == 2
        assert np.isfinite(lam)
        total = sum(u.conj().T @ p @ u for u in us)
        w = np.linalg.eigvalsh(total)
        assert w.min() > 0
        assert lam * w.min() == pytest.approx(1.0)
        for u in us:
            assert np.linalg.norm(u - np.eye(2), 2) <= 0.5 + 1e-9

    def test_degenerate_sum_detected(self):
        # all unitaries equal: the conjugates coincide, the sum stays rank one
        p = np.diag([1.0, 0.0]).astype(complex)
        us = [np.eye(2, dtype=complex)] * 2
        assert sum_smallest_eigenvalue(p, us) <= 1e-12

    def test_requires_rank_one(self):
        with pytest.raises(ValueError, match="rank-one"):
            invertible_sum_witness(2, np.eye(2), seed=0)
