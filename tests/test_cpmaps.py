"""Choi verification, dilation, Schwarz estimates, and strict order."""

import numpy as np
import pytest

from cprank import (
    AlgebraElement,
    CPMap,
    FiniteDimAlgebra,
    certify_order_zero,
    choi_blocks,
    compress,
    is_contractive,
    multiplicativity_defect,
    schwarz_defect,
    stinespring,
    strict_order_abelian,
    strict_order_bounds,
    tensor_strict_order_exact,
    tensor_with_identity,
    unitize,
    witness_elementary_set,
)
from cprank.cpmaps import strict_order_abelian_brute

from conftest import (
    identity_map,
    rand_complex,
    rand_cp_contraction,
    rand_hermitian,
    rand_order_zero,
    rand_unitary,
)


def transpose_map(n: int) -> CPMap:
    alg = FiniteDimAlgebra([n])
    arr = np.zeros((n, n, n, n), complex)
    for j in range(n):
        for k in range(n):
            arr[j, k, k, j] = 1.0
    return CPMap(alg, alg, {(0, 0): arr})


def trace_map(n: int) -> CPMap:
    alg = FiniteDimAlgebra([n])
    arr = np.zeros((n, n, n, n), complex)
    for j in range(n):
        arr[j, j] = np.eye(n) / n
    return CPMap(alg, alg, {(0, 0): arr})


def abelian_map_from_values(values: np.ndarray) -> CPMap:
    """Map from C^s into C^m given by nonnegative value rows."""
    s, m = values.shape
    dom = FiniteDimAlgebra([1] * s)
    cod = FiniteDimAlgebra([1] * m)
    images = {}
    for i in range(s):
        for c in range(m):
            if values[i, c] != 0:
                images[(i, c)] = np.array(values[i, c], complex).reshape(1, 1, 1, 1)
    return CPMap(dom, cod, images)


class TestChoi:
    def test_identity_choi_is_rank_one(self):
        blocks, ok, worst = choi_blocks(identity_map(2))
        assert ok and worst >= -1e-12
        w = np.linalg.eigvalsh(blocks[0])
        assert np.sum(w > 1e-9) == 1  # maximally entangled

    def test_transpose_not_cp(self):
        blocks, ok, worst = choi_blocks(transpose_map(2))
        assert not ok
        # oracle: the swap operator has eigenvalue -1 on the antisymmetric vector
        swap = blocks[0]
        v = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert v @ swap @ v == pytest.approx(-1.0)
        assert worst == pytest.approx(-1.0)

    def test_trace_map_choi(self):
        blocks, ok, _ = choi_blocks(trace_map(2))
        assert ok
        assert np.allclose(blocks[0], np.eye(4) / 2)

    def test_adjoint_symmetry_enforced(self):
        alg = FiniteDimAlgebra([2])
        arr = np.zeros((2, 2, 2, 2), complex)
        arr[0, 1] = np.eye(2)  # image of e_01 without matching e_10
        phi = CPMap(alg, alg, {(0, 0): arr})
        with pytest.raises(ValueError, match="adjoint"):
            choi_blocks(phi)


class TestContractivityAndCompress:
    def test_identity(self):
        ok, nrm = is_contractive(identity_map(2))
        assert ok and nrm == pytest.approx(1.0)

    def test_doubled_identity(self):
        alg = FiniteDimAlgebra([2])
        arr = identity_map(2).image_array(0, 0) * 2
        ok, nrm = is_contractive(CPMap(alg, alg, {(0, 0): arr}))
        assert not ok and nrm == pytest.approx(2.0)

    def test_compress_preserves_cp(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            phi = rand_cp_contraction(rng, [2], 3)
            h = AlgebraElement(phi.codomain, [rand_complex(rng, (3, 3))])
            h = (1.0 / max(h.norm(), 1.0)) * h
            out = compress(phi, h)
            assert out.is_completely_positive()
            ok, _ = is_contractive(out)
            assert ok

    def test_compress_by_unit_and_zero(self):
        phi = identity_map(2)
        one = AlgebraElement.identity(phi.codomain)
        zero = AlgebraElement.zeros(phi.codomain)
        same = compress(phi, one)
        x = AlgebraElement(phi.domain, [np.array([[1, 2], [3, 4.0]])])
        assert (same.apply(x) - phi.apply(x)).norm() <= 1e-12
        assert compress(phi, zero).apply(x).norm() == 0.0


class TestUnitize:
    def test_unital_map_gets_zero_summand(self):
        phi = identity_map(2)
        up = unitize(phi)
        assert up.domain.block_sizes == (2, 1)
        # adjoined unit maps to 1 - phi(1) = 0
        assert up.unit_image(1, 0, 0).norm() <= 1e-12
        x = AlgebraElement(phi.domain, [np.array([[1, 2j], [-2j, 0.5]])])
        lifted = AlgebraElement(up.domain, [x.blocks[0], np.zeros((1, 1))])
        assert (up.apply(lifted) - phi.apply(x)).norm() <= 1e-12

    def test_zero_map(self):
        alg = FiniteDimAlgebra([2])
        phi = CPMap(alg, alg, {})
        up = unitize(phi)
        lifted = AlgebraElement(up.domain, [np.zeros((2, 2)), np.array([[3.0]])])
        out = up.apply(lifted)
        assert (out - 3.0 * AlgebraElement.identity(alg)).norm() <= 1e-12

    def test_half_identity_unitization_cp_and_unital(self):
        alg = FiniteDimAlgebra([2])
        arr = identity_map(2).image_array(0, 0) * 0.5
        phi = CPMap(alg, alg, {(0, 0): arr})
        up = unitize(phi)
        assert up.is_completely_positive()
        assert (up.apply_one() - AlgebraElement.identity(alg)).norm() <= 1e-12


class TestStinespring:
    def test_identity_dilation_isometry(self):
        dil = stinespring(identity_map(2))
        vtv = dil.V.conj().T @ dil.V
        assert np.linalg.norm(vtv - np.eye(2), 2) <= 1e-9

    def test_conjugation_reconstructs(self):
        rng = np.random.default_rng(32)
        v = rand_complex(rng, (3, 3))
        v /= np.linalg.norm(v, 2)
        alg = FiniteDimAlgebra([3])
        arr = np.zeros((3, 3, 3, 3), complex)
        for j in range(3):
            for k in range(3):
                e = np.zeros((3, 3))
                e[j, k] = 1.0
                arr[j, k] = v.conj().T @ e @ v
        phi = CPMap(alg, alg, {(0, 0): arr})
        dil = stinespring(phi)
        x = AlgebraElement(alg, [rand_complex(rng, (3, 3))])
        assert np.linalg.norm(dil.reconstruct(x) - phi.apply(x).blocks[0], 2) <= 1e-9

    def test_random_multiblock(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            phi = rand_cp_contraction(rng, [2, 3], 4)
            dil = stinespring(phi)
            assert dil.rep_dimension <= 4 * phi.domain.total_dim
            assert dil.multiplicativity_defect() <= 1e-10
            x = AlgebraElement(
                phi.domain, [rand_complex(rng, (2, 2)), rand_complex(rng, (3, 3))]
            )
            assert np.linalg.norm(dil.reconstruct(x) - phi.apply(x).blocks[0], 2) <= 1e-9
            assert abs(np.linalg.norm(dil.V, 2) ** 2 - phi.apply_one().norm()) <= 1e-9

    def test_rejects_non_cp(self):
        with pytest.raises(ValueError, match="not completely positive"):
            stinespring(transpose_map(2))


class TestSchwarzAndMultiplicativity:
    def test_homomorphism_has_zero_defect(self):
        phi = identity_map(3)
        rng = np.random.default_rng(34)
        x = AlgebraElement(phi.domain, [rand_complex(rng, (3, 3))])
        x = (1.0 / x.norm()) * x
        rep = schwarz_defect(phi, x)
        assert rep.defect == 0.0 and rep.lambda_min >= -1e-12

    def test_half_identity_gap(self):
        alg = FiniteDimAlgebra([2])
        arr = identity_map(2).image_array(0, 0) * 0.5
        phi = CPMap(alg, alg, {(0, 0): arr})
        rep = schwarz_defect(phi, AlgebraElement.identity(alg))
        assert rep.defect == 0.0
        assert rep.gap == pytest.approx(0.25)

    def test_random_nonnegative(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
            phi = rand_cp_contraction(rng, sizes, int(rng.integers(2, 6)))
            blocks = [rand_hermitian(rng, d) for d in sizes]
            x = AlgebraElement(phi.domain, blocks)
            rep = schwarz_defect(phi, x)
            assert rep.lambda_min >= -1e-9

    def test_non_cp_map_fires(self):
        # the transpose violates the Schwarz inequality at a partial isometry
        phi = transpose_map(2)
        x = AlgebraElement(phi.domain, [np.array([[0, 1], [0, 0.0]])])
        rep = schwarz_defect(phi, x)
        assert rep.lambda_min == pytest.approx(-1.0)
        assert rep.defect == pytest.approx(1.0)

    def test_multiplicativity_bound(self):
        rng = np.random.default_rng(36)
        phi = rand_cp_contraction(rng, [3], 4)
        x = AlgebraElement(phi.domain, [rand_hermitian(rng, 3)])
        for _ in range(100):
            y = AlgebraElement(phi.domain, [rand_complex(rng, (3, 3))])
            y = (1.0 / y.norm()) * y
            rep = multiplicativity_defect(phi, x, y)
            assert rep.ok

    def test_positive_remark_domination(self):
        # for positive contractions x: phi(x^2) - phi(x)^2 <= phi(x) - phi(x)^2
        rng = np.random.default_rng(37)
        from conftest import rand_psd

        for _ in range(50):
            phi = rand_cp_contraction(rng, [3], 3)
            x = AlgebraElement(phi.domain, [rand_psd(rng, 3, norm=1.0)])
            fx = phi.apply(x)
            upper = phi.apply(x) - fx @ fx
            lower = phi.apply(x @ x) - fx @ fx
            gap = upper - lower  # equals phi(x) - phi(x^2) >= 0
            lam = min(np.linalg.eigvalsh((b + b.conj().T) / 2).min() for b in gap.blocks)
            assert lam >= -1e-9

    def test_homomorphism_multiplicativity_zero(self):
        phi = identity_map(2)
        x = AlgebraElement(phi.domain, [np.diag([1.0, 0.3])])
        y = AlgebraElement(phi.domain, [np.array([[0, 1], [0, 0.0]])])
        rep = multiplicativity_defect(phi, x, y)
        assert rep.lhs <= 1e-12 and rep.ok


class TestStrictOrderAbelian:
    def test_interval_chain_images(self):
        # hat supports [0,0.4],[0.3,0.7],[0.6,1] on a grid: consecutive overlap only
        xs = np.linspace(0, 1, 41)
        rows = np.stack(
            [
                np.clip(1 - np.abs(xs - 0.2) / 0.2, 0, None),
                np.clip(1 - np.abs(xs - 0.5) / 0.2, 0, None),
                np.clip(1 - np.abs(xs - 0.8) / 0.2, 0, None),
            ]
        )
        phi = abelian_map_from_values(rows)
        assert strict_order_abelian(phi) == 1

    def test_orthogonal_images(self):
        rows = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        assert strict_order_abelian(abelian_map_from_values(rows)) == 0

    def test_everywhere_positive(self):
        rng = np.random.default_rng(38)
        rows = rng.uniform(0.1, 1.0, size=(5, 7))
        assert strict_order_abelian(abelian_map_from_values(rows)) == 4

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(39)
        for _ in range(80):
            s = int(rng.integers(1, 9))
            m = int(rng.integers(1, 10))
            rows = rng.uniform(0, 1, size=(s, m)) * (rng.random(size=(s, m)) < 0.4)
            phi = abelian_map_from_values(rows)
            assert strict_order_abelian(phi) == strict_order_abelian_brute(phi)

    def test_rejects_matrix_domain(self):
        with pytest.raises(ValueError, match="abelian"):
            strict_order_abelian(identity_map(2))


class TestOrderZeroCertification:
    def test_tensor_diagonal_form(self):
        rng = np.random.default_rng(40)
        phi = rand_order_zero(rng, [2], 2)
        cert = certify_order_zero(phi)
        assert cert.ok, cert.witnesses

    def test_trace_map_fails_with_witness(self):
        cert = certify_order_zero(trace_map(2))
        assert not cert.ok
        assert any("phi(e_00) phi(e_11)" in w and "2.5" in w for w in cert.witnesses)

    def test_direct_sum_of_order_zeros(self):
        rng = np.random.default_rng(41)
        phi = rand_order_zero(rng, [2, 3], 2)
        assert certify_order_zero(phi).ok

    def test_witness_search_trace_map(self):
        res = witness_elementary_set(trace_map(2), 2, seed=0)
        assert res
        res.found.validate()
        imgs = [trace_map(2).apply(p) for p in res.found.projections]
        assert (imgs[0] @ imgs[1]).norm() > 1e-6

    def test_witness_search_order_zero_inconclusive(self):
        rng = np.random.default_rng(42)
        phi = rand_order_zero(rng, [2], 2)
        res = witness_elementary_set(phi, 2, seed=1, budget=60)
        assert not res
        assert res.samples_used >= 60

    def test_mixed_map_full_witness(self):
        # phi(x) = x/2 + tr(x)/6 on M_3 keeps every pairwise product visible
        alg = FiniteDimAlgebra([3])
        arr = np.zeros((3, 3, 3, 3), complex)
        for j in range(3):
            for k in range(3):
                e = np.zeros((3, 3))
                e[j, k] = 1.0
                arr[j, k] = 0.5 * e + 0.5 * np.trace(e) / 3.0 * np.eye(3)
        phi = CPMap(alg, alg, {(0, 0): arr})
        res = witness_elementary_set(phi, 3, seed=2)
        assert res and len(res.found) == 3

    def test_elementary_set_members_are_minimal(self):
        res = witness_elementary_set(trace_map(3), 3, seed=3)
        assert res
        for p in res.found.projections:
            assert abs(np.trace(p.blocks[0]).real - 1.0) <= 1e-9

    def test_zero_map_on_m20_certifies(self):
        cert = certify_order_zero(CPMap(FiniteDimAlgebra((20,)), FiniteDimAlgebra((2,)), {}))
        assert cert.ok
        assert cert.witnesses == []


class TestStrictOrderBounds:
    def test_abelian_exact(self):
        rows = np.array([[1.0, 1.0, 0], [0, 1.0, 1.0]])
        b = strict_order_bounds(abelian_map_from_values(rows))
        assert (b.lower, b.upper, b.exact) == (1, 1, True)

    def test_trace_map_dichotomy(self):
        b = strict_order_bounds(trace_map(2))
        assert (b.lower, b.upper, b.exact) == (1, 1, True)
        b3 = strict_order_bounds(trace_map(3))
        assert (b3.lower, b3.upper) == (2, 2)

    def test_order_zero_exact(self):
        rng = np.random.default_rng(43)
        phi = rand_order_zero(rng, [3], 2)
        b = strict_order_bounds(phi)
        assert (b.lower, b.upper, b.exact) == (0, 0, True)

    def test_two_orthogonal_order_zero_blocks(self):
        rng = np.random.default_rng(44)
        phi = rand_order_zero(rng, [2, 2], 2)
        b = strict_order_bounds(phi)
        assert (b.lower, b.upper, b.exact) == (0, 0, True)

    def test_multiblock_inexact_cap(self):
        rng = np.random.default_rng(45)
        # two independent copies of the trace map on M_2: not order zero
        alg = FiniteDimAlgebra([2, 2])
        cod = FiniteDimAlgebra([4])
        images = {}
        for i in range(2):
            arr = np.zeros((2, 2, 4, 4), complex)
            for j in range(2):
                sub = np.zeros((4, 4), complex)
                sub[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = np.eye(2) / 2
                arr[j, j] = sub
            images[(i, 0)] = arr
        phi = CPMap(alg, cod, images)
        b = strict_order_bounds(phi, seed=7)
        assert b.lower >= 1
        assert b.upper == 3
        assert not b.exact or b.lower == b.upper

    def test_block_above_default_cap(self):
        # a block of 65 is legal under a raised cap; the per-block restriction
        # must accept it too.  phi(1) = 132 is not contractive, so every order
        # zero certificate fails at once, before its O(d^4) unit checks.
        alg = FiniteDimAlgebra((65, 1), max_block=128)
        images = {
            (0, 0): 2 * np.eye(65, dtype=complex).reshape(65, 65, 1, 1),
            (1, 0): 2 * np.ones((1, 1, 1, 1), complex),
        }
        phi = CPMap(alg, FiniteDimAlgebra((1,)), images)
        assert phi.restrict_to_block(0).domain.block_sizes == (65,)
        b = strict_order_bounds(phi)
        assert (b.lower, b.upper, b.exact) == (65, 65, True)

    def test_unitize_block_above_default_cap(self):
        alg = FiniteDimAlgebra((65,), max_block=128)
        out = unitize(CPMap(alg, FiniteDimAlgebra((1,)), {}))
        assert out.domain.block_sizes == (65, 1)


class TestTensoring:
    def test_r_equal_one(self):
        phi = identity_map(2)
        out = tensor_with_identity(phi, 1)
        assert out.domain.block_sizes == (2,)

    def test_tensored_identity_reconstructs(self):
        rng = np.random.default_rng(46)
        phi = rand_cp_contraction(rng, [2], 3)
        out = tensor_with_identity(phi, 2)
        assert out.domain.block_sizes == (4,)
        assert out.codomain.block_sizes == (6,)
        x = rand_complex(rng, (2, 2))
        b = rand_complex(rng, (2, 2))
        big = AlgebraElement(out.domain, [np.kron(x, b)])
        expect = np.kron(phi.apply_to_block(0, x).blocks[0], b)
        assert np.linalg.norm(out.apply(big).blocks[0] - expect, 2) <= 1e-10

    def test_abelian_tensor_exact_order(self):
        rows = np.array([[1.0, 1.0, 0, 0], [0, 1.0, 1.0, 0], [0, 0, 1.0, 1.0]])
        phi = abelian_map_from_values(rows)
        base = strict_order_abelian(phi)
        order, witness = tensor_strict_order_exact(phi, 2)
        assert order == base == 1
        witness.validate()

    def test_order_zero_tensor_stays_order_zero(self):
        rng = np.random.default_rng(47)
        phi = rand_order_zero(rng, [2], 2)
        out = tensor_with_identity(phi, 2)
        assert certify_order_zero(out).ok

    def test_block_above_default_cap(self):
        # inflating by r = 65 is legal when the inflated algebras take their
        # largest block as cap
        phi = CPMap(FiniteDimAlgebra((1,)), FiniteDimAlgebra((1,)), {})
        out = tensor_with_identity(phi, 65)
        assert out.domain.block_sizes == (65,)
        assert out.codomain.block_sizes == (65,)
