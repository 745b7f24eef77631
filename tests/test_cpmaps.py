"""Choi verification, dilation, Schwarz estimates, and strict order."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprank import (
    AlgebraElement,
    CPMap,
    FiniteDimAlgebra,
    certify_order_zero,
    choi_blocks,
    compress,
    is_contractive,
    matrix_unit,
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
from cprank import cpmaps

from conftest import (
    identity_map,
    near_order_zero,
    rand_complex,
    rand_cp_contraction,
    rand_hermitian,
    rand_order_zero,
    rand_unitary,
)
from oracles import (
    adjoint_symmetry_defect_per_pair,
    apply_one_element,
    certify_order_zero_per_unit,
    dilation_defect_per_unit,
    min_choi_eigenvalue_per_pair,
    norms_unscreened,
    strict_order_abelian_brute,
    strict_order_bounds_recertifying,
    unit_product_defects_per_unit,
    validate_per_pair,
    worst_pair_per_pair,
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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(1, 5), st.booleans()), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_direct_sum_matches_scipy_block_diag(self, shapes, seed):
        from scipy.linalg import block_diag

        rng = np.random.default_rng(seed)
        blocks = [rand_complex(rng, (n, n)) if cplx else rng.normal(size=(n, n)) for n, cplx in shapes]
        got, want = cpmaps._direct_sum(blocks), block_diag(*blocks)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestContractivityAndCompress:
    def test_identity(self):
        c = is_contractive(identity_map(2))
        assert c.ok and c.measured == pytest.approx(1.0)
        assert c.step == "contractive" and c.bound == 1.0 + cpmaps.CP_TOL

    def test_doubled_identity(self):
        alg = FiniteDimAlgebra([2])
        arr = identity_map(2).image_array(0, 0) * 2
        c = is_contractive(CPMap(alg, alg, {(0, 0): arr}))
        assert not c.ok and not c and c.measured == pytest.approx(2.0)

    def test_compress_preserves_cp(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            phi = rand_cp_contraction(rng, [2], 3)
            h = AlgebraElement(phi.codomain, [rand_complex(rng, (3, 3))])
            h = (1.0 / max(h.norm(), 1.0)) * h
            out = compress(phi, h)
            assert out.is_completely_positive()
            assert is_contractive(out).ok

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

    @pytest.mark.parametrize("scale", [1e8, 1e12])
    def test_large_maps_dilate(self, scale):
        # the rounding the self-checks measure grows with ||phi(1)||, and so do their bounds
        rng = np.random.default_rng(34)
        for _ in range(20):
            phi = rand_cp_contraction(rng, [2, 3], 4)
            big = CPMap(phi.domain, phi.codomain, {key: a * scale for key, a in phi.images.items()})
            dil = stinespring(big)
            assert dilation_defect_per_unit(big, dil) <= 1e-9 * scale


class TestSchwarzAndMultiplicativity:
    def test_homomorphism_has_zero_defect(self):
        phi = identity_map(3)
        rng = np.random.default_rng(34)
        x = AlgebraElement(phi.domain, [rand_complex(rng, (3, 3))])
        x = (1.0 / x.norm()) * x
        rep = schwarz_defect(phi, x)
        assert rep.ok and rep.measured <= 1e-12
        assert rep.step == "schwarz" and rep.bound == cpmaps.CP_TOL

    def test_half_identity_gap(self):
        alg = FiniteDimAlgebra([2])
        arr = identity_map(2).image_array(0, 0) * 0.5
        phi = CPMap(alg, alg, {(0, 0): arr})
        rep = schwarz_defect(phi, AlgebraElement.identity(alg))
        assert rep.ok
        # phi(1) - phi(1)^2 = 1/2 - 1/4: the inequality holds with a gap of 1/4
        assert rep.measured == pytest.approx(-0.25)

    def test_random_nonnegative(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
            phi = rand_cp_contraction(rng, sizes, int(rng.integers(2, 6)))
            blocks = [rand_hermitian(rng, d) for d in sizes]
            x = AlgebraElement(phi.domain, blocks)
            rep = schwarz_defect(phi, x)
            assert rep.measured <= 1e-9 and rep.ok

    def test_non_cp_map_fires(self):
        # the transpose violates the Schwarz inequality at a partial isometry
        phi = transpose_map(2)
        x = AlgebraElement(phi.domain, [np.array([[0, 1], [0, 0.0]])])
        rep = schwarz_defect(phi, x)
        assert rep.measured == pytest.approx(1.0)
        assert not rep.ok

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
        assert rep.measured <= 1e-12 and rep.ok


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
        # a block of 65 is legal: only input is capped, and the per-block
        # restriction must accept it too.  phi(1) = 132 is not contractive, so
        # every order zero certificate fails at once, before its O(d^4) unit checks.
        alg = FiniteDimAlgebra((65, 1))
        images = {
            (0, 0): 2 * np.eye(65, dtype=complex).reshape(65, 65, 1, 1),
            (1, 0): 2 * np.ones((1, 1, 1, 1), complex),
        }
        phi = CPMap(alg, FiniteDimAlgebra((1,)), images)
        assert phi.restrict_to_block(0).domain.block_sizes == (65,)
        b = strict_order_bounds(phi)
        assert (b.lower, b.upper, b.exact) == (65, 65, True)

    def test_unitize_block_above_default_cap(self):
        alg = FiniteDimAlgebra((65,))
        out = unitize(CPMap(alg, FiniteDimAlgebra((1,)), {}))
        assert out.domain.block_sizes == (65, 1)


class TestTensoring:
    def test_r_equal_one(self):
        phi = identity_map(2)
        out = tensor_with_identity(phi, 1)
        assert out is phi

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
        # inflating by r = 65 is legal: algebras derived from a map are not capped
        phi = CPMap(FiniteDimAlgebra((1,)), FiniteDimAlgebra((1,)), {})
        out = tensor_with_identity(phi, 65)
        assert out.domain.block_sizes == (65,)
        assert out.codomain.block_sizes == (65,)


class TestImmutableStorage:
    def edited_after_apply(self):
        """A map out of M_2 into M_1 + M_2, applied once before the caller edits
        the arrays it was built from, with a copy of the images as built."""
        rng = np.random.default_rng(48)
        dom, cod = FiniteDimAlgebra([2]), FiniteDimAlgebra([1, 2])
        given = {(0, 1): rand_complex(rng, (2, 2, 2, 2)), (0, 0): rand_complex(rng, (2, 2, 1, 1))}
        phi = CPMap(dom, cod, given)
        phi.apply_one()
        built = {key: arr.copy() for key, arr in given.items()}
        for arr in given.values():
            arr[...] = 5.0
        return phi, built

    def test_edits_to_the_given_arrays_do_not_reach_the_map(self):
        phi, built = self.edited_after_apply()
        assert list(phi.images) == sorted(built)
        for (i, c), arr in built.items():
            assert phi.images[i, c].tobytes() == arr.tobytes()
            d, _, r, _ = arr.shape
            assert phi.choi_block(i, c).tobytes() == arr.transpose(0, 2, 1, 3).reshape(d * r, d * r).tobytes()
        units = cpmaps.unit_stacks(phi, 0)
        for j, k in np.ndindex(2, 2):
            got = phi.apply(matrix_unit(phi.domain, 0, j, k))
            for c, (g, n) in enumerate(phi.codomain.block_slots):
                assert got.blocks[c].tobytes() == units[g][n, j, k].tobytes()
                assert got.blocks[c].tobytes() == (0.0 + built[0, c][j, k]).tobytes()

    def test_images_cannot_be_assigned(self):
        phi = identity_map(2)
        with pytest.raises(TypeError):
            phi.images[(0, 0)] = 2 * phi.images[(0, 0)]

    def test_images_cannot_be_written(self):
        phi = identity_map(2)
        with pytest.raises(ValueError, match="read-only"):
            phi.images[(0, 0)][0, 0] = 2.0

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (2, 0), (0, 2), (0.0, 0), (0,), "ab"])
    def test_image_keys_outside_the_blocks_are_rejected(self, key):
        # a negative index would wrap onto the last block in ``block_sizes``
        alg = FiniteDimAlgebra([1, 1])
        with pytest.raises(ValueError, match="pair"):
            CPMap(alg, alg, {key: np.ones((1, 1, 1, 1), complex)})

    def test_restrict_to_block_keeps_the_block_images_in_image_order(self):
        # blocks of sizes 2, 1, 2 give two domain size groups; pairs in a shuffled order
        rng = np.random.default_rng(23)
        phi = random_map(rng, (2, 1, 2), (1, 2, 1))
        for i, d in enumerate(phi.domain.block_sizes):
            sub = phi.restrict_to_block(i)
            want = [(c, arr) for (i2, c), arr in phi.images.items() if i2 == i]
            assert sub.domain.block_sizes == (d,)
            # the image order of a map built from the same images
            assert list(sub.images) == list(CPMap(sub.domain, sub.codomain, dict(sub.images)).images)
            assert sorted(sub.images) == sorted((0, c) for c, _ in want)
            assert all(sub.images[0, c].tobytes() == arr.tobytes() for c, arr in want)
            x = rand_complex(rng, (d, d))
            got = sub.apply(AlgebraElement.from_block(sub.domain, 0, x))
            assert got.norm() == phi.apply(AlgebraElement.from_block(phi.domain, i, x)).norm()

    def test_numpy_integer_keys_are_stored_as_ints(self):
        alg = FiniteDimAlgebra([1, 1])
        phi = CPMap(alg, alg, {(np.int64(1), np.int32(0)): np.ones((1, 1, 1, 1), complex)})
        assert [type(n) for n in next(iter(phi.images))] == [int, int]


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def screened_stacks(draw):
    """Stacks of 1-3 size groups over a (2, 3) lead, holding zero blocks, plain blocks
    of three scales and rank-one blocks whose norm is the floor to within 1e-12."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floor = draw(st.sampled_from([0.0, 1e-300, 1e-160, 1e-9, 1e-7, 0.3, 2.0]))
    stacks = []
    for r in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        shape = (int(rng.integers(1, 4)), 2, 3)
        plain = rand_complex(rng, shape + (r, r)) * rng.choice([1.0, 1e-8, 1e-170], shape + (1, 1))
        one = rand_complex(rng, shape + (r, 1)) @ rand_complex(rng, shape + (1, r))
        # rank one: the operator norm is the Frobenius norm
        one /= np.linalg.norm(one, axis=(-2, -1), keepdims=True)
        one *= floor * (1 + rng.uniform(-1e-12, 1e-12, shape + (1, 1)))
        kind = rng.integers(0, 3, shape + (1, 1))
        stacks.append(np.where(kind == 0, 0.0, np.where(kind == 1, plain, one)))
    return stacks, floor


class TestScreenedNorms:
    @PROPERTY
    @given(screened_stacks())
    def test_exact_above_the_floor(self, case):
        stacks, floor = case
        want = norms_unscreened(stacks)
        got = cpmaps._norms(stacks, floor)
        above = want > floor
        assert got[above].tobytes() == want[above].tobytes()
        assert np.all(got[~above] <= floor)
        if floor == 0:
            assert got.tobytes() == want.tobytes()

    @PROPERTY
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_batched_apply_matches_each_element(self, dom_sizes, cod_sizes, batch, seed):
        rng = np.random.default_rng(seed)
        dom, cod = FiniteDimAlgebra(dom_sizes), FiniteDimAlgebra(cod_sizes)
        images = {}
        for i in rng.permutation(dom.num_blocks).tolist():
            for c in rng.permutation(cod.num_blocks).tolist():
                d, r = dom.block_sizes[i], cod.block_sizes[c]
                images[(i, c)] = rand_complex(rng, (d, d, r, r)) * rng.choice([0.0, -0.0, 1.0], (d, d, 1, 1))
        phi = CPMap(dom, cod, images)
        xs = [rand_complex(rng, (len(b), batch, r, r)) for r, b in zip(dom.group_sizes, dom.group_blocks)]
        got = phi.apply(AlgebraElement.from_stacks(dom, xs))
        for p in range(batch):
            x = AlgebraElement.from_stacks(dom, [s[:, p].copy() for s in xs])
            for want in (phi.apply(x), apply_one_element(phi, x)):
                assert [g[:, p].tobytes() for g in got.stacks] == [w.tobytes() for w in want.stacks]

    @PROPERTY
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=2),
        st.integers(1, 2),
        st.sampled_from([0.0, 1e-10, 1e-8, 1e-7, 1e-6, 1e-3, 0.5]),
        st.sampled_from([cpmaps.ORTH_TOL, 1e-6, 1e-10, 0.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_certificate_matches_unscreened(self, sizes, copies, noise, tol, seed):
        phi = near_order_zero(np.random.default_rng(seed), sizes, copies, noise)
        with mock.patch.object(cpmaps, "_norms", norms_unscreened):
            want = certify_order_zero(phi, tol)
        got = certify_order_zero(phi, tol)
        assert (got.ok, got.witnesses) == (want.ok, want.witnesses)
        assert got.reconstruction_defect == want.reconstruction_defect



def raised(check) -> tuple[type, str] | None:
    """The type and message of the exception ``check()`` raises, None if it returns."""
    try:
        check()
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return type(exc), str(exc)
    return None


@st.composite
def max_norm_stacks(draw):
    """Stacks of 1-3 size groups over one random lead, holding zero, tiny (1e-170), plain,
    rank-one blocks and multiples of unitaries, whose norm is ||A||_F / sqrt(r)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floor = draw(st.sampled_from([0.0, 1e-300, 1e-160, 1e-9, 0.3, 0.9, 2.0]))
    lead = (int(rng.integers(1, 4)),)
    stacks = []
    for r in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        shape = (int(rng.integers(1, 4)),) + lead
        plain = rand_complex(rng, shape + (r, r)) * rng.uniform(0.05, 1.0, shape + (1, 1))
        one = rand_complex(rng, shape + (r, 1)) @ rand_complex(rng, shape + (1, r))
        one *= rng.uniform(0.5, 1.5, shape + (1, 1)) / np.linalg.norm(one, axis=(-2, -1), keepdims=True)
        unitary = np.stack([rand_unitary(rng, r) for _ in range(int(np.prod(shape)))]).reshape(shape + (r, r))
        unitary *= rng.uniform(0.5, 1.5, shape + (1, 1))
        kind = rng.integers(0, 5, shape + (1, 1))
        stacks.append(np.select([kind == 0, kind == 1, kind == 2, kind == 3], [0.0, plain * 1e-170, plain, one], unitary))
    return stacks, floor


def random_map(rng, dom_sizes, cod_sizes) -> CPMap:
    """A map with random complex images on a random subset of the block pairs, not c.p."""
    dom, cod = FiniteDimAlgebra(dom_sizes), FiniteDimAlgebra(cod_sizes)
    images = {}
    for i in rng.permutation(dom.num_blocks).tolist():
        for c in rng.permutation(cod.num_blocks).tolist():
            if rng.random() < 0.7:
                d, r = dom.block_sizes[i], cod.block_sizes[c]
                images[(i, c)] = rand_complex(rng, (d, d, r, r))
    return CPMap(dom, cod, images)


class TestBatchedOrderZero:
    """The chunked, capped and batched order-zero layer against the per-pair oracles."""

    @PROPERTY
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=2),
        st.integers(1, 2),
        st.sampled_from([0.0, 1e-10, 1e-8, 1e-6, 0.5]),
        st.sampled_from([cpmaps.ORTH_TOL, 1e-6, 0.0]),
        st.sampled_from([1, 60, 150, 400, 2**16]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_certificate_is_the_uncapped_certificate_cut_at_16(self, sizes, copies, noise, tol, budget, cp, seed):
        rng = np.random.default_rng(seed)
        if cp:  # a generic c.p. contraction: most checks fail
            phi = rand_cp_contraction(rng, sizes, int(rng.integers(1, 4)))
        else:
            phi = near_order_zero(rng, sizes, copies, noise)
        want = certify_order_zero_per_unit(phi, tol)
        with mock.patch.object(cpmaps, "CHUNK_ENTRIES", budget):
            got = certify_order_zero(phi, tol)
        assert got.ok == want.ok
        assert got.witnesses == want.witnesses[: cpmaps.MAX_WITNESSES]
        if len(want.witnesses) < cpmaps.MAX_WITNESSES:
            assert np.float64(got.reconstruction_defect).tobytes() == np.float64(want.reconstruction_defect).tobytes()

    def test_map_with_more_than_16_witnesses(self):
        phi = rand_cp_contraction(np.random.default_rng(5), [3, 2], 3)
        want = certify_order_zero_per_unit(phi)
        got = certify_order_zero(phi)
        assert len(want.witnesses) > 40
        assert not got.ok and got.witnesses == want.witnesses[:16]
        assert cpmaps.MAX_WITNESSES == 16

    def test_cap_stops_inside_the_sigma_stage(self):
        # the trace map on M_4 fails the diagonal products first (12), then sigma
        # multiplicativity many times; the cap falls inside the sigma stage
        n = 4
        arr = np.zeros((n, n, n, n), complex)
        for j in range(n):
            arr[j, j] = np.eye(n) / n
        phi = CPMap(FiniteDimAlgebra([n]), FiniteDimAlgebra([n]), {(0, 0): arr})
        want = certify_order_zero_per_unit(phi)
        with mock.patch.object(cpmaps, "CHUNK_ENTRIES", 1):
            got = certify_order_zero(phi)
        assert any("sigma" in w for w in got.witnesses)
        assert len(want.witnesses) > 16 and got.witnesses == want.witnesses[:16]

    @PROPERTY
    @given(
        st.integers(1, 4),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.integers(1, 9),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_product_defect_chunks(self, d, cod_sizes, rows, same_block, seed):
        rng = np.random.default_rng(seed)
        cod = FiniteDimAlgebra(cod_sizes)
        a = [rand_complex(rng, z.shape) for z in cod.zero_stacks((d, d))]
        b = a if same_block else [rand_complex(rng, z.shape) for z in a]
        per_row = sum(y.size for y in b)
        # a budget of ``rows`` rows and a remainder, which need not divide d * d
        budget = rows * per_row + int(rng.integers(0, per_row))
        with mock.patch.object(cpmaps, "CHUNK_ENTRIES", budget):
            chunks = list(cpmaps.unit_product_defects(a, b, same_block))
        assert [start for start, _ in chunks] == list(range(0, d * d, rows))
        assert all(sum(x.size for x in c) <= budget for _, c in chunks)
        got = np.concatenate([norms_unscreened(c) for _, c in chunks])
        want = [unit_product_defects_per_unit(a, b, j, k, same_block) for j, k in np.ndindex(d, d)]
        assert got.tobytes() == np.stack(want).tobytes()

    def test_a_chunk_holds_one_row_above_the_budget(self):
        rng = np.random.default_rng(6)
        a = [rand_complex(rng, (1, 3, 3, 2, 2))]
        with mock.patch.object(cpmaps, "CHUNK_ENTRIES", 1):
            chunks = list(cpmaps.unit_product_defects(a, a, True))
        assert [start for start, _ in chunks] == list(range(9))

    @PROPERTY
    @given(max_norm_stacks())
    def test_max_norm_is_the_plain_svd_maximum(self, case):
        stacks, floor = case
        want = float(norms_unscreened(stacks).max())
        got = cpmaps._max_norm(stacks, floor)
        if want > floor:
            assert got == want
        else:
            assert got <= floor
        assert cpmaps._max_norm(stacks) == want

    def test_max_norm_on_equal_frobenius_blocks(self):
        # a rank-one block of norm 1 next to 0.8 times a 4x4 unitary: the Frobenius
        # maximum is 1.6, the largest norm 1; only the sqrt(r) bound keeps the rank-one SVD
        rng = np.random.default_rng(7)
        one = np.outer(rand_complex(rng, 4), rand_complex(rng, 4))
        one /= np.linalg.norm(one, 2)
        stacks = [np.stack([one, 0.8 * rand_unitary(rng, 4)])]
        assert cpmaps._max_norm(stacks) == float(norms_unscreened(stacks).max())
        assert cpmaps._max_norm([np.full((2, 1, 1), 0.5 + 0j)]) == 0.5
        assert cpmaps._max_norm([np.zeros((2, 3, 3), complex)]) == 0.0
        tiny = np.full((1, 2, 2), 3e-170 + 0j)
        assert cpmaps._max_norm([tiny]) == float(np.linalg.svd(tiny[0], compute_uv=False).max()) > 0

    @PROPERTY
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.integers(0, 6),
        st.sampled_from(["none", "repeat", "tilt", "scale", "rank", "wobble"]),
        st.sampled_from([1e-10, 1e-6, 1e-3]),
        st.integers(0, 2**32 - 1),
    )
    def test_elementary_set_check(self, sizes, count, fault, tol, seed):
        rng = np.random.default_rng(seed)
        alg = FiniteDimAlgebra(sizes)
        frames = [rand_unitary(rng, r) for r in sizes]
        members = []
        for _ in range(count):
            b = int(rng.integers(0, len(sizes)))
            members.append((b, frames[b][:, int(rng.integers(0, sizes[b]))]))
        projs = [AlgebraElement.from_block(alg, b, np.outer(v, v.conj())) for b, v in members]
        if projs and fault != "none":
            at = int(rng.integers(0, len(projs)))
            b, v = members[at]
            if fault == "repeat":
                projs.append(projs[at])
            elif fault == "tilt":  # a small turn towards a random vector
                w = v + rng.choice([1e-8, 1e-4]) * rand_complex(rng, v.shape)
                w /= np.linalg.norm(w)
                projs[at] = AlgebraElement.from_block(alg, b, np.outer(w, w.conj()))
            elif fault == "scale":
                projs[at] = projs[at] * (1 + rng.choice([1e-9, 1e-5]))
            elif fault == "rank":
                projs[at] = AlgebraElement.identity(alg)
            elif sizes[b] >= 3:  # a trace-free wobble: a defect of rank two, of norm about 3 tol
                e, f = (u for u in frames[b].T if abs(np.vdot(u, v)) < 0.5)
                wobble = 3 * tol * (np.outer(e, e.conj()) - np.outer(f, f.conj()))
                projs[at] = projs[at] + AlgebraElement.from_block(alg, b, wobble)
        es = cpmaps.ElementarySet(projs)
        assert raised(lambda: es.validate(tol)) == raised(lambda: validate_per_pair(es, tol))

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("swap", [False, True])
    def test_elementary_set_check_on_oblique_idempotents(self, adjoint, swap):
        # x = (e1 + e3) e1^*, y = (e2 + e3) e2^*: idempotents of trace one with
        # xy = yx = xy^* = 0 and x^*y != 0; adjoints and order move the nonzero product
        e = np.eye(3)
        x, y = np.outer(e[0] + e[2], e[0]), np.outer(e[1] + e[2], e[1])
        pair = [m.conj().T if adjoint else m for m in ((y, x) if swap else (x, y))]
        alg = FiniteDimAlgebra([3])
        es = cpmaps.ElementarySet([AlgebraElement(alg, [m]) for m in pair])
        want = raised(lambda: validate_per_pair(es))
        assert want is not None and "not orthogonal" in want[1]
        assert raised(es.validate) == want

    def test_elementary_set_of_two_algebras_is_rejected(self):
        # e_00 of M_2 and e_11 of M_2 + C share their first size group only
        projs = [matrix_unit(FiniteDimAlgebra(sizes), 0, j, j) for sizes, j in (([2], 0), ([2, 1], 1))]
        with pytest.raises(ValueError, match="different algebras"):
            cpmaps.ElementarySet(projs).validate()
        with pytest.raises(ValueError, match="different algebras"):
            validate_per_pair(cpmaps.ElementarySet(projs))

    @PROPERTY
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.integers(1, 6),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_worst_pair(self, sizes, count, ties, seed):
        rng = np.random.default_rng(seed)
        alg = FiniteDimAlgebra(sizes)
        images = []
        for _ in range(count):
            if ties:  # 0/1 diagonals: many pairs share the smallest product norm
                blocks = [np.diag(rng.integers(0, 2, r)).astype(complex) for r in sizes]
            else:
                blocks = [rand_complex(rng, (r, r)) for r in sizes]
            images.append(AlgebraElement(alg, blocks))
        got = cpmaps._worst_pair(cpmaps._batch(images))
        assert got == worst_pair_per_pair(images)

    @PROPERTY
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_stinespring_self_check(self, sizes, n, zero_block, seed):
        rng = np.random.default_rng(seed)
        phi = rand_cp_contraction(rng, sizes, n)
        if zero_block:  # a block with multiplicity zero
            phi = CPMap(phi.domain, phi.codomain, {key: a for key, a in phi.images.items() if key[0]})
        dil = stinespring(phi)
        assert dilation_defect_per_unit(phi, dil) <= 1e-9

    def test_stinespring_self_check_catches_a_wrong_dilation(self):
        phi = rand_cp_contraction(np.random.default_rng(8), [2, 3], 3)
        real = cpmaps.eigh_canonical

        def scaled(mat):
            w, v = real(mat)
            return w * 1.001, v

        with mock.patch.object(cpmaps, "eigh_canonical", scaled):
            with pytest.raises(AssertionError, match="dilation reconstruction defect"):
                stinespring(phi)

    @PROPERTY
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_choi_and_adjoint_checks(self, dom_sizes, cod_sizes, cp, seed):
        rng = np.random.default_rng(seed)
        if cp:
            phi = rand_cp_contraction(rng, dom_sizes, cod_sizes[0])
        else:
            phi = random_map(rng, dom_sizes, cod_sizes)
        assert phi.min_choi_eigenvalue().tolist() == min_choi_eigenvalue_per_pair(phi)
        assert phi.adjoint_symmetry_defect() == adjoint_symmetry_defect_per_pair(phi)


def scaled_corner(d: int, n: int, t: float, at: int) -> np.ndarray:
    """Images into M_n of x -> t x on rows at..at+d-1 of the domain block M_d: order zero."""
    arr = np.zeros((d, d, n, n), complex)
    for j in range(d):
        for k in range(d):
            arr[j, k, at + j, at + k] = t
    return arr


def trace_corner(d: int, n: int, t: float, at: int, width: int) -> np.ndarray:
    """Images into M_n of e_jj -> t times the identity on rows at..at+width-1: not order
    zero for d > 1."""
    arr = np.zeros((d, d, n, n), complex)
    for j in range(d):
        arr[j, j, range(at, at + width), range(at, at + width)] = t
    return arr


def mixed_three_block_map() -> CPMap:
    """M_2 + M_3 + M_2 into M_5: blocks 0 and 2 each order zero on rows 0-1, so not
    orthogonal, and block 1 a trace map on rows 2-4."""
    images = {(0, 0): scaled_corner(2, 5, 0.5, 0), (1, 0): trace_corner(3, 5, 0.25, 2, 3), (2, 0): scaled_corner(2, 5, 0.3, 0)}
    return CPMap(FiniteDimAlgebra([2, 3, 2]), FiniteDimAlgebra([5]), images)


def assert_bounds_match_recertifying(phi: CPMap, tol: float, seed: int = 0) -> None:
    """The one-pass bounds equal the re-certifying oracle's, and each block's verdict
    equals a fresh certificate of that block alone."""
    assert strict_order_bounds(phi, tol, seed) == strict_order_bounds_recertifying(phi, tol, seed)
    cert = cpmaps._CertificatePass(phi, tol)
    got = [cert.block_order_zero(i) for i in range(phi.domain.num_blocks)]
    assert got == [certify_order_zero(phi.restrict_to_block(i), tol).ok for i in range(phi.domain.num_blocks)]


def constructed_cases() -> dict[str, tuple[CPMap, float]]:
    two, five = FiniteDimAlgebra([2, 2]), FiniteDimAlgebra([5])
    return {
        # each block order zero, the two not orthogonal
        "order zero, not orthogonal": (
            CPMap(two, FiniteDimAlgebra([2]), {(0, 0): scaled_corner(2, 2, 0.5, 0), (1, 0): scaled_corner(2, 2, 0.3, 0)}),
            cpmaps.ORTH_TOL,
        ),
        # orthogonal blocks, so the whole map is read into its blocks, where block 1 fails
        "order zero next to not": (
            CPMap(FiniteDimAlgebra([2, 3]), five, {(0, 0): scaled_corner(2, 5, 0.5, 0), (1, 0): trace_corner(3, 5, 0.25, 2, 3)}),
            cpmaps.ORTH_TOL,
        ),
        # block 0 alone is not contractive, and so is the whole map
        "block and map not contractive": (
            CPMap(two, FiniteDimAlgebra([4]), {(0, 0): scaled_corner(2, 4, 2.0, 0), (1, 0): scaled_corner(2, 4, 0.5, 2)}),
            cpmaps.ORTH_TOL,
        ),
        # ||phi(1_0)|| = 1 + 1.5e-9 is not contractive alone, but block 1 sends e_jj to -2.4e-10 on
        # the same rows (Choi eigenvalues and phi(1_1) within tolerance of positive), so phi(1) is,
        # and the map is order zero
        "block alone not contractive": (
            CPMap(FiniteDimAlgebra([2, 4]), FiniteDimAlgebra([2]), {
                (0, 0): scaled_corner(2, 2, 1 + 1.5e-9, 0), (1, 0): trace_corner(4, 2, -2.4e-10, 0, 2)
            }),
            cpmaps.ORTH_TOL,
        ),
        "mixed three blocks": (mixed_three_block_map(), cpmaps.ORTH_TOL),
        "tol override passes a noisy map": (near_order_zero(np.random.default_rng(3), [2, 2], 1, 1e-6), 1e-3),
        "tol override fails it": (near_order_zero(np.random.default_rng(3), [2, 2], 1, 1e-6), 1e-9),
    }


class TestOneCertificatePass:
    """strict_order_bounds and certify_order_zero read one certificate pass."""

    @pytest.mark.parametrize("name", list(constructed_cases()))
    def test_bounds_match_recertifying_on_constructed_maps(self, name):
        phi, tol = constructed_cases()[name]
        assert_bounds_match_recertifying(phi, tol)

    def test_constructed_maps_reach_each_case(self):
        cases = constructed_cases()
        verdicts = {}
        for name, (phi, tol) in cases.items():
            cert = cpmaps._CertificatePass(phi, tol)
            verdicts[name] = (certify_order_zero(phi, tol).ok, [cert.block_order_zero(i) for i in range(phi.domain.num_blocks)])
        assert verdicts == {
            "order zero, not orthogonal": (False, [True, True]),
            "order zero next to not": (False, [True, False]),
            "block and map not contractive": (False, [False, True]),
            "block alone not contractive": (True, [False, True]),
            "mixed three blocks": (False, [True, False, True]),
            "tol override passes a noisy map": (True, [True, True]),
            "tol override fails it": (False, [False, False]),
        }

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.sampled_from(["cp", "order zero", "near order zero", "not cp"]),
        st.sampled_from([cpmaps.ORTH_TOL, 1e-6, 1e-3, 0.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_bounds_match_recertifying(self, sizes, kind, tol, seed):
        rng = np.random.default_rng(seed)
        if kind == "cp":
            phi = rand_cp_contraction(rng, sizes, int(rng.integers(1, 4)))
        elif kind == "order zero":
            phi = rand_order_zero(rng, sizes, int(rng.integers(1, 3)))
        elif kind == "near order zero":
            phi = near_order_zero(rng, sizes, int(rng.integers(1, 3)), float(rng.choice([1e-9, 1e-7, 1e-5])))
        else:
            phi = random_map(rng, sizes, [int(rng.integers(1, 4))])
        assert_bounds_match_recertifying(phi, tol, seed % 3)

    @pytest.mark.parametrize("phi", [mixed_three_block_map(), trace_map(3), rand_cp_contraction(np.random.default_rng(2), [3, 2], 2)])
    def test_bounds_make_one_pass_and_no_restriction(self, phi):
        real = cpmaps._CertificatePass
        with (
            mock.patch.object(cpmaps, "_CertificatePass", wraps=real) as passes,
            mock.patch.object(cpmaps, "certify_order_zero", wraps=certify_order_zero) as certify,
            mock.patch.object(CPMap, "restrict_to_block", autospec=True, side_effect=CPMap.restrict_to_block) as restrict,
        ):
            strict_order_bounds(phi)
        assert (passes.call_count, certify.call_count, restrict.call_count) == (1, 0, 0)

    def test_bounds_read_a_finished_block_once(self):
        # the map's read runs through block 0 and stops at block 1's first witness; block 0's
        # verdict comes from that read, and block 1 is read again up to its first witness
        phi, tol = constructed_cases()["order zero next to not"]
        real = cpmaps._CertificatePass.block_witnesses
        with mock.patch.object(cpmaps._CertificatePass, "block_witnesses", autospec=True, side_effect=real) as read:
            got = strict_order_bounds(phi, tol)
        assert [c.args[1] for c in read.call_args_list] == [0, 1, 1]
        assert got == strict_order_bounds_recertifying(phi, tol)

    def test_capped_certificate_of_the_mixed_map_carries_no_data(self):
        cert = certify_order_zero(mixed_three_block_map())
        assert not cert.ok and len(cert.witnesses) == cpmaps.MAX_WITNESSES
        assert cert.witnesses[0] == "blocks 0,2: ||phi(1_0) phi(1_2)|| = 1.500e-01 > tol"
        assert cert.witnesses[-1] == "block 1: sigma multiplicativity defect 1.111e-01 at units (11)(22)"
        assert (cert.h_blocks, cert.sigma_maps, cert.unit) == ([], [], None)


def _inexact_cap_map() -> CPMap:
    """Two copies of the trace map on M_2 in orthogonal corners of M_4."""
    images = {}
    for i in range(2):
        arr = np.zeros((2, 2, 4, 4), complex)
        for j in range(2):
            arr[j, j, range(2 * i, 2 * i + 2), range(2 * i, 2 * i + 2)] = 0.5
        images[(i, 0)] = arr
    return CPMap(FiniteDimAlgebra([2, 2]), FiniteDimAlgebra([4]), images)


@pytest.mark.parametrize(
    "make, m, seed, tol, samples, best, found",
    [
        # exhausts its budget: the images of the two blocks are orthogonal
        (_inexact_cap_map, 3, 7, 1e-6, 200, "0.0", None),
        (lambda: near_order_zero(np.random.default_rng(0), [3, 2], 1, 1e-3), 2, 0, 3e-4, 200, "0.00026515751543527624", None),
        # found in the corner phase
        (
            lambda: near_order_zero(np.random.default_rng(0), [3, 2], 1, 1e-3), 3, 0, 2.26e-4, 165, "0.00022695814844254903",
            "8bcc2ea7485ae5d0a0acfdd41c3e3a71dd7515141369b177c6259d643ea62689",
        ),
    ],
)
def test_witness_search_is_pinned(make, m, seed, tol, samples, best, found):
    """Samples, best product and found set of seeded searches, as the search that
    recomputed the worst pair's corner on every step gave them."""
    r = witness_elementary_set(make(), m, seed=seed, tol=tol)
    digest = None
    if r.found is not None:
        digest = hashlib.sha256(b"".join(s.tobytes() for p in r.found.projections for s in p.stacks)).hexdigest()
    assert (r.samples_used, repr(r.best_min_product), digest) == (samples, best, found)
