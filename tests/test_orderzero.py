"""Order-zero structure: decomposition, perturbation, and the local AF step."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprank import (
    AlgebraElement,
    CPMap,
    FiniteDimAlgebra,
    LocalApproximation,
    af_local_step,
    check_projection_case,
    decompose_order_zero,
    dist_to_hom_image,
    perturb_to_hom,
)
from cprank import cpmaps
from cprank.orderzero import HypothesisFailure, _hom_defect, map_norm_lower_bound

from conftest import identity_map, near_order_zero, rand_complex, rand_cp_contraction, rand_order_zero, rand_unitary
from oracles import certify_order_zero_per_unit, hom_defect_per_unit, map_norm_lower_bound_per_probe


def tensor_diag_map(diag, r=2):
    """x -> x (x) diag, from M_r into M_{r*len(diag)}."""
    d = np.asarray(diag, dtype=float)
    total = r * len(d)
    dom = FiniteDimAlgebra([r])
    cod = FiniteDimAlgebra([total])
    arr = np.zeros((r, r, total, total), complex)
    for j in range(r):
        for k in range(r):
            e = np.zeros((r, r))
            e[j, k] = 1.0
            arr[j, k] = np.kron(e, np.diag(d))
    return CPMap(dom, cod, {(0, 0): arr})


class TestDecompose:
    def test_tensor_diagonal(self):
        phi = tensor_diag_map([0.5, 1.0])
        dec = decompose_order_zero(phi)
        assert dec.blocks[0].eigenvalue_support == (0.5, 1.0)
        h = dec.blocks[0].h.blocks[0]
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [0.5, 0.5, 1.0, 1.0])
        # sigma is x -> x (x) 1 on the support
        sig = dec.blocks[0].sigma
        x = np.array([[0.2, 1.0], [1.0, -0.3]], dtype=complex)
        assert np.linalg.norm(sig.apply_to_block(0, x).blocks[0] - np.kron(x, np.eye(2)), 2) <= 1e-9

    def test_homomorphism_support_is_one(self):
        phi = identity_map(3)
        dec = decompose_order_zero(phi)
        assert dec.blocks[0].eigenvalue_support == (1.0,)

    def test_zero_map_empty_support(self):
        alg = FiniteDimAlgebra([2])
        phi = CPMap(alg, alg, {})
        dec = decompose_order_zero(phi)
        assert dec.blocks[0].eigenvalue_support == ()

    def test_random_reconstruction(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 3)))]
            phi = rand_order_zero(rng, sizes, int(rng.integers(1, 5)))
            dec = decompose_order_zero(phi)
            assert dec.reconstruction_defect <= 1e-9

    def test_rejects_non_order_zero(self):
        alg = FiniteDimAlgebra([2])
        arr = np.zeros((2, 2, 2, 2), complex)
        for j in range(2):
            arr[j, j] = np.eye(2) / 2
        phi = CPMap(alg, alg, {(0, 0): arr})
        with pytest.raises(ValueError, match="not order zero"):
            decompose_order_zero(phi)


class TestProjectionCase:
    def test_unital_order_zero_map_is_hom(self):
        verdict = check_projection_case(identity_map(2))
        assert verdict.verdict == "holds"
        assert verdict.multiplicativity <= 1e-9

    def test_non_projection_unit_inapplicable(self):
        phi = tensor_diag_map([0.5, 1.0])
        verdict = check_projection_case(phi)
        assert verdict.verdict == "inapplicable"

    def test_corner_of_homomorphism(self):
        # p rho(.) p with central p: an order-zero map with projection unit image
        phi = tensor_diag_map([1.0, 0.0])
        verdict = check_projection_case(phi)
        assert verdict.verdict == "holds"


class TestPerturbToHom:
    def test_scaled_conjugation(self):
        rng = np.random.default_rng(52)
        u = rand_unitary(rng, 3)
        alg = FiniteDimAlgebra([3])
        arr = np.zeros((3, 3, 3, 3), complex)
        for j in range(3):
            for k in range(3):
                e = np.zeros((3, 3))
                e[j, k] = 1.0
                arr[j, k] = 0.9 * u.conj().T @ e @ u
        phi = CPMap(alg, alg, {(0, 0): arr})
        gamma = 0.09 + 1e-9
        rep = perturb_to_hom(phi, gamma)
        assert rep.hom_defect <= 1e-9
        assert rep.moved.measured == pytest.approx(0.1, abs=1e-9)
        assert rep.moved.measured <= 12 * gamma + 2 * np.sqrt(gamma)
        # phi' is the exact conjugation
        x = rand_complex(rng, (3, 3))
        got = rep.phi_prime.apply_to_block(0, x).blocks[0]
        assert np.linalg.norm(got - u.conj().T @ x @ u, 2) <= 1e-9

    def test_homomorphism_unchanged(self):
        phi = identity_map(2)
        rep = perturb_to_hom(phi, 0.1)
        assert rep.moved.measured <= 1e-10

    def test_spectral_snap(self):
        phi = tensor_diag_map([0.97, 1.0])
        rep = perturb_to_hom(phi, 0.03 + 1e-9)
        x = np.array([[1.0, 0.5], [0.5, 0.0]], dtype=complex)
        got = rep.phi_prime.apply_to_block(0, x).blocks[0]
        assert np.linalg.norm(got - np.kron(x, np.eye(2)), 2) <= 1e-9

    def test_idempotent(self):
        phi = tensor_diag_map([0.9, 1.0])
        rep = perturb_to_hom(phi, 0.09 + 1e-9)
        again = perturb_to_hom(rep.phi_prime, 0.2)
        assert again.moved.measured <= 1e-9

    def test_bound_suite(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            sizes = [int(rng.integers(1, 4))]
            phi = rand_order_zero(rng, sizes, int(rng.integers(1, 4)), spectrum_range=(0.8, 1.0))
            h = phi.apply_one()
            defect = (h @ h - h).norm()
            gamma = min(defect * 1.01 + 1e-9, 0.2499)
            rep = perturb_to_hom(phi, gamma)
            assert rep.hom_defect <= 1e-9
            assert rep.moved.measured <= rep.moved.bound + 1e-9
            assert rep.moved.measured <= rep.cb_upper + 1e-9

    def test_gamma_regime_enforced(self):
        phi = tensor_diag_map([0.5, 1.0])
        with pytest.raises(ValueError, match="gamma"):
            perturb_to_hom(phi, 0.3)
        with pytest.raises(ValueError, match="not below gamma"):
            perturb_to_hom(phi, 0.2)  # defect 0.25 >= gamma

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(1, 3))
    def test_moved_is_the_probe_norm_against_the_bound(self, seed, sizes, mult):
        phi = rand_order_zero(np.random.default_rng(seed), sizes, mult, spectrum_range=(0.8, 1.0))
        h = phi.apply_one()
        gamma = min((h @ h - h).norm() * 1.01 + 1e-9, 0.2499)
        rep = perturb_to_hom(phi, gamma)
        want = (map_norm_lower_bound(rep.phi_prime, phi), 12 * gamma + 2 * np.sqrt(gamma))
        assert (rep.moved.measured, rep.moved.bound) == want and rep.moved.ok


class TestDistToHomImage:
    def test_member_of_image(self):
        phi = identity_map(2)
        a = AlgebraElement(phi.codomain, [np.array([[1.0, 2.0], [3.0, 4.0]])])
        assert dist_to_hom_image(a, phi) <= 1e-12

    def test_scalars_in_m2(self):
        # image = scalar multiples of the identity
        dom = FiniteDimAlgebra([1])
        cod = FiniteDimAlgebra([2])
        phi = CPMap(dom, cod, {(0, 0): np.eye(2, dtype=complex).reshape(1, 1, 2, 2)})
        a = AlgebraElement(cod, [np.diag([1.0, -1.0]).astype(complex)])
        assert dist_to_hom_image(a, phi) == pytest.approx(1.0)

    def test_translation_invariance_along_image(self):
        dom = FiniteDimAlgebra([1])
        cod = FiniteDimAlgebra([2])
        phi = CPMap(dom, cod, {(0, 0): np.eye(2, dtype=complex).reshape(1, 1, 2, 2)})
        a = AlgebraElement(cod, [np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)])
        shifted = a + 5.0 * AlgebraElement.identity(cod)
        assert dist_to_hom_image(a, phi) == pytest.approx(dist_to_hom_image(shifted, phi), abs=1e-9)


def block_embedding_m2_m3() -> tuple[LocalApproximation, FiniteDimAlgebra]:
    """F = M_2 + M_3 embedded block-diagonally in M_5 with the cut-down psi."""
    F = FiniteDimAlgebra([2, 3])
    A = FiniteDimAlgebra([5])
    phi_images = {}
    for i, (d, off) in enumerate(((2, 0), (3, 2))):
        arr = np.zeros((d, d, 5, 5), complex)
        for j in range(d):
            for k in range(d):
                big = np.zeros((5, 5), complex)
                big[off + j, off + k] = 1.0
                arr[j, k] = big
        phi_images[(i, 0)] = arr
    phi = CPMap(F, A, phi_images)
    psi_images = {}
    for i, (d, off) in enumerate(((2, 0), (3, 2))):
        arr = np.zeros((5, 5, d, d), complex)
        for j in range(d):
            for k in range(d):
                small = np.zeros((d, d), complex)
                small[j, k] = 1.0
                arr[off + j, off + k] = small
        psi_images[(0, i)] = arr
    psi = CPMap(A, F, psi_images)
    return LocalApproximation(F, psi, phi), A


def assert_distance_checks(rep, count, eps):
    """Per element a_idx, in order: dist(a_idx, phi'(F')) against the chain
    bound, then ||a_idx - phi'(psi(a_idx))|| against it plus the move from phi
    to phi'; every one holds."""
    chain = 2 * np.sqrt(2) * eps**0.25 + eps + 2 * eps**0.125
    direct = chain + rep.perturbation.moved.measured
    want = [(step, bound, f"a_{idx}") for idx in range(count) for step, bound in (("certified", chain), ("direct", direct))]
    assert [(c.step, c.bound, c.context) for c in rep.distances] == want
    assert all(c.ok is True for c in rep.distances)


class TestAFLocalStep:
    def test_exact_identity_instance(self):
        F = FiniteDimAlgebra([4])
        idm = identity_map(4)
        approx = LocalApproximation(F, idm, idm)
        a = AlgebraElement(F, [np.diag([0.1, 0.4, 0.7, 1.0]).astype(complex)])
        rep = af_local_step([a], approx, AlgebraElement.identity(F), eps=0.01)
        assert rep.subalgebra.block_sizes == (4,)
        assert all(d.measured <= 1e-9 for d in rep.distances if d.step == "direct")
        assert all(d.measured <= 1e-9 for d in rep.distances if d.step == "certified")
        assert all(c.ok for c in rep.hypotheses.values())
        assert_distance_checks(rep, 1, 0.01)

    def test_block_embedding_instance(self):
        approx, A = block_embedding_m2_m3()
        rng = np.random.default_rng(54)
        blocks = []
        for d, off in ((2, 0), (3, 2)):
            g = rand_complex(rng, (d, d))
            big = np.zeros((5, 5), complex)
            big[off : off + d, off : off + d] = g / max(np.linalg.norm(g, 2), 1.0)
            blocks.append(big)
        a_list = [AlgebraElement(A, [b]) for b in blocks]
        u = AlgebraElement(A, [np.eye(5, dtype=complex)])
        rep = af_local_step(a_list, approx, u, eps=0.05)
        assert all(d.measured <= 1e-9 for d in rep.distances if d.step == "certified")
        assert_distance_checks(rep, 2, 0.05)

    def test_near_af_instance(self):
        # x -> x (x) diag(0.99, 1): approximating x (x) 1 within eps
        phi = tensor_diag_map([0.99, 1.0])
        F = phi.domain
        A = phi.codomain
        # psi reads the second diagonal slot back
        arr = np.zeros((4, 4, 2, 2), complex)
        for j in range(2):
            for k in range(2):
                arr[2 * j + 1, 2 * k + 1, j, k] = 1.0
        psi = CPMap(A, F, {(0, 0): arr})
        approx = LocalApproximation(F, psi, phi)
        a_list = [
            AlgebraElement(A, [np.kron(np.diag([1.0, 0.2]), np.eye(2)).astype(complex)]),
            AlgebraElement(A, [np.kron(np.array([[0.5, 0.5], [0.5, 0.5]]), np.eye(2))]),
        ]
        u = AlgebraElement.identity(A)
        eps = 0.05
        rep = af_local_step(a_list, approx, u, eps=eps)
        bound = 2 * np.sqrt(2) * eps**0.25 + eps + 2 * eps**0.125
        for d in rep.distances:
            if d.step == "certified":
                assert d.measured <= bound
            else:
                assert d.step == "direct" and d.measured <= bound + rep.perturbation.moved.measured
        assert_distance_checks(rep, 2, eps)
        # the snapped homomorphism reproduces x (x) 1 exactly
        got = rep.perturbation.phi_prime.apply_to_block(0, np.eye(2)).blocks[0]
        assert np.linalg.norm(got - np.eye(4), 2) <= 1e-9

    def test_hypothesis_exactly_on_its_bound_fails(self):
        # (ii) holds only when ||phi(psi(u)) - u|| < eps: equality must fail
        phi = tensor_diag_map([0.99, 1.0])
        arr = np.zeros((4, 4, 2, 2), complex)
        for j in range(2):
            for k in range(2):
                arr[2 * j + 1, 2 * k + 1, j, k] = 1.0
        psi = CPMap(phi.codomain, phi.domain, {(0, 0): arr})
        approx = LocalApproximation(phi.domain, psi, phi)
        u = AlgebraElement.identity(phi.codomain)
        measured = (phi.apply(psi.apply(u)) - u).norm()
        assert measured > 0
        with pytest.raises(HypothesisFailure, match=r"\(ii\)") as err:
            af_local_step([], approx, u, eps=measured)
        assert err.value.name == "(ii)"
        assert af_local_step([], approx, u, eps=np.nextafter(measured, 1.0)).hypotheses["(ii)"].ok

    def test_failing_hypothesis_is_named(self):
        F = FiniteDimAlgebra([4])
        idm = identity_map(4)
        approx = LocalApproximation(F, idm, idm)
        a = AlgebraElement(F, [np.diag([2.0, 0.4, 0.7, 1.0]).astype(complex)])
        u_bad = AlgebraElement(F, [np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)])
        with pytest.raises(HypothesisFailure, match=r"\(iii\)"):
            af_local_step([a], approx, u_bad, eps=0.01)

    def test_map_not_order_zero_fails_hypothesis_vi(self):
        # with no elements and u = 0, (i)-(v) hold trivially and (vi) decides;
        # x -> tr(x)/2 1 on M_2 is not order zero
        F = FiniteDimAlgebra([2])
        arr = np.zeros((2, 2, 2, 2), complex)
        arr[0, 0] = arr[1, 1] = np.eye(2) / 2
        trace = CPMap(F, F, {(0, 0): arr})
        zero = AlgebraElement(F, [np.zeros((2, 2), complex)])
        witness = r"block 0: \|\|phi\(e_00\) phi\(e_11\)\|\|"
        with pytest.raises(HypothesisFailure, match=r"^hypothesis \(vi\) failed: " + witness):
            af_local_step([], LocalApproximation(F, trace, trace), zero, eps=0.01)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
NEAR_ORDER_ZERO = (
    st.lists(st.integers(1, 3), min_size=1, max_size=2),
    st.integers(1, 2),
    st.sampled_from([0.0, 1e-10, 1e-8, 1e-6, 0.5]),
    st.integers(0, 2**32 - 1),
)


class TestScreenedDefects:
    """The screened and batched defects against one SVD per block, one element at a time."""

    @PROPERTY
    @given(*NEAR_ORDER_ZERO)
    def test_hom_defect(self, sizes, copies, noise, seed):
        phi = near_order_zero(np.random.default_rng(seed), sizes, copies, noise)
        assert _hom_defect(phi) == hom_defect_per_unit(phi)
        snapped = perturb_to_hom(rand_order_zero(np.random.default_rng(seed), sizes, 1, (0.9, 1.0)), 0.2)
        assert _hom_defect(snapped.phi_prime) == hom_defect_per_unit(snapped.phi_prime)

    @PROPERTY
    @given(*NEAR_ORDER_ZERO, st.integers(0, 9))
    def test_map_norm_lower_bound(self, sizes, copies, noise, seed, probe_seed):
        rng = np.random.default_rng(seed)
        phi = near_order_zero(rng, sizes, copies, noise)
        other = near_order_zero(rng, sizes, copies, noise)
        if other.codomain.block_sizes != phi.codomain.block_sizes:
            other = rand_cp_contraction(rng, sizes, phi.codomain.block_sizes[0])
            other = CPMap(phi.domain, phi.codomain, other.images)
        for a, b in ((phi, other), (phi, phi)):
            assert map_norm_lower_bound(a, b, probe_seed) == map_norm_lower_bound_per_probe(a, b, probe_seed)

    @PROPERTY
    @given(*NEAR_ORDER_ZERO[:2], st.integers(0, 2**32 - 1))
    def test_decomposition_reconstruction(self, sizes, copies, seed):
        phi = near_order_zero(np.random.default_rng(seed), sizes, copies, 0.0)
        got = decompose_order_zero(phi)
        assert got.reconstruction_defect == certify_order_zero_per_unit(phi).reconstruction_defect

    @PROPERTY
    @given(*NEAR_ORDER_ZERO, st.sampled_from([1, 40, 100, 300, 1000]))
    def test_hom_defect_in_small_chunks(self, sizes, copies, noise, seed, budget):
        phi = near_order_zero(np.random.default_rng(seed), sizes, copies, noise)
        with mock.patch.object(cpmaps, "CHUNK_ENTRIES", budget):
            assert _hom_defect(phi) == hom_defect_per_unit(phi)

