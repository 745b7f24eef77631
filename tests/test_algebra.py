"""Block elements, spectra, and the scalar functional calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprank import (
    AlgebraElement,
    CPMap,
    FiniteDimAlgebra,
    GapHypothesisError,
    apply_function,
    cutoff_below,
    indicator_above,
    inverse_above_gap,
    inverse_sqrt_on_support,
    soft_indicator,
    spectrum,
    support_projection,
    validate,
)
from cprank.algebra import RANK_TOL, block_spectra

from conftest import rand_complex, rand_hermitian, rand_psd, rand_unitary


def diag_elem(*vals, algebra=None):
    alg = algebra or FiniteDimAlgebra([len(vals)])
    return AlgebraElement(alg, [np.diag(np.array(vals, dtype=complex))])


class TestSpectrum:
    def test_diagonal(self):
        a = diag_elem(0.3, 0.7)
        assert np.allclose(spectrum(a), [0.3, 0.7])

    def test_offdiagonal_symmetry(self):
        a = AlgebraElement(FiniteDimAlgebra([2]), [np.array([[0, 1], [1, 0]], dtype=complex)])
        assert np.allclose(spectrum(a), [-1.0, 1.0])

    def test_against_companion_matrix_roots(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = rand_hermitian(rng, 3)
            a = AlgebraElement(FiniteDimAlgebra([3]), [h])
            # oracle: roots of the characteristic polynomial via the companion matrix
            roots = np.sort(np.roots(np.poly(h)).real)
            assert np.abs(spectrum(a) - roots).max() <= 1e-8

    def test_rejects_non_hermitian_with_witness(self):
        a = AlgebraElement(FiniteDimAlgebra([2]), [np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(ValueError, match="asymmetry"):
            spectrum(a)

    def test_merged_across_blocks_sorted(self):
        alg = FiniteDimAlgebra([2, 1])
        a = AlgebraElement(alg, [np.diag([0.9, 0.1]).astype(complex), np.array([[0.5]], dtype=complex)])
        assert np.allclose(spectrum(a), [0.1, 0.5, 0.9])

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(12)
        alg = FiniteDimAlgebra([4])
        for _ in range(25):
            h = rand_hermitian(rng, 4)
            u = rand_unitary(rng, 4)
            s1 = spectrum(AlgebraElement(alg, [h]))
            s2 = spectrum(AlgebraElement(alg, [u @ h @ u.conj().T]))
            assert np.abs(s1 - s2).max() <= 1e-9


class TestApplyFunction:
    def test_cutoff_below_example(self):
        a = diag_elem(0.1, 0.5, 0.9)
        out = apply_function(a, cutoff_below(0.2, 0.2))
        assert np.allclose(np.diag(out.blocks[0]).real, [0.0, 0.5, 0.9])

    def test_half_indicator_is_projection(self):
        rng = np.random.default_rng(13)
        from conftest import two_cluster_hermitian

        h = AlgebraElement(FiniteDimAlgebra([4]), [two_cluster_hermitian(rng, 4, 0.05)])
        p = apply_function(h, indicator_above(0.5))
        assert (p @ p - p).norm() <= 1e-12

    def test_gap_inverse_identity(self):
        h = diag_elem(0.02, 0.98)
        inv = apply_function(h, inverse_above_gap(0.1))
        proj = apply_function(h, indicator_above(0.5))
        assert ((inv @ h) - proj).norm() <= 1e-12
        assert ((h @ inv) - proj).norm() <= 1e-12

    def test_gap_violation_reports_eigenvalue(self):
        h = diag_elem(0.02, 0.5, 0.98)
        with pytest.raises(GapHypothesisError, match="0.5"):
            apply_function(h, inverse_above_gap(0.1))

    def test_threshold_gap_violation(self):
        h = diag_elem(0.45, 0.9)
        with pytest.raises(GapHypothesisError):
            apply_function(h, indicator_above(0.5, gap=0.2))

    def test_cutoff_tracks_identity_within_eps(self):
        rng = np.random.default_rng(14)
        for eps in (0.05, 0.2, 0.4):
            for _ in range(30):
                n = rng.integers(2, 7)
                h = AlgebraElement(FiniteDimAlgebra([int(n)]), [rand_psd(rng, int(n), norm=1.0)])
                out = apply_function(h, cutoff_below(eps, eps))
                assert (out - h).norm() <= eps + 1e-12

    def test_composition(self):
        rng = np.random.default_rng(15)
        alg = FiniteDimAlgebra([5])
        h = AlgebraElement(alg, [rand_psd(rng, 5, norm=1.0)])
        inner = cutoff_below(0.1, 0.1)
        outer = indicator_above(0.3)
        step = apply_function(apply_function(h, inner), outer)
        # oracle: scalar composition applied directly to the eigenvalues
        w = block_spectra(h)[0]
        fw = np.where(np.interp(w, inner.knots, inner.values) >= 0.3 - 1e-12, 1.0, 0.0)
        assert np.abs(np.sort(block_spectra(step)[0]) - np.sort(fw)).max() <= 1e-9

    def test_domain_violation(self):
        from cprank import piecewise_linear

        a = diag_elem(2.0)
        with pytest.raises(ValueError, match="domain"):
            apply_function(a, piecewise_linear([0.0, 1.0], [0.0, 1.0]))


class TestSupportProjection:
    def test_diagonal(self):
        p = support_projection(diag_elem(0.0, 0.3))
        assert np.allclose(p.blocks[0], np.diag([0.0, 1.0]))

    def test_zero(self):
        p = support_projection(diag_elem(0.0, 0.0))
        assert p.norm() == 0.0

    def test_rank_matches_eigenvalue_count(self):
        rng = np.random.default_rng(16)
        alg = FiniteDimAlgebra([6])
        for _ in range(20):
            rank = int(rng.integers(1, 6))
            g = rand_complex(rng, (6, rank))
            a = AlgebraElement(alg, [g @ g.conj().T])
            a = (1.0 / a.norm()) * a
            p = support_projection(a)
            w = np.linalg.eigvalsh(a.blocks[0])
            assert abs(np.trace(p.blocks[0]).real - np.sum(w > 1e-6)) < 1e-9

    def test_acts_as_unit(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a = AlgebraElement(FiniteDimAlgebra([n]), [rand_psd(rng, n, norm=1.0)])
            p = support_projection(a)
            assert ((p @ a) - a).norm() <= 1e-10
            assert ((a @ p) - a).norm() <= 1e-10

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            support_projection(diag_elem(-0.5, 1.0))


class TestNormAndValidate:
    def test_norm_examples(self):
        assert diag_elem(0.3, -0.7).norm() == pytest.approx(0.7)
        p = diag_elem(0.0, 1.0)
        assert p.norm() == pytest.approx(1.0)

    def test_cstar_identity(self):
        rng = np.random.default_rng(18)
        alg = FiniteDimAlgebra([3, 2])
        for _ in range(25):
            a = AlgebraElement(alg, [rand_complex(rng, (3, 3)), rand_complex(rng, (2, 2))])
            # oracle: largest singular value squared
            svmax = max(np.linalg.svd(b, compute_uv=False).max() for b in a.blocks)
            assert (a.adjoint() @ a).norm() == pytest.approx(svmax**2, rel=1e-10)

    def test_validate_examples(self):
        one = AlgebraElement.identity(FiniteDimAlgebra([3]))
        assert validate(one, "projection")
        rep = validate(diag_elem(0.5, 1.0), "projection", 1e-9)
        assert not rep.ok
        assert rep.defect == pytest.approx(0.25)

    def test_validate_contraction_and_positive(self):
        assert validate(diag_elem(0.5, -0.2), "contraction").ok
        assert not validate(diag_elem(1.5), "contraction").ok
        assert not validate(diag_elem(-0.1, 0.2), "positive").ok
        assert validate(diag_elem(0.0, 0.2), "positive").ok


# ---------------------------------------------------------------------------
# stacked storage against per-block numpy references
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def ref_eigh_canonical(mat):
    """Matrix-by-matrix eigh with the documented phase rule, column by column."""
    w, v = np.linalg.eigh(mat)
    for i in range(v.shape[1]):
        col = v[:, i]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
        if nz.size:
            c = col[nz[0]]
            v[:, i] = col * (c.conjugate() / abs(c))
    return w, v


def sym(b):
    return (b + b.conj().T) / 2


@st.composite
def mixed_algebras(draw):
    """An algebra with repeated block sizes 1-4, and a seeded generator."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    return FiniteDimAlgebra(sizes), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def blocks_of(alg, rng, kind="complex"):
    """Random blocks.  Hermitian and positive ones may almost decouple the
    first basis vector: LAPACK returns eigenvectors with a real first entry,
    and only when that entry is negligible does the phase rule act on a
    complex one."""
    out = []
    for r in alg.block_sizes:
        if kind == "complex":
            out.append(rand_complex(rng, (r, r)))
            continue
        if kind == "hermitian":
            b = rand_hermitian(rng, r)
        else:
            g = rand_complex(rng, (r, int(rng.integers(0, r + 1))))
            b = g @ g.conj().T
        if rng.random() < 0.5:
            b[0, 1:] *= 1e-14
            b[1:, 0] *= 1e-14
        out.append(b)
    return out


def same_blocks(elem, ref):
    return len(elem.blocks) == len(ref) and all(np.array_equal(a, b) for a, b in zip(elem.blocks, ref))


class TestStackedMatchesPerBlock:
    @PROPERTY
    @given(mixed_algebras())
    def test_arithmetic_and_norm(self, case):
        alg, rng = case
        xb, yb = blocks_of(alg, rng), blocks_of(alg, rng)
        x, y = AlgebraElement(alg, xb), AlgebraElement(alg, yb)
        assert same_blocks(x, xb)
        assert x.norm() == max(float(np.linalg.norm(b, 2)) for b in xb)
        assert same_blocks(x @ y, [a @ b for a, b in zip(xb, yb)])
        assert same_blocks(x + y, [a + b for a, b in zip(xb, yb)])
        assert same_blocks(x.adjoint(), [a.conj().T for a in xb])

    @PROPERTY
    @given(mixed_algebras())
    def test_spectra_and_functional_calculus(self, case):
        alg, rng = case
        hb = blocks_of(alg, rng, "hermitian")
        h = AlgebraElement(alg, hb)
        spectra = block_spectra(h)
        assert len(spectra) == alg.num_blocks
        assert all(np.array_equal(w, np.linalg.eigvalsh(sym(b))) for w, b in zip(spectra, hb))
        spec = soft_indicator(0.1, 0.3)
        ref = []
        for b in hb:
            w, v = ref_eigh_canonical(sym(b))
            fw = np.interp(np.clip(w, spec.knots[0], spec.knots[-1]), spec.knots, spec.values)
            ref.append((v * fw) @ v.conj().T)
        assert same_blocks(apply_function(h, spec), ref)

    @PROPERTY
    @given(mixed_algebras())
    def test_support_projection(self, case):
        alg, rng = case
        pb = blocks_of(alg, rng, "positive")
        ref = []
        for b in pb:
            w, v = ref_eigh_canonical(sym(b))
            ref.append((v * (w > RANK_TOL).astype(float)) @ v.conj().T)
        assert same_blocks(support_projection(AlgebraElement(alg, pb)), ref)

    @PROPERTY
    @given(mixed_algebras(), mixed_algebras())
    def test_cpmap_apply(self, dom_case, cod_case):
        dom, rng = dom_case
        cod, _ = cod_case
        pairs = [(i, c) for i in range(dom.num_blocks) for c in range(cod.num_blocks)]
        images = {}
        for p in rng.permutation(len(pairs)):
            i, c = pairs[p]
            if rng.random() < 0.6:
                d, r = dom.block_sizes[i], cod.block_sizes[c]
                images[(i, c)] = rand_complex(rng, (d, d, r, r))
        phi = CPMap(dom, cod, images)
        xb = blocks_of(dom, rng)
        ref = [np.zeros((r, r), complex) for r in cod.block_sizes]
        for (i, c), arr in images.items():
            ref[c] = ref[c] + np.einsum("jk,jkab->ab", xb[i], arr)
        assert same_blocks(phi.apply(AlgebraElement(dom, xb)), ref)
        i = int(rng.integers(dom.num_blocks))
        j, k = rng.integers(dom.block_sizes[i], size=2)
        ref = [np.zeros((r, r), complex) for r in cod.block_sizes]
        for (bi, c), arr in images.items():
            if bi == i:
                ref[c] = ref[c] + arr[j, k]
        assert same_blocks(phi.unit_image(i, j, k), ref)

    def test_violation_names_first_block(self):
        # the size-2 blocks are stored together, ahead of the size-1 block;
        # the error still names block 1, the first offending block
        alg = FiniteDimAlgebra((2, 1, 2))
        h = AlgebraElement(alg, [np.diag([0.0, 1.0]), [[0.5]], np.diag([0.45, 1.0])])
        with pytest.raises(GapHypothesisError, match="eigenvalue 0.5 "):
            apply_function(h, indicator_above(0.5, gap=0.2))
        with pytest.raises(ValueError, match="eigenvalue -5.000e-01"):
            support_projection(AlgebraElement(alg, [np.eye(2), [[-0.5]], -np.eye(2)]))

    def test_blocks_are_read_only_views(self):
        alg = FiniteDimAlgebra((1, 2, 1))
        x = AlgebraElement(alg, [[[1.0]], np.eye(2), [[3.0]]])
        assert len(alg.group_sizes) == 2 and x.stacks[0].shape == (2, 1, 1)
        with pytest.raises(ValueError):
            x.blocks[2][0, 0] = 0.0

