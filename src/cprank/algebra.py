"""Block-matrix algebra elements, spectra, and scalar functional calculus.

A finite-dimensional algebra is a direct sum of full matrix blocks; its
elements are block-diagonal complex matrices.  Everything downstream (the
projection lemmas, completely positive maps, cover extraction) computes on
these values.  All operations here are pure functions of their inputs and
safe for concurrent use; eigendecompositions are deterministic with a fixed
phase convention so repeated runs give identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: default tolerance for identity-type checks (hermitian, projection, ...)
DEFAULT_TOL = 1e-9
#: default rank cut for support projections and pseudo-inverses
RANK_TOL = 1e-6
#: default hard cap on matrix block sizes (desk-scale guarantee)
DEFAULT_MAX_BLOCK = 64
#: closed-comparison snap for spectral thresholds
THRESHOLD_SNAP = 1e-12


class GapHypothesisError(ValueError):
    """Raised when a scalar function needs a spectral gap the operand lacks."""


@dataclass(frozen=True)
class FiniteDimAlgebra:
    """Direct sum of full matrix blocks, identified by its block sizes."""

    block_sizes: tuple[int, ...]

    def __init__(self, block_sizes: Iterable[int], max_block: int = DEFAULT_MAX_BLOCK):
        sizes = tuple(int(r) for r in block_sizes)
        if not sizes:
            raise ValueError("algebra needs at least one block")
        for r in sizes:
            if r < 1:
                raise ValueError(f"block size must be >= 1, got {r}")
            if r > max_block:
                raise ValueError(f"block size {r} exceeds cap {max_block}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def total_dim(self) -> int:
        """Vector-space dimension, the sum of squared block sizes."""
        return sum(r * r for r in self.block_sizes)

    @property
    def rank_sum(self) -> int:
        """Sum of block sizes (the size of a faithful block-diagonal model)."""
        return sum(self.block_sizes)

    def is_abelian(self) -> bool:
        return all(r == 1 for r in self.block_sizes)


class AlgebraElement:
    """Block-diagonal element of a :class:`FiniteDimAlgebra`.

    Blocks are copied on construction and treated as immutable afterwards.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: FiniteDimAlgebra, blocks: Sequence[np.ndarray]):
        if len(blocks) != algebra.num_blocks:
            raise ValueError(
                f"expected {algebra.num_blocks} blocks, got {len(blocks)}"
            )
        mats = []
        for r, b in zip(algebra.block_sizes, blocks):
            m = np.array(b, dtype=complex)
            if m.shape != (r, r):
                raise ValueError(f"block shape {m.shape} does not match size {r}")
            mats.append(m)
        self.algebra = algebra
        self.blocks = mats

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, algebra: FiniteDimAlgebra) -> "AlgebraElement":
        return cls(algebra, [np.zeros((r, r), complex) for r in algebra.block_sizes])

    @classmethod
    def identity(cls, algebra: FiniteDimAlgebra) -> "AlgebraElement":
        return cls(algebra, [np.eye(r, dtype=complex) for r in algebra.block_sizes])

    @classmethod
    def from_block(cls, algebra: FiniteDimAlgebra, index: int, block: np.ndarray) -> "AlgebraElement":
        """Element supported in a single block, zero elsewhere."""
        out = cls.zeros(algebra)
        r = algebra.block_sizes[index]
        m = np.array(block, dtype=complex)
        if m.shape != (r, r):
            raise ValueError(f"block shape {m.shape} does not match size {r}")
        out.blocks[index] = m
        return out

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "AlgebraElement") -> None:
        if self.algebra.block_sizes != other.algebra.block_sizes:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [scalar * a for a in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.conj().T for a in self.blocks])

    # -- metrics -----------------------------------------------------------

    def norm(self) -> float:
        """Operator norm: max over blocks of the largest singular value."""
        return max(float(np.linalg.norm(b, 2)) if b.size else 0.0 for b in self.blocks)

    def hermitian_defect(self) -> float:
        return max(float(np.linalg.norm(b - b.conj().T, 2)) for b in self.blocks)

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.hermitian_defect() <= tol

    def copy(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.blocks)

    def __repr__(self) -> str:
        return f"AlgebraElement(blocks={self.algebra.block_sizes}, norm={self.norm():.3g})"


def matrix_unit(algebra: FiniteDimAlgebra, block: int, row: int, col: int) -> AlgebraElement:
    r = algebra.block_sizes[block]
    m = np.zeros((r, r), complex)
    m[row, col] = 1.0
    return AlgebraElement.from_block(algebra, block, m)


def projection_from_vector(algebra: FiniteDimAlgebra, block: int, vec: np.ndarray) -> AlgebraElement:
    """Rank-one projection onto a unit vector inside a single block."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot project onto the zero vector")
    v = v / n
    return AlgebraElement.from_block(algebra, block, np.outer(v, v.conj()))


def orthogonality_defect(x: AlgebraElement, y: AlgebraElement) -> float:
    """max of ||xy||, ||yx||, ||x*y||, ||xy*||; zero means x and y are orthogonal."""
    return max(
        (x @ y).norm(),
        (y @ x).norm(),
        (x.adjoint() @ y).norm(),
        (x @ y.adjoint()).norm(),
    )


# ---------------------------------------------------------------------------
# deterministic eigendecomposition
# ---------------------------------------------------------------------------

def eigh_canonical(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a fixed eigenvector phase convention.

    Eigenvalues come out ascending (LAPACK order); each eigenvector is scaled
    so its first component of significant magnitude is real and positive.
    """
    w, v = np.linalg.eigh(mat)
    for i in range(v.shape[1]):
        col = v[:, i]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
        if nz.size:
            c = col[nz[0]]
            v[:, i] = col * (c.conjugate() / abs(c))
    return w, v


def _require_hermitian(a: AlgebraElement, tol: float) -> None:
    """Reject a non-hermitian element, reporting the asymmetry magnitude."""
    defect = a.hermitian_defect()
    if defect > tol:
        raise ValueError(f"element is not hermitian: asymmetry {defect:.3e} > tol {tol:.1e}")


def spectrum(a: AlgebraElement, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Merged ascending eigenvalue list of a hermitian element.

    Rejects non-hermitian input, reporting the asymmetry magnitude.
    """
    return np.sort(np.concatenate(block_spectra(a, tol)))


def block_spectra(a: AlgebraElement, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Per-block ascending eigenvalues of a hermitian element."""
    _require_hermitian(a, tol)
    return [np.linalg.eigvalsh((b + b.conj().T) / 2) for b in a.blocks]


# ---------------------------------------------------------------------------
# scalar function specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunctionSpec:
    """Scalar function to be applied eigenvalue-wise to a hermitian element.

    Kinds:
      ``piecewise-linear``      continuous interpolant through (knots, values);
                                the stated domain is [knots[0], knots[-1]]
      ``threshold``             indicator of [alpha, inf); optional ``gap``
                                rejects eigenvalues inside (alpha-gap, alpha+gap)
      ``inverse-gap``           0 below eps, t -> 1/t above 1-eps; requires the
                                two-cluster spectrum hypothesis
      ``inverse-support``       1/t above the rank cut, 0 below
      ``inverse-sqrt-support``  t^(-1/2) above the rank cut, 0 below
      ``identity``
    """

    kind: str
    knots: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    alpha: float = 0.0
    eps: float = 0.0
    rank_tol: float = RANK_TOL
    gap: float = 0.0

    def __post_init__(self):
        if self.kind == "piecewise-linear":
            if len(self.knots) != len(self.values) or len(self.knots) < 2:
                raise ValueError("piecewise-linear spec needs matching knots/values, at least two")
            if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
                raise ValueError("knots must be strictly increasing")


def piecewise_linear(knots: Sequence[float], values: Sequence[float]) -> ScalarFunctionSpec:
    return ScalarFunctionSpec("piecewise-linear", knots=tuple(map(float, knots)), values=tuple(map(float, values)))


def cutoff_below(alpha: float, eps: float, top: float = 1.0) -> ScalarFunctionSpec:
    """Vanish up to alpha, agree with the identity from alpha+eps on."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo = min(0.0, alpha) - 1.0
    hi = max(top, alpha + eps + 1.0)
    return piecewise_linear([lo, alpha, alpha + eps, hi], [0.0, 0.0, alpha + eps, hi])


def soft_indicator(alpha: float, eps: float) -> ScalarFunctionSpec:
    """Ramp from 0 below alpha to 1 above alpha+eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo = min(0.0, alpha) - 1.0
    hi = max(1.0, alpha + eps) + 1.0
    return piecewise_linear([lo, alpha, alpha + eps, hi], [0.0, 0.0, 1.0, 1.0])


def indicator_above(alpha: float, gap: float = 0.0) -> ScalarFunctionSpec:
    """Characteristic function of [alpha, inf), applied spectrally."""
    return ScalarFunctionSpec("threshold", alpha=float(alpha), gap=float(gap))


def inverse_above_gap(eps: float) -> ScalarFunctionSpec:
    """Inverse on the upper spectral cluster: needs spectrum in [0,eps] u [1-eps,1]."""
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    return ScalarFunctionSpec("inverse-gap", eps=float(eps))


def inverse_on_support(rank_tol: float = RANK_TOL) -> ScalarFunctionSpec:
    return ScalarFunctionSpec("inverse-support", rank_tol=float(rank_tol))


def inverse_sqrt_on_support(rank_tol: float = RANK_TOL) -> ScalarFunctionSpec:
    return ScalarFunctionSpec("inverse-sqrt-support", rank_tol=float(rank_tol))


def identity_spec() -> ScalarFunctionSpec:
    return ScalarFunctionSpec("identity")


def _eval_spec(spec: ScalarFunctionSpec, w: np.ndarray, domain_tol: float) -> np.ndarray:
    if spec.kind == "piecewise-linear":
        lo, hi = spec.knots[0], spec.knots[-1]
        bad = (w < lo - domain_tol) | (w > hi + domain_tol)
        if np.any(bad):
            t = w[bad][0]
            raise ValueError(
                f"eigenvalue {t:.6g} outside function domain [{lo:.6g}, {hi:.6g}]"
            )
        return np.interp(np.clip(w, lo, hi), spec.knots, spec.values)
    if spec.kind == "threshold":
        if spec.gap > 0:
            inside = (w > spec.alpha - spec.gap + THRESHOLD_SNAP) & (
                w < spec.alpha + spec.gap - THRESHOLD_SNAP
            )
            if np.any(inside):
                t = w[inside][0]
                raise GapHypothesisError(
                    f"eigenvalue {t:.6g} inside forbidden band "
                    f"({spec.alpha - spec.gap:.6g}, {spec.alpha + spec.gap:.6g})"
                )
        return (w >= spec.alpha - THRESHOLD_SNAP).astype(float)
    if spec.kind == "inverse-gap":
        inside = (w > spec.eps + THRESHOLD_SNAP) & (w < 1.0 - spec.eps - THRESHOLD_SNAP)
        if np.any(inside):
            t = w[inside][0]
            raise GapHypothesisError(
                f"eigenvalue {t:.6g} violates the gap hypothesis "
                f"spectrum in [0,{spec.eps:.4g}] u [{1 - spec.eps:.4g},1]"
            )
        out = np.zeros_like(w)
        upper = w >= 1.0 - spec.eps - THRESHOLD_SNAP
        out[upper] = 1.0 / w[upper]
        return out
    if spec.kind == "inverse-support":
        out = np.zeros_like(w)
        on = w > spec.rank_tol
        out[on] = 1.0 / w[on]
        return out
    if spec.kind == "inverse-sqrt-support":
        out = np.zeros_like(w)
        on = w > spec.rank_tol
        out[on] = w[on] ** -0.5
        return out
    if spec.kind == "identity":
        return w.copy()
    raise ValueError(f"unknown scalar function kind {spec.kind!r}")


def apply_function(
    a: AlgebraElement,
    spec: ScalarFunctionSpec,
    tol: float = DEFAULT_TOL,
    domain_tol: float = 1e-9,
) -> AlgebraElement:
    """Apply a scalar function eigenvalue-wise in each block of a hermitian element.

    The result commutes with ``a`` and is hermitian for real-valued specs.
    Inverse-gap and gapped-threshold kinds reject operands whose spectrum
    enters the forbidden band, naming the offending eigenvalue.
    """
    _require_hermitian(a, tol)
    if spec.kind in ("inverse-gap", "inverse-support", "inverse-sqrt-support"):
        low = min(float(s.min()) if s.size else 0.0 for s in block_spectra(a, tol=np.inf))
        if low < -tol:
            raise ValueError(f"element is not positive: eigenvalue {low:.3e}")
    out = []
    for b in a.blocks:
        w, v = eigh_canonical((b + b.conj().T) / 2)
        fw = _eval_spec(spec, w, domain_tol)
        out.append((v * fw) @ v.conj().T)
    return AlgebraElement(a.algebra, out)


def support_projection(
    a: AlgebraElement, tol: float = DEFAULT_TOL, rank_tol: float = RANK_TOL
) -> AlgebraElement:
    """Spectral projection onto the range of a positive element.

    Satisfies P a = a P = a, with rank equal to the numerical rank of ``a``.
    """
    _require_hermitian(a, tol)
    out = []
    for b in a.blocks:
        w, v = eigh_canonical((b + b.conj().T) / 2)
        if w.size and w.min() < -tol:
            raise ValueError(f"element is not positive: eigenvalue {w.min():.3e}")
        on = (w > rank_tol).astype(float)
        out.append((v * on) @ v.conj().T)
    return AlgebraElement(a.algebra, out)


# ---------------------------------------------------------------------------
# predicate validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    predicate: str
    defect: float
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def validate(a: AlgebraElement, predicate: str, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check hermitian / positive / projection / contraction within a tolerance.

    The report carries the measured defect as a witness.
    """
    herm = a.hermitian_defect()
    if predicate == "hermitian":
        return ValidationReport(herm <= tol, predicate, herm, f"asymmetry {herm:.3e}")
    if predicate == "contraction":
        defect = max(0.0, a.norm() - 1.0)
        return ValidationReport(defect <= tol, predicate, defect, f"norm excess {defect:.3e}")
    if predicate == "positive":
        if herm > tol:
            return ValidationReport(False, predicate, herm, f"asymmetry {herm:.3e}")
        low = min(float(s.min()) if s.size else 0.0 for s in block_spectra(a, tol=np.inf))
        defect = max(0.0, -low)
        return ValidationReport(defect <= tol, predicate, defect, f"most negative eigenvalue {low:.3e}")
    if predicate == "projection":
        idem = (a @ a - a).norm()
        defect = max(herm, idem)
        return ValidationReport(
            defect <= tol, predicate, defect, f"asymmetry {herm:.3e}, ||a^2 - a|| {idem:.3e}"
        )
    raise ValueError(f"unknown predicate {predicate!r}")
