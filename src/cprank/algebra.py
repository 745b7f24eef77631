"""Block-matrix algebra elements, spectra, and scalar functional calculus.

A finite-dimensional algebra is a direct sum of full matrix blocks; its
elements are block-diagonal complex matrices.  Everything downstream (the
projection lemmas, completely positive maps, cover extraction) computes on
these values.  All operations here are pure functions of their inputs and
safe for concurrent use; eigendecompositions are deterministic with a fixed
phase convention so repeated runs give identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: default tolerance for identity-type checks (hermitian, projection, ...)
DEFAULT_TOL = 1e-9
#: default rank cut for support projections and pseudo-inverses
RANK_TOL = 1e-6
#: closed-comparison snap for spectral thresholds
THRESHOLD_SNAP = 1e-12


class GapHypothesisError(ValueError):
    """Raised when a scalar function needs a spectral gap the operand lacks."""


@dataclass(frozen=True)
class FiniteDimAlgebra:
    """Direct sum of full matrix blocks, identified by its block sizes.

    Blocks of one size form a size group (``group_sizes``, ``group_blocks``),
    in order of first appearance; ``block_slots`` gives each block's (group,
    slot) in the ``(count, r, r)`` arrays an element stores per group.  Blocks
    may have any size >= 1; :mod:`cprank.jsonio` caps the sizes input names.
    """

    block_sizes: tuple[int, ...]

    def __init__(self, block_sizes: Iterable[int]):
        sizes = tuple(int(r) for r in block_sizes)
        if not sizes:
            raise ValueError("algebra needs at least one block")
        for r in sizes:
            if r < 1:
                raise ValueError(f"block size must be >= 1, got {r}")
        object.__setattr__(self, "block_sizes", sizes)
        groups: dict[int, list[int]] = {}
        for b, r in enumerate(sizes):
            groups.setdefault(r, []).append(b)
        slots = {b: (g, s) for g, blocks in enumerate(groups.values()) for s, b in enumerate(blocks)}
        object.__setattr__(self, "group_sizes", tuple(groups))
        object.__setattr__(self, "group_blocks", tuple(np.array(b) for b in groups.values()))
        object.__setattr__(self, "block_slots", tuple(slots[b] for b in range(len(sizes))))

    @cached_property
    def slot_array(self) -> np.ndarray:
        """``block_slots`` as one ``(num_blocks, 2)`` array, built on first use."""
        return np.array(self.block_slots)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def total_dim(self) -> int:
        """Vector-space dimension, the sum of squared block sizes."""
        return sum(r * r for r in self.block_sizes)

    def is_abelian(self) -> bool:
        return all(r == 1 for r in self.block_sizes)

    def zero_stacks(self, lead: tuple[int, ...] = ()) -> list[np.ndarray]:
        """Fresh zero arrays, one ``(count, *lead, r, r)`` per size group."""
        return [np.zeros((len(b),) + lead + (r, r), complex) for r, b in zip(self.group_sizes, self.group_blocks)]


@lru_cache(maxsize=32)
def shared_algebra(block_sizes: tuple[int, ...]) -> FiniteDimAlgebra:
    """``FiniteDimAlgebra(block_sizes)``, built once per tuple of sizes and shared,
    as an algebra is immutable."""
    return FiniteDimAlgebra(block_sizes)


class AlgebraElement:
    """Block-diagonal element of a :class:`FiniteDimAlgebra`.

    ``stacks`` holds one read-only ``(count, r, r)`` array per size group of
    the algebra; ``blocks`` is the sequence of per-block views in block order.
    Blocks are copied on construction.  Stacks ``(count, *lead, r, r)`` hold a
    batch of elements: arithmetic and :meth:`CPMap.apply` act on each.
    """

    __slots__ = ("algebra", "stacks")

    def __init__(self, algebra: FiniteDimAlgebra, blocks: Sequence[np.ndarray]):
        if len(blocks) != algebra.num_blocks:
            raise ValueError(
                f"expected {algebra.num_blocks} blocks, got {len(blocks)}"
            )
        mats = [np.asarray(b, dtype=complex) for b in blocks]
        for r, m in zip(algebra.block_sizes, mats):
            if m.shape != (r, r):
                raise ValueError(f"block shape {m.shape} does not match size {r}")
        self._set(algebra, [np.stack([mats[b] for b in idx]) for idx in algebra.group_blocks])

    def _set(self, algebra: FiniteDimAlgebra, stacks: Sequence[np.ndarray]) -> None:
        for s in stacks:
            s.flags.writeable = False
        self.algebra = algebra
        self.stacks = tuple(stacks)

    @classmethod
    def from_stacks(cls, algebra: FiniteDimAlgebra, stacks: Sequence[np.ndarray]) -> "AlgebraElement":
        """Element taking over one complex ``(count, r, r)`` array per size group.

        The arrays are neither copied nor checked, and become read-only.
        """
        out = cls.__new__(cls)
        out._set(algebra, stacks)
        return out

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stacks[g][s] for g, s in self.algebra.block_slots)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, algebra: FiniteDimAlgebra) -> "AlgebraElement":
        return cls.from_stacks(algebra, algebra.zero_stacks())

    @classmethod
    def identity(cls, algebra: FiniteDimAlgebra) -> "AlgebraElement":
        return cls.from_stacks(algebra, [z + np.eye(z.shape[-1]) for z in algebra.zero_stacks()])

    @classmethod
    def from_block(cls, algebra: FiniteDimAlgebra, index: int, block: np.ndarray) -> "AlgebraElement":
        """Element supported in a single block, zero elsewhere."""
        r = algebra.block_sizes[index]
        m = np.asarray(block, dtype=complex)
        if m.shape != (r, r):
            raise ValueError(f"block shape {m.shape} does not match size {r}")
        stacks = algebra.zero_stacks()
        g, s = algebra.block_slots[index]
        stacks[g][s] = m
        return cls.from_stacks(algebra, stacks)

    # -- arithmetic --------------------------------------------------------

    def _zip(self, other: "AlgebraElement", op) -> "AlgebraElement":
        if self.algebra.block_sizes != other.algebra.block_sizes:
            raise ValueError("elements live in different algebras")
        return AlgebraElement.from_stacks(self.algebra, list(map(op, self.stacks, other.stacks)))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._zip(other, np.add)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._zip(other, np.subtract)

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._zip(other, np.matmul)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement.from_stacks(self.algebra, [-a for a in self.stacks])

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement.from_stacks(self.algebra, [scalar * a for a in self.stacks])

    __rmul__ = __mul__

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement.from_stacks(self.algebra, [_dagger(a) for a in self.stacks])

    # -- metrics -----------------------------------------------------------

    def norm(self) -> float:
        """Operator norm: max over blocks of the largest singular value."""
        return max(float(spectral_norms(s).max()) for s in self.stacks)

    def hermitian_defect(self) -> float:
        with np.errstate(over="ignore"):  # an asymmetry beyond the double range is inf
            diffs = [s - _dagger(s) for s in self.stacks]
        return max(float(spectral_norms(d).max()) if np.isfinite(d).all() else np.inf for d in diffs)

    def copy(self) -> "AlgebraElement":
        return AlgebraElement.from_stacks(self.algebra, [s.copy() for s in self.stacks])

    def __repr__(self) -> str:
        return f"AlgebraElement(blocks={self.algebra.block_sizes}, norm={self.norm():.3g})"


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix in a stack."""
    return np.linalg.svd(a, compute_uv=False).max(axis=-1)


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


# ---------------------------------------------------------------------------
# deterministic eigendecomposition
# ---------------------------------------------------------------------------

def eigh_canonical(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a fixed eigenvector phase convention.

    Eigenvalues come out ascending (LAPACK order); each eigenvector is scaled
    so its first component of significant magnitude is real and positive.
    Stacks of matrices are decomposed matrix by matrix.
    """
    w, v = np.linalg.eigh(mat)
    mag = np.abs(v)
    live = mag > 1e-12 * np.maximum(1.0, mag.max(axis=-2, keepdims=True))
    first = np.take_along_axis(v, live.argmax(axis=-2)[..., None, :], axis=-2)
    # hypot, not np.abs: the vectorised complex abs can differ in the last bit
    phase = first.conjugate() / np.hypot(first.real, first.imag)
    return w, np.where(live.any(axis=-2, keepdims=True), v * phase, v)


def _require_hermitian(a: AlgebraElement, tol: float) -> None:
    """Reject a non-hermitian element, reporting the asymmetry magnitude; measure nothing at ``tol = inf``."""
    if tol < np.inf and (defect := a.hermitian_defect()) > tol:
        raise ValueError(f"element is not hermitian: asymmetry {defect:.3e} > tol {tol:.1e}")


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(a + a*) / 2``, halved first so that no finite entry overflows."""
    half = a / 2
    return half + _dagger(half)


def spectrum(a: AlgebraElement, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Merged ascending eigenvalue list of a hermitian element.

    Rejects non-hermitian input, reporting the asymmetry magnitude.
    """
    return np.sort(np.concatenate(block_spectra(a, tol)))


def block_spectra(a: AlgebraElement, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Per-block ascending eigenvalues of a hermitian element."""
    _require_hermitian(a, tol)
    w = [np.linalg.eigvalsh(_hermitian_part(s)) for s in a.stacks]
    return [w[g][s] for g, s in a.algebra.block_slots]


# ---------------------------------------------------------------------------
# scalar function specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunctionSpec:
    """Scalar function to be applied eigenvalue-wise to a hermitian element.

    Kinds (the last three are defined on positive elements only):
      ``piecewise-linear``      continuous interpolant through (knots, values);
                                the stated domain is [knots[0], knots[-1]]
      ``threshold``             indicator of [alpha, inf); optional ``gap``
                                rejects eigenvalues inside (alpha-gap, alpha+gap)
      ``inverse-gap``           0 below eps, t -> 1/t above 1-eps; requires the
                                two-cluster spectrum hypothesis
      ``inverse-sqrt-support``  t^(-1/2) above the rank cut, 0 below
      ``support``               1 above the rank cut, 0 below
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


def cutoff_below(alpha: float, eps: float) -> ScalarFunctionSpec:
    """Vanish up to alpha, agree with the identity from alpha+eps on."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo = min(0.0, alpha) - 1.0
    hi = max(1.0, alpha + eps + 1.0)
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


def inverse_sqrt_on_support(rank_tol: float = RANK_TOL) -> ScalarFunctionSpec:
    return ScalarFunctionSpec("inverse-sqrt-support", rank_tol=float(rank_tol))


def _eval_spec(spec: ScalarFunctionSpec, w: np.ndarray, tol: float) -> np.ndarray:
    if spec.kind in ("inverse-gap", "inverse-sqrt-support", "support") and np.any(w < -tol):
        raise ValueError(f"element is not positive: eigenvalue {w[w < -tol][0]:.3e}")
    if spec.kind == "piecewise-linear":
        lo, hi = spec.knots[0], spec.knots[-1]
        bad = (w < lo - DEFAULT_TOL) | (w > hi + DEFAULT_TOL)
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
    if spec.kind in ("inverse-sqrt-support", "support"):
        out = np.zeros_like(w)
        on = w > spec.rank_tol
        out[on] = w[on] ** -0.5 if spec.kind == "inverse-sqrt-support" else 1.0
        return out
    raise ValueError(f"unknown scalar function kind {spec.kind!r}")


class SpectralDecomposition:
    """A hermitian element decomposed once for all its functions: one :func:`eigh_canonical` per size
    group, after rejecting asymmetry above ``tol``; ``values`` in block order, each block's ascending."""

    def __init__(self, a: AlgebraElement, tol: float = DEFAULT_TOL):
        _require_hermitian(a, tol)
        self.algebra, self.tol = a.algebra, tol
        self.w, self.v = zip(*(eigh_canonical(_hermitian_part(s)) for s in a.stacks))
        self.values = np.concatenate([self.w[g][s] for g, s in a.algebra.block_slots])

    def function(self, spec: ScalarFunctionSpec) -> AlgebraElement:
        """``v f(w) v*``, once ``spec`` has checked ``values`` (positivity within ``tol``,
        domain, gap) in block order, so that a violation names the first offending block."""
        _eval_spec(spec, self.values, self.tol)
        out = [(vg * _eval_spec(spec, wg, self.tol)[:, None, :]) @ _dagger(vg) for wg, vg in zip(self.w, self.v)]
        return AlgebraElement.from_stacks(self.algebra, out)


def apply_function(a: AlgebraElement, spec: ScalarFunctionSpec) -> AlgebraElement:
    """Apply a scalar function eigenvalue-wise in each block of a hermitian element.

    The result commutes with ``a`` and is hermitian for real-valued specs.
    Inverse-gap and gapped-threshold kinds reject operands whose spectrum
    enters the forbidden band, naming the offending eigenvalue.
    """
    return SpectralDecomposition(a).function(spec)


def support_projection(a: AlgebraElement) -> AlgebraElement:
    """Spectral projection onto the range of a positive element, whose
    asymmetry and negative eigenvalues are rejected above ``DEFAULT_TOL``.

    Satisfies P a = a P = a, with rank equal to the numerical rank of ``a``.
    """
    return SpectralDecomposition(a).function(ScalarFunctionSpec("support"))


# ---------------------------------------------------------------------------
# checks and predicate validation
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One measured number against its bound, under the name of the step or
    inequality it checks; ``context`` says where (a block, a class, a detail).
    A named tuple: immutable, and several times faster to build than a frozen
    dataclass, which counts where an extraction builds hundreds per call."""

    step: str
    measured: float
    bound: float
    ok: bool
    context: str = ""

    def __bool__(self) -> bool:
        return bool(self.ok)


def validate(a: AlgebraElement, predicate: str, tol: float = DEFAULT_TOL) -> Check:
    """Check hermitian / positive / projection / contraction within a tolerance.

    The check measures the defect against ``tol`` and names it in its context.
    """
    herm = a.hermitian_defect()
    if predicate == "hermitian":
        return Check(predicate, herm, tol, herm <= tol, f"asymmetry {herm:.3e}")
    if predicate == "contraction":
        defect = max(0.0, a.norm() - 1.0)
        return Check(predicate, defect, tol, defect <= tol, f"norm excess {defect:.3e}")
    if predicate == "positive":
        if herm > tol:
            return Check(predicate, herm, tol, False, f"asymmetry {herm:.3e}")
        low = float(spectrum(a, tol=np.inf)[0])
        defect = max(0.0, -low)
        return Check(predicate, defect, tol, defect <= tol, f"most negative eigenvalue {low:.3e}")
    if predicate == "projection":
        idem = (a @ a - a).norm()
        defect = max(herm, idem)
        return Check(predicate, defect, tol, defect <= tol, f"asymmetry {herm:.3e}, ||a^2 - a|| {idem:.3e}")
    raise ValueError(f"unknown predicate {predicate!r}")
