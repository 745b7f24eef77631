"""Quantitative projection perturbation: repair, orthogonalize, connect.

Each operation carries an explicit error budget and verifies the advertised
bound on its own output.  Randomized constructions take a seed and are
reproducible; everything else is deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    Check,
    apply_function,
    eigh_canonical,
    indicator_above,
    inverse_sqrt_on_support,
    validate,
)

#: hard cap for the orthogonalization overlap constant
ALPHA_CAP = 1.05


def _require_projections(named: Iterable[tuple[str, AlgebraElement]]) -> None:
    """Raise a ValueError naming the first ``(name, element)`` pair that is no projection within 1e-7."""
    for name, proj in named:
        rep = validate(proj, "projection", 1e-7)
        if not rep:
            raise ValueError(f"{name} is not a projection: {rep.context}")


def repair_almost_projection(h: AlgebraElement, eps: float) -> tuple[AlgebraElement, AlgebraElement]:
    """Turn an almost-projection into a projection, with quantitative bounds.

    Requires ``||h - h^2|| < eps < 1/4`` and ``||h|| <= 1``; the spectrum then
    splits around 1/2 with gap ``delta = sqrt(1 - 4 eps)/2``.  Returns the
    spectral projection ``p`` above 1/2 together with ``c``, the inverse square
    root of ``h`` on the range of ``p``, satisfying ``||p - h|| < 2 eps``,
    ``c h c = p`` and ``||p - c|| < 4 eps``.
    """
    if not 0 < eps < 0.25:
        raise ValueError(f"eps must lie in (0, 1/4), got {eps}")
    pos = validate(h, "positive", DEFAULT_TOL)
    if not pos:
        raise ValueError(f"input is not positive: {pos.context}")
    if h.norm() > 1.0 + DEFAULT_TOL:
        raise ValueError(f"input norm {h.norm():.6g} exceeds 1")
    idem = (h @ h - h).norm()
    if idem >= eps:
        raise ValueError(f"||h - h^2|| = {idem:.6g} is not below eps = {eps}")
    delta = 0.5 * np.sqrt(1.0 - 4.0 * eps)
    p = apply_function(h, indicator_above(0.5, gap=delta * 0.999))
    # c = f(h) with f = 0 below the gap and t^(-1/2) above it
    c = apply_function(h, inverse_sqrt_on_support(rank_tol=0.5 - delta * 0.999))
    dist_ph = (p - h).norm()
    if dist_ph >= 2 * eps:
        raise AssertionError(f"repair bound violated: ||p-h|| = {dist_ph:.6g} >= 2 eps")
    dist_pc = (p - c).norm()
    if dist_pc >= 4 * eps:
        raise AssertionError(f"repair bound violated: ||p-c|| = {dist_pc:.6g} >= 4 eps")
    return p, c


# ---------------------------------------------------------------------------
# orthogonalization
# ---------------------------------------------------------------------------

def orthogonalize_pair(
    p: AlgebraElement, q: AlgebraElement, delta: float, tol: float = DEFAULT_TOL
) -> AlgebraElement:
    """Replace ``p`` by a projection orthogonal to ``q``, moving at most 14*delta.

    Needs ``||p q|| <= delta < 1/24``.  The repaired projection is computed
    inside the compression to the kernel of ``q``, so the product with ``q``
    vanishes at machine precision.
    """
    if not 0 <= delta < 1.0 / 24.0:
        raise ValueError(f"delta must lie in [0, 1/24), got {delta}")
    _require_projections((("p", p), ("q", q)))
    overlap = (p @ q).norm()
    if overlap > delta + tol:
        raise ValueError(f"||pq|| = {overlap:.6g} exceeds delta = {delta}")

    out_blocks = []
    for pb, qb in zip(p.blocks, q.blocks):
        wq, vq = eigh_canonical((qb + qb.conj().T) / 2)
        kernel = vq[:, wq < 0.5]  # orthonormal basis of the corner (1-q)A(1-q)
        if kernel.shape[1] == 0:
            out_blocks.append(np.zeros_like(pb))
            continue
        hc = kernel.conj().T @ pb @ kernel
        w, v = eigh_canonical((hc + hc.conj().T) / 2)
        pc = (v * (w >= 0.5)) @ v.conj().T
        out_blocks.append(kernel @ pc @ kernel.conj().T)
    p_new = AlgebraElement(p.algebra, out_blocks)

    moved = (p_new - p).norm()
    if moved > 14.0 * delta + 1e-7:
        raise AssertionError(f"orthogonalization moved {moved:.6g} > 14 delta = {14 * delta:.6g}")
    return p_new


def alpha_for(K: int, beta: float, order: int | None = None) -> float:
    """Overlap constant for orthogonalizing families of up to K projections.

    With ``delta = sqrt(alpha (alpha - 1))`` the stage schedule
    ``delta_1 = 0, delta_i = 14 (sum_{l<i} delta_l + delta)`` closes in
    ``delta_i = 14 * 15^(i-2) * delta``, so alpha is the larger root of
    ``alpha (alpha - 1) = (beta / (14 * 15^(K-2)))^2``, capped at ``ALPHA_CAP`` and
    at ``(order+2)/order`` when an order parameter accompanies the call.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    cap_val = ALPHA_CAP
    if order is not None and order >= 1:
        cap_val = min(cap_val, (order + 2) / order)
    if K == 1:
        return cap_val
    # slight shrink keeps the re-evaluated schedule strictly under beta even
    # though alpha - 1 is recovered downstream with catastrophic cancellation;
    # 15.0 ** 263 raises OverflowError, and from K = 264 on the denominator is
    # inf, so gamma is 0 and alpha is 1.0, as it already is in doubles from K = 7
    gamma = beta / (14.0 * 15.0 ** min(K - 2, 262)) * (1.0 - 1e-6)
    alpha = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * gamma * gamma))
    return min(alpha, cap_val)


def orthogonalization_schedule(k: int, alpha: float) -> list[float]:
    """Stage deviations delta_i from the recursive schedule (not the closed form)."""
    delta = np.sqrt(alpha * (alpha - 1.0))
    out = [0.0]
    for _ in range(1, k):
        out.append(14.0 * (sum(out) + delta))
    return out


@dataclass
class FamilyOrthogonalization:
    projections: list[AlgebraElement]
    deviations: list[float]
    unchanged: bool

    def max_pairwise_product(self) -> float:
        worst = 0.0
        for i in range(len(self.projections)):
            for j in range(i + 1, len(self.projections)):
                worst = max(worst, (self.projections[i] @ self.projections[j]).norm())
        return worst


def orthogonalize_family(
    qs: list[AlgebraElement], alpha: float, tol: float = DEFAULT_TOL
) -> FamilyOrthogonalization:
    """Orthogonalize projections with ``||sum q_i|| <= alpha``, stagewise.

    Follows the recursive schedule exactly: stage i repairs q_i against the sum
    of the already-produced projections, which costs at most
    ``14 (sum_{l<i} delta_l + delta)``.  If ``||sum q_i|| <= 1`` the family is
    verified to be orthogonal already and returned unchanged.
    """
    if not qs:
        return FamilyOrthogonalization([], [], True)
    _require_projections((f"member {idx}", q) for idx, q in enumerate(qs))
    total = qs[0]
    for q in qs[1:]:
        total = total + q
    sum_norm = total.norm()
    if sum_norm > alpha + tol:
        raise ValueError(f"||sum q_i|| = {sum_norm:.6g} exceeds alpha = {alpha:.6g}")

    if sum_norm <= 1.0 + tol:
        fam = FamilyOrthogonalization(list(qs), [0.0] * len(qs), True)
        if fam.max_pairwise_product() <= 1e-10:
            return fam
        # overlaps at tolerance scale: repair like any other admissible family

    delta = float(np.sqrt(alpha * (alpha - 1.0)))
    ps: list[AlgebraElement] = [qs[0]]
    deltas = [0.0]
    deviations = [0.0]
    prev_sum = qs[0].copy()
    for i in range(1, len(qs)):
        bound = sum(deltas) + delta
        measured = (qs[i] @ prev_sum).norm()
        if measured > bound + 1e-9:
            raise ValueError(
                f"stage {i}: overlap {measured:.6g} exceeds schedule bound {bound:.6g}"
            )
        if bound >= 1.0 / 24.0:
            raise ValueError(
                f"stage {i}: schedule bound {bound:.6g} leaves the repair regime (>= 1/24)"
            )
        p_i = orthogonalize_pair(qs[i], prev_sum, bound, tol=tol)
        d_i = 14.0 * bound
        dev = (p_i - qs[i]).norm()
        if dev > d_i + 1e-7:
            raise AssertionError(f"stage {i}: deviation {dev:.6g} exceeds delta_i {d_i:.6g}")
        ps.append(p_i)
        deltas.append(d_i)
        deviations.append(dev)
        prev_sum = prev_sum + p_i
    return FamilyOrthogonalization(ps, deviations, False)


# ---------------------------------------------------------------------------
# partial isometries between close projections
# ---------------------------------------------------------------------------

def connect_projections(p: AlgebraElement, q: AlgebraElement, eta: float) -> AlgebraElement:
    """Partial isometry s with s*s = p, ss* = q for projections with ||p-q|| < eta <= 1/4.

    Built from the symmetries x = 2p-1, y = 2q-1: the unitary xy has a
    principal logarithm i h with spectrum of h inside (-pi, pi); the half
    rotation u = exp(-i h / 2) conjugates p to q, and s = u p satisfies
    ``||s - p|| < 4 eta``.
    """
    if not 0 < eta <= 0.25:
        raise ValueError(f"eta must lie in (0, 1/4], got {eta}")
    _require_projections((("p", p), ("q", q)))
    dist = (p - q).norm()
    if dist >= eta:
        raise ValueError(f"||p - q|| = {dist:.6g} is not below eta = {eta}")

    out_blocks = []
    for pb, qb in zip(p.blocks, q.blocks):
        n = pb.shape[0]
        x = 2.0 * pb - np.eye(n)
        y = 2.0 * qb - np.eye(n)
        z = x @ y
        # principal log of the unitary xy: Schur diagonalizes normal matrices;
        # eigenvalues are snapped to the unit circle before taking arguments
        t, qs = sla.schur(z, output="complex")
        d = np.diag(t)
        mod = np.abs(d)
        if np.any(mod < 1e-8):
            raise RuntimeError("internal error: xy is numerically singular")
        d = d / mod
        angles = np.angle(d)
        if np.any(np.abs(np.abs(angles) - np.pi) < 1e-9):
            raise RuntimeError(
                "internal error: log branch failure, eigenvalue of xy at -1"
            )
        u = (qs * np.exp(-0.5j * angles)) @ qs.conj().T
        out_blocks.append(u @ pb)
    s = AlgebraElement(p.algebra, out_blocks)

    for label, expr in (("s*s = p", s.adjoint() @ s - p), ("ss* = q", s @ s.adjoint() - q)):
        err = expr.norm()
        if err > 1e-8:
            raise AssertionError(f"partial isometry check {label} failed by {err:.3e}")
    shift = (s - p).norm()
    if shift >= 4.0 * eta:
        raise AssertionError(f"||s - p|| = {shift:.6g} >= 4 eta = {4 * eta}")
    return s


# ---------------------------------------------------------------------------
# theorem validators
# ---------------------------------------------------------------------------

def check_almost_unit(h: AlgebraElement, d: AlgebraElement, x: AlgebraElement) -> Check:
    """Dominated-unit estimate: ||(1-d)x|| <= sqrt(||(1-h)x||) for h <= d, ||d|| <= 1.

    Measures the left side against the right; exists to make the inequality an
    executable test surface, not to construct anything.
    """
    gap = validate(d - h, "positive", 1e-7)
    if not gap:
        raise ValueError(f"ordering d >= h violated: {gap.context}")
    if d.norm() > 1.0 + DEFAULT_TOL or x.norm() > 1.0 + DEFAULT_TOL:
        raise ValueError("both d and x must be contractions")
    one = AlgebraElement.identity(h.algebra)
    lhs = ((one - d) @ x).norm()
    rhs = float(np.sqrt(((one - h) @ x).norm()))
    return Check("almost-unit", lhs, rhs, lhs <= rhs + 1e-9)


@dataclass(frozen=True)
class TraceRankReport:
    n: int
    k: int
    normalized_trace: float
    hypotheses_ok: bool
    bound_ok: bool
    detail: str


def trace_rank_bound(a_list: list[np.ndarray]) -> TraceRankReport:
    """Check the counting bound: positives in M_n with sum <= 1 and norms > n/(n+1) number at most n.

    The normalized trace of the sum is reported as the certificate.
    """
    if not a_list:
        raise ValueError("need at least one element")
    mats = [np.asarray(a, dtype=complex) for a in a_list]
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError("all elements must be square matrices of equal size")
    k = len(mats)
    norms = []
    for m in mats:
        if np.linalg.norm(m - m.conj().T, 2) > 1e-8:
            return TraceRankReport(n, k, 0.0, False, False, "an element is not hermitian")
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if w.min() < -1e-8:
            return TraceRankReport(n, k, 0.0, False, False, "an element is not positive")
        norms.append(float(w.max()))
    total = sum(mats)
    top = np.linalg.eigvalsh((total + total.conj().T) / 2).max()
    if top > 1.0 + 1e-8:
        return TraceRankReport(n, k, 0.0, False, False, f"sum has norm {top:.6g} > 1")
    if min(norms) <= n / (n + 1.0):
        return TraceRankReport(n, k, 0.0, False, False, f"smallest norm {min(norms):.6g} <= n/(n+1)")
    ntr = float(np.trace(total).real) / n
    return TraceRankReport(n, k, ntr, True, k <= n, f"normalized trace {ntr:.6g} <= 1")


# ---------------------------------------------------------------------------
# unitary-neighborhood sampling
# ---------------------------------------------------------------------------

def _random_unitary_near(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """A random unitary within ``radius`` of the identity in M_n."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = (g + g.conj().T) / 2
    norm = np.linalg.norm(herm, 2)
    if norm > 0:
        herm /= norm
    t = radius * rng.uniform(0.1, 0.999)
    # ||exp(itH) - 1|| <= t for ||H|| <= 1, so the unitary stays inside the neighborhood
    return sla.expm(1j * t * herm)


def sum_smallest_eigenvalue(p: np.ndarray, unitaries: list[np.ndarray]) -> float:
    total = sum(u.conj().T @ p @ u for u in unitaries)
    return float(np.linalg.eigvalsh((total + total.conj().T) / 2).min())


#: sampling rounds :func:`invertible_sum_witness` tries before it gives up
WITNESS_ROUNDS = 64


def invertible_sum_witness(r: int, p: np.ndarray, radius: float = 0.5, seed: int = 0) -> tuple[list[np.ndarray], float]:
    """Unitaries u_1..u_r near the identity making sum u_i* p u_i invertible.

    ``p`` must be a rank-one projection in M_r.  Returns the unitaries and
    ``lambda = 1 / (smallest eigenvalue)`` so that
    ``1 <= lambda * sum u_i* p u_i``, with the smallest eigenvalue above 1e-9.
    Sampling is seeded; failure after :data:`WITNESS_ROUNDS` rounds (a
    probability-zero event) reports the seed.
    """
    p = np.asarray(p, dtype=complex)
    if p.shape != (r, r):
        raise ValueError("p must live in M_r")
    if radius <= 0:
        raise ValueError("radius must be positive")
    w = np.linalg.eigvalsh((p + p.conj().T) / 2)
    if abs(w.sum() - 1.0) > 1e-8 or np.abs(w - np.round(w)).max() > 1e-8:
        raise ValueError("p must be a rank-one projection")
    if r == 1:
        return [np.eye(1, dtype=complex)], 1.0
    rng = np.random.default_rng(seed)
    for _ in range(WITNESS_ROUNDS):
        us = [_random_unitary_near(r, radius, rng) for _ in range(r)]
        lam_min = sum_smallest_eigenvalue(p, us)
        if lam_min > 1e-9:
            return us, 1.0 / lam_min
    raise RuntimeError(f"no invertible sum found after {WITNESS_ROUNDS} rounds (seed {seed})")
