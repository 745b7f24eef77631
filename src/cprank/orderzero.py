"""Structure of strict-order-zero maps and the finite local step towards AF.

An order-zero map out of a block algebra factors as h * sigma(.) with sigma a
homomorphism commuting with h = phi(1); this module extracts that data,
snaps almost-unital order-zero maps to genuine homomorphisms with the
quantitative bound 12*gamma + 2*sqrt(gamma), and runs the finite local step
that produces a nearby finite-dimensional subalgebra from a good enough
completely positive approximation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    Check,
    FiniteDimAlgebra,
    _hermitian_part,
    apply_function,
    eigh_canonical,
    inverse_sqrt_on_support,
    spectrum,
    validate,
)
from .cpmaps import (
    CPMap,
    OrderZeroCertificate,
    _max_norm,
    _norms,
    certify_order_zero,
    compress,
    unit_product_defects,
    unit_stacks,
)


class HypothesisFailure(ValueError):
    """A named numerical hypothesis of the local AF step failed."""

    def __init__(self, name: str, message: str):
        super().__init__(f"hypothesis {name} failed: {message}")
        self.name = name


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@dataclass
class BlockDecomposition:
    eigenvalue_support: tuple[float, ...]
    h: AlgebraElement
    sigma: CPMap


@dataclass
class OrderZeroDecomposition:
    blocks: list[BlockDecomposition]
    reconstruction_defect: float


def _distinct_positive(values: np.ndarray, tol: float) -> tuple[float, ...]:
    vals = sorted(float(v) for v in values if v > tol)
    out: list[float] = []
    for v in vals:
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


def _require_order_zero(phi: CPMap) -> OrderZeroCertificate:
    """The order-zero certificate of phi; a ValueError with its first witnesses
    when phi is not order zero."""
    cert = certify_order_zero(phi)
    if not cert.ok:
        raise ValueError("map is not order zero: " + "; ".join(cert.witnesses[:4]))
    return cert


def decompose_order_zero(phi: CPMap) -> OrderZeroDecomposition:
    """Extract the eigenvalue supports, the h_i, and the support homomorphisms.

    The compression by the inverse square root of h_i on its support realizes
    the homomorphism in one step; finite dimensions make the usual limit
    stationary.  Certification failures are forwarded with their witnesses.
    The reconstruction defect is the certificate's: the largest
    ``||phi(e_jk) - h sigma(e_jk)||`` or ``||phi(e_jk) - sigma(e_jk) h||``.
    """
    cert = _require_order_zero(phi)
    blocks = []
    for i, (h, sigma) in enumerate(zip(cert.h_blocks, cert.sigma_maps)):
        support_vals = _distinct_positive(spectrum(h, tol=np.inf), 1e-7)
        if support_vals and support_vals[-1] > 1.0 + 1e-7:
            raise ValueError(f"block {i}: eigenvalue {support_vals[-1]:.6g} above 1")
        blocks.append(BlockDecomposition(support_vals, h, sigma))
    worst = cert.reconstruction_defect
    if worst > DEFAULT_TOL:
        raise ValueError(
            f"reconstruction defect {worst:.3e} exceeds tol {DEFAULT_TOL:.1e}; "
            "tolerance mismatch between certification and decomposition"
        )
    return OrderZeroDecomposition(blocks, worst)


# ---------------------------------------------------------------------------
# the projection case and the quantitative perturbation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionCaseVerdict:
    verdict: str  # "holds" | "fails" | "inapplicable"
    multiplicativity: float
    detail: str


def _hom_defect(phi: CPMap) -> float:
    """Worst multiplicativity defect of a map on pairs of matrix units."""
    units = [unit_stacks(phi, i) for i in range(phi.domain.num_blocks)]
    worst = 0.0
    for i, i2 in product(range(len(units)), repeat=2):
        for _, defects in unit_product_defects(units[i], units[i2], i == i2):
            worst = max(worst, _max_norm(defects, worst))
    return worst


def check_projection_case(phi: CPMap) -> ProjectionCaseVerdict:
    """Order zero plus phi(1) a projection forces phi to be a homomorphism.

    Inapplicable when phi(1) is not a projection; this is distinct from a
    failing verdict.
    """
    _require_order_zero(phi)
    one_img = phi.apply_one()
    proj = validate(one_img, "projection", 1e-7)
    if not proj:
        return ProjectionCaseVerdict("inapplicable", 0.0, f"phi(1) is not a projection: {proj.context}")
    defect = _hom_defect(phi)
    verdict = "holds" if defect <= DEFAULT_TOL else "fails"
    return ProjectionCaseVerdict(verdict, defect, f"multiplicativity defect {defect:.3e}")


@dataclass
class PerturbationReport:
    phi_prime: CPMap
    hom_defect: float           # multiplicativity of phi'
    moved: Check                # max difference over the probe family against 12 gamma + 2 sqrt(gamma)
    cb_upper: float             # Choi-based completely bounded upper bound


def _cb_upper_bound(phi_a: CPMap, phi_b: CPMap) -> float:
    """Upper bound for the map norm of phi_a - phi_b from its Choi decomposition.

    The difference splits into completely positive parts along the positive
    and negative Choi eigenspaces; each part's norm is the norm of its value
    at the unit.
    """
    pos = [np.zeros((r, r), complex) for r in phi_a.codomain.block_sizes]
    neg = [np.zeros((r, r), complex) for r in phi_a.codomain.block_sizes]
    for i, d in enumerate(phi_a.domain.block_sizes):
        for c in range(phi_a.codomain.num_blocks):
            diff = phi_a.image_array(i, c) - phi_b.image_array(i, c)
            if not np.any(diff):
                continue
            r = phi_a.codomain.block_sizes[c]
            ch = diff.transpose(0, 2, 1, 3).reshape(d * r, d * r)
            w, v = eigh_canonical(_hermitian_part(ch))
            cp_pos = (v * np.maximum(w, 0.0)) @ v.conj().T
            cp_neg = (v * np.maximum(-w, 0.0)) @ v.conj().T
            # a part's value at the unit sums its images of e_jj: a trace over the domain indices
            pos[c] = pos[c] + np.trace(cp_pos.reshape(d, r, d, r), axis1=0, axis2=2)
            neg[c] = neg[c] + np.trace(cp_neg.reshape(d, r, d, r), axis1=0, axis2=2)
    return AlgebraElement(phi_a.codomain, pos).norm() + AlgebraElement(phi_a.codomain, neg).norm()


def _norm_probe_family(domain: FiniteDimAlgebra, seed: int = 7) -> AlgebraElement:
    """The unit, the hermitian matrix units of every block, and 50 random
    elements scaled to norm one, as one batch of elements."""
    count = 50
    first = 1 + domain.total_dim
    probes = domain.zero_stacks((first + count,))
    # per random element and block: d*d real parts, then d*d imaginary parts
    draws = np.random.default_rng(seed).normal(size=(count, 2 * domain.total_dim))
    at, start = 1, 0
    for (g, n), d in zip(domain.block_slots, domain.block_sizes):
        z = probes[g][n]
        z[0] = np.eye(d)
        for j in range(d):
            for k in range(j, d):
                if j == k:
                    z[at, j, j] = 1.0
                else:
                    z[at, j, k] = z[at, k, j] = 0.5
                    z[at + 1, j, k], z[at + 1, k, j] = -0.5j, 0.5j
                    at += 1
                at += 1
        re, im = draws[:, start : start + 2 * d * d].reshape(count, 2, d, d).swapaxes(0, 1)
        z[first:] = re + 1j * im
        start += 2 * d * d
    norms = _norms([z[:, first:] for z in probes])
    for z in probes:
        z[:, first:] *= (1.0 / np.where(norms > 0, norms, 1.0))[:, None, None]
    return AlgebraElement.from_stacks(domain, probes)


def map_norm_lower_bound(phi_a: CPMap, phi_b: CPMap, seed: int = 7) -> float:
    """Certified lower bound for ||phi_a - phi_b|| from a fixed probe family."""
    probes = _norm_probe_family(phi_a.domain, seed=seed)
    diff = phi_a.apply(probes) - phi_b.apply(probes)
    return _max_norm(diff.stacks)


def perturb_to_hom(phi: CPMap, gamma: float) -> PerturbationReport:
    """Snap an order-zero map with almost-projection unit image to a homomorphism.

    phi'(x) = c phi(x) c with c the inverse square root of p phi(1) p on the
    spectral projection p of phi(1) above 1/2.  Requires
    ``||phi(1) - phi(1)^2|| < gamma < 1/4``; the move is bounded by
    ``12 gamma + 2 sqrt(gamma)``.
    """
    if not 0 < gamma < 0.25:
        raise ValueError(f"gamma must lie in (0, 1/4), got {gamma}")
    _require_order_zero(phi)
    h = phi.apply_one()
    unit_defect = (h @ h - h).norm()
    if unit_defect >= gamma:
        raise ValueError(
            f"||phi(1) - phi(1)^2|| = {unit_defect:.6g} is not below gamma = {gamma}"
        )
    delta = 0.5 * np.sqrt(1.0 - 4.0 * gamma)
    c = apply_function(h, inverse_sqrt_on_support(rank_tol=0.5 - 0.999 * delta))
    phi_prime = compress(phi, c)

    hom_defect = _hom_defect(phi_prime)
    if hom_defect > 1e-8:
        raise AssertionError(f"perturbed map is not a homomorphism: defect {hom_defect:.3e}")
    measured = map_norm_lower_bound(phi_prime, phi)
    bound = float(12.0 * gamma + 2.0 * np.sqrt(gamma))
    moved = Check("perturbation", measured, bound, measured <= bound + 1e-9)
    if not moved:
        raise AssertionError(f"perturbation moved {measured:.6g} > 12 gamma + 2 sqrt(gamma)")
    cb = _cb_upper_bound(phi_prime, phi)
    return PerturbationReport(phi_prime, hom_defect, moved, cb)


# ---------------------------------------------------------------------------
# distance to the image of a homomorphism
# ---------------------------------------------------------------------------

def dist_to_hom_image(a: AlgebraElement, phi_prime: CPMap) -> float:
    """Certified upper bound for the distance from ``a`` to the image algebra.

    The image of a homomorphism is the linear span of its matrix-unit images;
    the Frobenius-orthogonal projection onto that span gives an element whose
    operator-norm distance to ``a`` bounds the true distance from above.
    """
    # one row per matrix unit, in (i, j, k) order: its image's blocks, flattened
    slots = phi_prime.codomain.block_slots
    rows = []
    for i, d in enumerate(phi_prime.domain.block_sizes):
        units = unit_stacks(phi_prime, i)
        rows.append(np.concatenate([units[g][n].reshape(d * d, -1) for g, n in slots], axis=1))
    basis = np.concatenate(rows)
    basis = basis[np.linalg.norm(basis, axis=1) > 1e-12]
    target = np.concatenate([b.reshape(-1) for b in a.blocks])
    if not len(basis):
        return a.norm()
    B = basis.T
    coeff, *_ = np.linalg.lstsq(B, target, rcond=None)
    ends = np.cumsum([r * r for r in a.algebra.block_sizes])[:-1]
    best_blocks = [v.reshape(r, r) for v, r in zip(np.split(B @ coeff, ends), a.algebra.block_sizes)]
    best = AlgebraElement(a.algebra, best_blocks)
    return (a - best).norm()


# ---------------------------------------------------------------------------
# the finite local AF step
# ---------------------------------------------------------------------------

@dataclass
class LocalApproximation:
    """A triple (F, psi, phi) through a block algebra, both maps stored explicitly."""

    F: FiniteDimAlgebra
    psi: CPMap  # from the ambient matrix algebra into F
    phi: CPMap  # from F back into the ambient matrix algebra


@dataclass
class AFLocalReport:
    hypotheses: dict[str, Check]
    subalgebra: FiniteDimAlgebra
    perturbation: PerturbationReport
    distances: list[Check]  # per element a_idx: certified, then direct


def af_local_step(
    a_list: list[AlgebraElement],
    approx: LocalApproximation,
    u: AlgebraElement,
    eps: float,
) -> AFLocalReport:
    """Produce a homomorphism onto a compression of F close to the given elements.

    Diagonalizes psi(u), cuts at sqrt(eps) to get the projection q, restricts
    phi to qFq, snaps the restriction to a homomorphism, and checks the
    distances dist(a_i, phi'(F')) against the distance chain.  Each numerical
    hypothesis is measured and a failing one is reported by name.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    phi, psi, F = approx.phi, approx.psi, approx.F
    codomain = phi.codomain
    h = phi.apply_one()

    hyp: dict[str, Check] = {}

    def record(
        name: str, measured: float, bound: float, ok: bool | None = None, message: Callable[[], str] | None = None
    ) -> None:
        """Record hypothesis ``name``, by default ``measured < bound``; a failing one
        raises, with its message built only then."""
        check = hyp[name] = Check(name, measured, bound, measured < bound if ok is None else ok)
        if not check:
            raise HypothesisFailure(
                name, message() if message else f"measured {measured:.6g} >= bound {bound:.6g}"
            )

    pu = psi.apply(u)
    fpu = phi.apply(pu)
    for idx, a in enumerate(a_list):
        record(f"(i) a_{idx}", (phi.apply(psi.apply(a)) - a).norm(), eps)
    record("(ii)", (fpu - u).norm(), eps)
    for idx, a in enumerate(a_list):
        record(f"(iii) a_{idx}", (fpu @ a - a).norm(), eps)
    record("(iv)", (u - h @ u).norm(), eps)
    record("(v)", (fpu - h @ fpu).norm(), eps)
    cert = certify_order_zero(phi)
    record("(vi)", cert.reconstruction_defect, 1e-7, cert.ok, lambda: "; ".join(cert.witnesses[:4]))

    # spectral cut of psi(u) at sqrt(eps)
    root = float(np.sqrt(eps))
    bases = []
    q_blocks = []
    for b in pu.blocks:
        w, v = eigh_canonical(_hermitian_part(b))
        W = v[:, w >= root]
        bases.append(W)
        q_blocks.append(W @ W.conj().T)
    q = AlgebraElement(F, q_blocks)

    live = [(i, W) for i, W in enumerate(bases) if W.shape[1] > 0]
    if not live:
        raise HypothesisFailure("cut", f"no eigenvalue of psi(u) reaches sqrt(eps) = {root:.4g}")
    sub = FiniteDimAlgebra(W.shape[1] for _, W in live)
    images = {}
    for new_i, (i, W) in enumerate(live):
        for c in range(codomain.num_blocks):
            # W e_ab W^* = sum_jk W_ja conj(W_kb) e_jk: the stack is W^T A conj(W) over (j, k)
            arr = W.T @ phi.image_array(i, c).transpose(2, 3, 0, 1) @ W.conj()
            images[(new_i, c)] = arr.transpose(2, 3, 0, 1)

    fq = phi.apply(q)
    gamma = max((fq @ fq - fq).norm() * (1 + 1e-9), 1e-12) + 1e-15
    if gamma >= 0.25:
        raise HypothesisFailure(
            "gamma", f"||phi(q) - phi(q)^2|| = {gamma:.6g} leaves the perturbation regime"
        )
    perturbation = perturb_to_hom(CPMap(sub, codomain, images, phi.codomain_space), gamma)
    phi_prime = perturbation.phi_prime

    bound_chain = float(2.0 * np.sqrt(2.0) * eps ** 0.25 + eps + 2.0 * eps ** 0.125)
    # the direct distance also carries the move from phi to phi'
    bound_direct = bound_chain + perturbation.moved.measured
    distances: list[Check] = []
    for idx, a in enumerate(a_list):
        # compress psi(a) to the cut subalgebra
        pa = psi.apply(a)
        comp = AlgebraElement(sub, [W.conj().T @ pa.blocks[i] @ W for i, W in live])
        direct = (a - phi_prime.apply(comp)).norm()
        certified = dist_to_hom_image(a, phi_prime)
        distances += [
            Check("certified", certified, bound_chain, certified <= bound_chain, f"a_{idx}"),
            Check("direct", direct, bound_direct, direct <= bound_direct, f"a_{idx}"),
        ]
    return AFLocalReport(hyp, sub, perturbation, distances)
