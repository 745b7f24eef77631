"""Structure of strict-order-zero maps and the finite local step towards AF.

An order-zero map out of a block algebra factors as h * sigma(.) with sigma a
homomorphism commuting with h = phi(1); this module extracts that data,
snaps almost-unital order-zero maps to genuine homomorphisms with the
quantitative bound 12*gamma + 2*sqrt(gamma), and runs the finite local step
that produces a nearby finite-dimensional subalgebra from a good enough
completely positive approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    FiniteDimAlgebra,
    apply_function,
    eigh_canonical,
    inverse_sqrt_on_support,
    spectrum,
    validate,
)
from .cpmaps import (
    CPMap,
    OrderZeroCertificate,
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
    support_projection: AlgebraElement


@dataclass
class OrderZeroDecomposition:
    phi: CPMap
    blocks: list[BlockDecomposition]
    reconstruction_defect: float
    certificate: OrderZeroCertificate


def _distinct_positive(values: np.ndarray, tol: float) -> tuple[float, ...]:
    vals = sorted(float(v) for v in values if v > tol)
    out: list[float] = []
    for v in vals:
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


def decompose_order_zero(phi: CPMap, tol: float = 1e-9) -> OrderZeroDecomposition:
    """Extract the eigenvalue supports, the h_i, and the support homomorphisms.

    The compression by the inverse square root of h_i on its support realizes
    the homomorphism in one step; finite dimensions make the usual limit
    stationary.  Certification failures are forwarded with their witnesses.
    """
    cert = certify_order_zero(phi)
    if not cert.ok:
        raise ValueError("map is not order zero: " + "; ".join(cert.witnesses[:4]))
    blocks = []
    worst = 0.0
    for i, d in enumerate(phi.domain.block_sizes):
        h = cert.h_blocks[i]
        sigma = cert.sigma_maps[i]
        supp = cert.support_projections[i]
        support_vals = _distinct_positive(spectrum(h, tol=np.inf), 1e-7)
        if support_vals and support_vals[-1] > 1.0 + 1e-7:
            raise ValueError(f"block {i}: eigenvalue {support_vals[-1]:.6g} above 1")
        recon = [phi.unit_image(i, j, k) - h @ sigma.unit_image(0, j, k) for j, k in np.ndindex(d, d)]
        worst = max([worst] + [x.norm() for x in recon])
        blocks.append(BlockDecomposition(support_vals, h, sigma, supp))
    if worst > tol:
        raise ValueError(
            f"reconstruction defect {worst:.3e} exceeds tol {tol:.1e}; "
            "tolerance mismatch between certification and decomposition"
        )
    return OrderZeroDecomposition(phi, blocks, worst, cert)


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
    return max(
        float(unit_product_defects(units[i], units[i2], j, k, i == i2).max())
        for i, d in enumerate(phi.domain.block_sizes)
        for i2 in range(len(units))
        for j in range(d)
        for k in range(d)
    )


def check_projection_case(phi: CPMap, tol: float = 1e-9) -> ProjectionCaseVerdict:
    """Order zero plus phi(1) a projection forces phi to be a homomorphism.

    Inapplicable when phi(1) is not a projection; this is distinct from a
    failing verdict.
    """
    cert = certify_order_zero(phi)
    if not cert.ok:
        raise ValueError("map is not order zero: " + "; ".join(cert.witnesses[:4]))
    one_img = phi.apply_one()
    proj = validate(one_img, "projection", 1e-7)
    if not proj:
        return ProjectionCaseVerdict("inapplicable", 0.0, f"phi(1) is not a projection: {proj.detail}")
    defect = _hom_defect(phi)
    if defect <= tol:
        return ProjectionCaseVerdict("holds", defect, f"multiplicativity defect {defect:.3e}")
    return ProjectionCaseVerdict("fails", defect, f"multiplicativity defect {defect:.3e}")


@dataclass
class PerturbationReport:
    phi_prime: CPMap
    gamma: float
    unit_defect: float          # ||phi(1) - phi(1)^2||
    hom_defect: float           # multiplicativity of phi'
    norm_measured: float        # max difference over the probe family
    norm_bound: float           # 12 gamma + 2 sqrt(gamma)
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
            w, v = eigh_canonical((ch + ch.conj().T) / 2)
            cp_pos = (v * np.maximum(w, 0.0)) @ v.conj().T
            cp_neg = (v * np.maximum(-w, 0.0)) @ v.conj().T
            arr_pos = cp_pos.reshape(d, r, d, r).transpose(0, 2, 1, 3)
            arr_neg = cp_neg.reshape(d, r, d, r).transpose(0, 2, 1, 3)
            for j in range(d):
                pos[c] = pos[c] + arr_pos[j, j]
                neg[c] = neg[c] + arr_neg[j, j]
    return AlgebraElement(phi_a.codomain, pos).norm() + AlgebraElement(phi_a.codomain, neg).norm()


def _norm_probe_family(domain: FiniteDimAlgebra, seed: int = 7, count: int = 50) -> list[AlgebraElement]:
    probes = [AlgebraElement.identity(domain)]
    for i, d in enumerate(domain.block_sizes):
        for j in range(d):
            for k in range(j, d):
                m = np.zeros((d, d), complex)
                if j == k:
                    m[j, j] = 1.0
                else:
                    m[j, k] = m[k, j] = 0.5
                probes.append(AlgebraElement.from_block(domain, i, m))
                if j != k:
                    m2 = np.zeros((d, d), complex)
                    m2[j, k] = -0.5j
                    m2[k, j] = 0.5j
                    probes.append(AlgebraElement.from_block(domain, i, m2))
    rng = np.random.default_rng(seed)
    for _ in range(count):
        blocks = []
        for d in domain.block_sizes:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            blocks.append(g)
        x = AlgebraElement(domain, blocks)
        n = x.norm()
        if n > 0:
            x = (1.0 / n) * x
        probes.append(x)
    return probes


def map_norm_lower_bound(phi_a: CPMap, phi_b: CPMap, seed: int = 7) -> float:
    """Certified lower bound for ||phi_a - phi_b|| from a fixed probe family."""
    worst = 0.0
    for x in _norm_probe_family(phi_a.domain, seed=seed):
        worst = max(worst, (phi_a.apply(x) - phi_b.apply(x)).norm())
    return worst


def perturb_to_hom(phi: CPMap, gamma: float, tol: float = 1e-9) -> PerturbationReport:
    """Snap an order-zero map with almost-projection unit image to a homomorphism.

    phi'(x) = c phi(x) c with c the inverse square root of p phi(1) p on the
    spectral projection p of phi(1) above 1/2.  Requires
    ``||phi(1) - phi(1)^2|| < gamma < 1/4``; the move is bounded by
    ``12 gamma + 2 sqrt(gamma)``.
    """
    if not 0 < gamma < 0.25:
        raise ValueError(f"gamma must lie in (0, 1/4), got {gamma}")
    cert = certify_order_zero(phi)
    if not cert.ok:
        raise ValueError("map is not order zero: " + "; ".join(cert.witnesses[:4]))
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
    if hom_defect > max(tol, 1e-8):
        raise AssertionError(f"perturbed map is not a homomorphism: defect {hom_defect:.3e}")
    measured = map_norm_lower_bound(phi_prime, phi)
    bound = 12.0 * gamma + 2.0 * np.sqrt(gamma)
    if measured > bound + 1e-9:
        raise AssertionError(f"perturbation moved {measured:.6g} > 12 gamma + 2 sqrt(gamma)")
    cb = _cb_upper_bound(phi_prime, phi)
    return PerturbationReport(phi_prime, gamma, unit_defect, hom_defect, measured, bound, cb)


# ---------------------------------------------------------------------------
# distance to the image of a homomorphism
# ---------------------------------------------------------------------------

def dist_to_hom_image(a: AlgebraElement, phi_prime: CPMap) -> float:
    """Certified upper bound for the distance from ``a`` to the image algebra.

    The image of a homomorphism is the linear span of its matrix-unit images;
    the Frobenius-orthogonal projection onto that span gives an element whose
    operator-norm distance to ``a`` bounds the true distance from above.
    """
    basis = []
    for i, d in enumerate(phi_prime.domain.block_sizes):
        for j in range(d):
            for k in range(d):
                img = phi_prime.unit_image(i, j, k)
                vec = np.concatenate([b.reshape(-1) for b in img.blocks])
                if np.linalg.norm(vec) > 1e-12:
                    basis.append(vec)
    target = np.concatenate([b.reshape(-1) for b in a.blocks])
    if not basis:
        return a.norm()
    B = np.stack(basis, axis=1)
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
    hypotheses: dict[str, tuple[float, float, bool]]
    q: AlgebraElement
    cut_eigenvalues: list[np.ndarray]
    subalgebra: FiniteDimAlgebra
    phi_restricted: CPMap
    perturbation: PerturbationReport
    chain: dict[str, float]
    distances: list[dict[str, float]]


def af_local_step(
    a_list: list[AlgebraElement],
    approx: LocalApproximation,
    u: AlgebraElement,
    eps: float,
) -> AFLocalReport:
    """Produce a homomorphism onto a compression of F close to the given elements.

    Diagonalizes psi(u), cuts at sqrt(eps) to get the projection q, restricts
    phi to qFq, snaps the restriction to a homomorphism, and certifies the
    distances dist(a_i, phi'(F')).  Each numerical hypothesis is measured and
    a failing one is reported by name.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    phi, psi, F = approx.phi, approx.psi, approx.F
    codomain = phi.codomain
    one = AlgebraElement.identity(codomain)
    h = phi.apply_one()

    hyp: dict[str, tuple[float, float, bool]] = {}

    def record(name: str, measured: float, bound: float) -> None:
        hyp[name] = (measured, bound, measured < bound)
        if measured >= bound:
            raise HypothesisFailure(name, f"measured {measured:.6g} >= bound {bound:.6g}")

    for idx, a in enumerate(a_list):
        record(f"(i) a_{idx}", (phi.apply(psi.apply(a)) - a).norm(), eps)
    record("(ii)", (phi.apply(psi.apply(u)) - u).norm(), eps)
    for idx, a in enumerate(a_list):
        record(f"(iii) a_{idx}", (phi.apply(psi.apply(u)) @ a - a).norm(), eps)
    record("(iv)", (u - h @ u).norm(), eps)
    fpu = phi.apply(psi.apply(u))
    record("(v)", (fpu - h @ fpu).norm(), eps)
    cert = certify_order_zero(phi)
    if not cert.ok:
        raise HypothesisFailure("(vi)", "; ".join(cert.witnesses[:4]))
    hyp["(vi)"] = (cert.reconstruction_defect, 1e-7, True)

    # spectral cut of psi(u) at sqrt(eps)
    pu = psi.apply(u)
    root = float(np.sqrt(eps))
    bases = []
    cut_eigs = []
    q_blocks = []
    for b in pu.blocks:
        w, v = eigh_canonical((b + b.conj().T) / 2)
        keep = w >= root
        cut_eigs.append(w)
        W = v[:, keep]
        bases.append(W)
        q_blocks.append(W @ W.conj().T)
    q = AlgebraElement(F, q_blocks)

    live = [(i, W) for i, W in enumerate(bases) if W.shape[1] > 0]
    if not live:
        raise HypothesisFailure("cut", f"no eigenvalue of psi(u) reaches sqrt(eps) = {root:.4g}")
    sizes = tuple(W.shape[1] for _, W in live)
    # each size is at most a codomain block size, which passed its cap
    sub = FiniteDimAlgebra(sizes, max_block=max(sizes))
    images = {}
    for new_i, (i, W) in enumerate(live):
        m = W.shape[1]
        r = F.block_sizes[i]
        for c in range(codomain.num_blocks):
            rc = codomain.block_sizes[c]
            arr = np.zeros((m, m, rc, rc), complex)
            base = phi.image_array(i, c)
            for a_idx in range(m):
                for b_idx in range(m):
                    unit = np.outer(W[:, a_idx], W[:, b_idx].conj())
                    arr[a_idx, b_idx] = np.einsum("jk,jkab->ab", unit, base)
            if np.any(arr):
                images[(new_i, c)] = arr
    phi_restricted = CPMap(sub, codomain, images, phi.codomain_space, phi.codomain_matdim)

    fq = phi.apply(q)
    chain = {
        "||phi(q) - h phi(q)||": (fq - h @ fq).norm(),
        "eps^(1/4)": eps ** 0.25,
        "||phi(q) - phi(q)^2||": (fq @ fq - fq).norm(),
    }
    gamma = max(chain["||phi(q) - phi(q)^2||"] * (1 + 1e-9), 1e-12) + 1e-15
    if gamma >= 0.25:
        raise HypothesisFailure(
            "gamma", f"||phi(q) - phi(q)^2|| = {gamma:.6g} leaves the perturbation regime"
        )
    perturbation = perturb_to_hom(phi_restricted, gamma)
    phi_prime = perturbation.phi_prime

    bound_chain = 2.0 * np.sqrt(2.0) * eps ** 0.25 + eps + 2.0 * eps ** 0.125
    distances = []
    for idx, a in enumerate(a_list):
        # compress psi(a) to the cut subalgebra
        pa = psi.apply(a)
        comp_blocks = []
        for new_i, (i, W) in enumerate(live):
            comp_blocks.append(W.conj().T @ pa.blocks[i] @ W)
        comp = AlgebraElement(sub, comp_blocks)
        b_i = phi_prime.apply(comp)
        direct = (a - b_i).norm()
        certified = dist_to_hom_image(a, phi_prime)
        distances.append(
            {
                "direct": direct,
                "certified": certified,
                "chain_bound": bound_chain,
                "chain_bound_with_perturbation": bound_chain + perturbation.norm_measured,
            }
        )
    return AFLocalReport(hyp, q, cut_eigs, sub, phi_restricted, perturbation, chain, distances)
