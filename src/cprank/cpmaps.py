"""Completely positive maps out of finite-dimensional block algebras.

A map is stored through its matrix-unit images, block pair by block pair, in
a sparse dictionary (missing pairs are zero).  The codomain is always another
block algebra; a matrix codomain is the single-block case and a function
system over a finite space is the many-small-blocks case, tagged with the
space so callers can recover pointwise values.

Covers verification (Choi positivity, contractivity), the Stinespring
dilation, the Schwarz and multiplicativity estimates, and the strict-order
machinery: exact order for abelian domains via clique search, certification
and witness search for the order-zero dichotomy on matrix blocks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.linalg import block_diag

from .algebra import (
    AlgebraElement,
    FiniteDimAlgebra,
    apply_function,
    eigh_canonical,
    inverse_sqrt_on_support,
    matrix_unit,
    orthogonality_defect,
    projection_from_vector,
    support_projection,
)
from .cliques import max_clique

#: default tolerance for orthogonality verdicts
ORTH_TOL = 1e-8
#: smallest admissible Choi eigenvalue for a completely positive verdict
CP_TOL = 1e-9


class CPMap:
    """Linear map between block algebras, determined by matrix-unit images.

    ``images[(i, c)]`` is a complex array of shape ``(d_i, d_i, r_c, r_c)``
    holding, at ``[j, k]``, the block-c component of the image of the matrix
    unit ``e^{(i)}_{jk}``.  Pairs absent from the dictionary are zero.  Maps
    read a stacked copy, rebuilt when an entry is replaced, added or removed:
    replace arrays rather than modify them in place.
    """

    def __init__(
        self,
        domain: FiniteDimAlgebra,
        codomain: FiniteDimAlgebra,
        images: dict[tuple[int, int], np.ndarray],
        codomain_space: Any = None,
        codomain_matdim: int = 1,
    ):
        self.domain = domain
        self.codomain = codomain
        self.codomain_space = codomain_space
        self.codomain_matdim = codomain_matdim
        store: dict[tuple[int, int], np.ndarray] = {}
        for (i, c), arr in images.items():
            d = domain.block_sizes[i]
            r = codomain.block_sizes[c]
            a = np.asarray(arr, dtype=complex)
            if a.shape != (d, d, r, r):
                raise ValueError(
                    f"image block ({i},{c}) has shape {a.shape}, expected {(d, d, r, r)}"
                )
            if np.any(a):
                store[(i, c)] = a
        self.images = store
        self._stacked: tuple = ((), (), [])

    # -- basic structure ---------------------------------------------------

    def _layout(self) -> list[tuple]:
        """Per codomain size group: the codomain slots of its pairs in dictionary
        order and, per domain size group, their domain slots, places in that
        order and stacked images.  Kept while ``images`` is unchanged."""
        keys, arrays = tuple(self.images), tuple(self.images.values())
        if keys == self._stacked[0] and all(map(operator.is_, arrays, self._stacked[1])):
            return self._stacked[2]
        groups: dict[int, tuple[list, dict]] = {}
        for (i, c), arr in zip(keys, arrays):
            (gd, sd), (gc, sc) = self.domain.block_slots[i], self.codomain.block_slots[c]
            slots, parts = groups.setdefault(gc, ([], {}))
            dom_slots, at, arrs = parts.setdefault(gd, ([], [], []))
            dom_slots.append(sd)
            at.append(len(slots))
            arrs.append(arr)
            slots.append(sc)
        layout = [
            (gc, slots, [(gd, sd, at, np.stack(arrs)) for gd, (sd, at, arrs) in parts.items()])
            for gc, (slots, parts) in groups.items()
        ]
        self._stacked = (keys, arrays, layout)
        return layout

    def image_array(self, i: int, c: int) -> np.ndarray:
        d = self.domain.block_sizes[i]
        r = self.codomain.block_sizes[c]
        return self.images.get((i, c), np.zeros((d, d, r, r), complex))

    def unit_image(self, i: int, j: int, k: int) -> AlgebraElement:
        """Image of the matrix unit e^{(i)}_{jk} as a codomain element."""
        return self.apply(matrix_unit(self.domain, i, j, k))

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        """phi(x): one einsum per group of same-shape pairs, then each pair's term
        added into its codomain block in dictionary order, as a pair-by-pair
        sum would."""
        if x.algebra.block_sizes != self.domain.block_sizes:
            raise ValueError("element does not live in the domain")
        stacks = self.codomain.zero_stacks()
        for gc, slots, parts in self._layout():
            terms = np.empty((len(slots),) + stacks[gc].shape[1:], complex)
            for gd, dom_slots, at, arrays in parts:
                terms[at] = np.einsum("njk,njkab->nab", x.stacks[gd][dom_slots], arrays)
            np.add.at(stacks[gc], slots, terms)
        return AlgebraElement.from_stacks(self.codomain, stacks)

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.apply(x)

    def apply_to_block(self, i: int, mat: np.ndarray) -> AlgebraElement:
        """Apply to an element supported in a single domain block."""
        x = AlgebraElement.from_block(self.domain, i, mat)
        return self.apply(x)

    def restrict_to_block(self, i: int) -> "CPMap":
        """The map on domain block i alone, as a map out of M_{d_i}."""
        images = {(0, c): self.image_array(i, c) for c in range(self.codomain.num_blocks)}
        d = self.domain.block_sizes[i]
        # d passed the cap of self.domain, which may be above the default
        sub_domain = FiniteDimAlgebra((d,), max_block=d)
        return CPMap(sub_domain, self.codomain, images, self.codomain_space, self.codomain_matdim)

    def adjoint_symmetry_defect(self) -> float:
        """max over blocks of || phi(e_kj) - phi(e_jk)^* ||_max."""
        worst = 0.0
        for arr in self.images.values():
            swapped = np.conj(arr.transpose(1, 0, 3, 2))
            worst = max(worst, float(np.abs(arr - swapped).max()))
        return worst

    # -- verification --------------------------------------------------------

    def choi_block(self, i: int, c: int) -> np.ndarray:
        """Choi matrix of the (i, c) component, of size d_i r_c."""
        arr = self.image_array(i, c)
        d, _, r, _ = arr.shape
        return arr.transpose(0, 2, 1, 3).reshape(d * r, d * r)

    def min_choi_eigenvalue(self) -> float:
        """Smallest Choi eigenvalue over the stored block pairs, 0 when none is stored."""
        chois = [self.choi_block(i, c) for i, c in self.images]
        lows = [float(np.linalg.eigvalsh((ch + ch.conj().T) / 2).min()) for ch in chois]
        return min(lows, default=0.0)

    def is_completely_positive(self, tol: float = CP_TOL) -> bool:
        return self.min_choi_eigenvalue() >= -tol and self.adjoint_symmetry_defect() <= 1e-8

    def apply_one(self) -> AlgebraElement:
        return self.apply(AlgebraElement.identity(self.domain))


def choi_blocks(phi: CPMap, tol: float = CP_TOL) -> tuple[list[np.ndarray], bool, float]:
    """Per-domain-block Choi matrices and the overall PSD verdict.

    For a single-block codomain these are the usual Choi matrices of size
    ``d_i * N``; for several codomain blocks each domain block contributes the
    direct sum of its per-pair Choi matrices.
    """
    if phi.adjoint_symmetry_defect() > 1e-8:
        raise ValueError(
            f"inconsistent adjoint symmetry: defect {phi.adjoint_symmetry_defect():.3e}"
        )
    blocks = []
    worst = 0.0
    for i in range(phi.domain.num_blocks):
        big = block_diag(*[phi.choi_block(i, c) for c in range(phi.codomain.num_blocks)])
        blocks.append(big)
        worst = min(worst, float(np.linalg.eigvalsh((big + big.conj().T) / 2).min()))
    return blocks, worst >= -tol, worst


def is_contractive(phi: CPMap, tol: float = CP_TOL) -> tuple[bool, float]:
    """Contractivity of a c.p. map, decided by the norm of phi(1)."""
    if not phi.is_completely_positive():
        raise ValueError("map is not completely positive")
    nrm = phi.apply_one().norm()
    return nrm <= 1.0 + tol, nrm


def compress(phi: CPMap, h: AlgebraElement) -> CPMap:
    """The compression h^* phi(.) h, completely positive whenever phi is."""
    if h.algebra.block_sizes != phi.codomain.block_sizes:
        raise ValueError("compression element must live in the codomain")
    images = {}
    for (i, c), arr in phi.images.items():
        hc = h.blocks[c]
        images[(i, c)] = np.einsum("ab,jkbc,cd->jkad", hc.conj().T, arr, hc)
    out = CPMap(phi.domain, phi.codomain, images, phi.codomain_space, phi.codomain_matdim)
    if phi.is_completely_positive() and not out.is_completely_positive():
        raise AssertionError("compression broke complete positivity")
    return out


def unitize(phi: CPMap, tol: float = CP_TOL) -> CPMap:
    """Extend a c.p. contraction to a unital map on the domain with a unit adjoined.

    The adjoined unit becomes an extra one-dimensional summand whose image is
    ``1 - phi(1)``; the restriction to the original domain is unchanged.
    """
    ok, nrm = is_contractive(phi, tol)
    if not ok:
        raise ValueError(f"map is not contractive: ||phi(1)|| = {nrm:.6g}")
    sizes = phi.domain.block_sizes
    new_domain = FiniteDimAlgebra(sizes + (1,), max_block=max(sizes))
    images = {(i, c): arr.copy() for (i, c), arr in phi.images.items()}
    defect = AlgebraElement.identity(phi.codomain) - phi.apply_one()
    m = phi.domain.num_blocks
    # the constructor drops the zero blocks
    images.update({(m, c): b.reshape(1, 1, *b.shape) for c, b in enumerate(defect.blocks)})
    out = CPMap(new_domain, phi.codomain, images, phi.codomain_space, phi.codomain_matdim)
    if not out.is_completely_positive():
        raise AssertionError("unitization broke complete positivity")
    return out


# ---------------------------------------------------------------------------
# Stinespring dilation
# ---------------------------------------------------------------------------

@dataclass
class StinespringDilation:
    """Dilation phi(a) = V^* pi(a) V with pi a direct sum of amplifications.

    Block i of the domain acts on a summand C^{d_i} (x) C^{m_i}; the matrix of
    ``pi(e^{(i)}_{jk})`` is the corresponding amplified matrix unit.
    """

    domain: FiniteDimAlgebra
    codomain_size: int
    multiplicities: tuple[int, ...]
    V: np.ndarray

    @property
    def rep_dimension(self) -> int:
        return sum(d * m for d, m in zip(self.domain.block_sizes, self.multiplicities))

    def pi_unit(self, i: int, j: int, k: int) -> np.ndarray:
        return self.pi(matrix_unit(self.domain, i, j, k))

    def pi(self, x: AlgebraElement) -> np.ndarray:
        return block_diag(*[np.kron(b, np.eye(m)) for b, m in zip(x.blocks, self.multiplicities)])

    def reconstruct(self, x: AlgebraElement) -> np.ndarray:
        return self.V.conj().T @ self.pi(x) @ self.V

    def multiplicativity_defect(self) -> float:
        """pi is an amplified identity, so this vanishes by construction."""
        worst = 0.0
        for i, d in enumerate(self.domain.block_sizes):
            for j in range(d):
                for k in range(d):
                    lhs = self.pi_unit(i, j, k) @ self.pi_unit(i, k, j)
                    rhs = self.pi_unit(i, j, j)
                    worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
        return worst


def stinespring(phi: CPMap, tol: float = CP_TOL) -> StinespringDilation:
    """Dilate a c.p. map with matrix codomain by factoring its Choi blocks."""
    if phi.codomain.num_blocks != 1:
        raise ValueError("stinespring dilation needs a matrix (single-block) codomain")
    n = phi.codomain.block_sizes[0]
    mults = []
    v_parts = []
    for i, d in enumerate(phi.domain.block_sizes):
        ch = phi.choi_block(i, 0)
        w, vecs = eigh_canonical((ch + ch.conj().T) / 2)
        if w.size and w.min() < -tol:
            raise ValueError(f"map is not completely positive: Choi eigenvalue {w.min():.3e}")
        keep = np.flatnonzero(w > 1e-12)
        m = len(keep)
        mults.append(m)
        vi = np.zeros((d * m, n), complex)
        for col, a in enumerate(keep):
            kraus = (np.sqrt(w[a]) * vecs[:, a]).reshape(d, n).T  # N x d, phi = sum K x K^*
            # V block row (j, col) carries K^*[j, :]
            vi.reshape(d, m, n)[:, col, :] = kraus.T.conj()
        v_parts.append(vi)
    V = np.vstack(v_parts) if v_parts else np.zeros((0, n), complex)
    dil = StinespringDilation(phi.domain, n, tuple(mults), V)

    worst = 0.0
    for i, d in enumerate(phi.domain.block_sizes):
        for j in range(d):
            for k in range(d):
                target = phi.unit_image(i, j, k).blocks[0]
                got = dil.V.conj().T @ dil.pi_unit(i, j, k) @ dil.V
                worst = max(worst, float(np.linalg.norm(target - got, 2)))
    if worst > 1e-9:
        raise AssertionError(f"dilation reconstruction defect {worst:.3e}")
    vnorm = float(np.linalg.norm(V, 2) ** 2)
    if abs(vnorm - phi.apply_one().norm()) > 1e-8:
        raise AssertionError("||V||^2 does not match ||phi(1)||")
    return dil


# ---------------------------------------------------------------------------
# Schwarz inequality and multiplicativity estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchwarzReport:
    lambda_min: float
    defect: float
    gap: float

    def __float__(self) -> float:
        return self.lambda_min if self.defect > 0 else max(self.lambda_min, 0.0)


def schwarz_defect(phi: CPMap, x: AlgebraElement, tol: float = CP_TOL) -> SchwarzReport:
    """Most negative eigenvalue of phi(x*x) - phi(x)*phi(x), floored at zero within tol."""
    fx = phi.apply(x)
    diff = phi.apply(x.adjoint() @ x) - fx.adjoint() @ fx
    lam = min(
        float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in diff.blocks
    )
    defect = -lam if lam < -tol else 0.0
    return SchwarzReport(lam, defect, max(lam, 0.0))


@dataclass(frozen=True)
class MultiplicativityReport:
    lhs: float
    eps: float
    bound: float
    ok: bool


def multiplicativity_defect(
    phi: CPMap, x: AlgebraElement, y: AlgebraElement
) -> MultiplicativityReport:
    """Check ||phi(yx) - phi(y)phi(x)|| against sqrt(||phi(x*x) - phi(x)*phi(x)||)."""
    fx = phi.apply(x)
    eps = (phi.apply(x.adjoint() @ x) - fx.adjoint() @ fx).norm()
    lhs = (phi.apply(y @ x) - phi.apply(y) @ fx).norm()
    bound = float(np.sqrt(max(eps, 0.0)))
    return MultiplicativityReport(lhs, eps, bound, lhs <= bound + 1e-9)


# ---------------------------------------------------------------------------
# strict order
# ---------------------------------------------------------------------------

def _generator_graph(phi: CPMap, tol: float) -> np.ndarray:
    """Adjacency of the domain generators whose images have product norm above tol."""
    s = phi.domain.num_blocks
    adj = np.zeros((s, s), dtype=bool)
    if phi.codomain.is_abelian():
        # scalar values: stack generators and compare pointwise products
        gmat = np.zeros((s, phi.codomain.num_blocks))
        for (i, c), arr in phi.images.items():
            gmat[i, c] = abs(arr[0, 0, 0, 0])
        for i in range(s):
            prods = (gmat * gmat[i]).max(axis=1)
            adj[i] = prods > tol
        np.fill_diagonal(adj, False)
    else:
        gens = [phi.unit_image(i, 0, 0) for i in range(s)]
        for i in range(s):
            for j in range(i + 1, s):
                if (gens[i] @ gens[j]).norm() > tol:
                    adj[i, j] = adj[j, i] = True
    return adj


def strict_order_abelian(phi: CPMap, tol: float = ORTH_TOL) -> int:
    """Exact strict order of a map with abelian domain.

    The generators' images form an intersection graph (edge when the product
    norm exceeds the tolerance); the strict order is the clique number less
    one.
    """
    if not phi.domain.is_abelian():
        raise ValueError("domain is not abelian")
    return max(len(max_clique(_generator_graph(phi, tol))) - 1, 0)


def strict_order_abelian_brute(phi: CPMap, tol: float = ORTH_TOL) -> int:
    """Subset-enumeration oracle for abelian strict order (tests, s <= 12)."""
    from itertools import combinations

    if not phi.domain.is_abelian():
        raise ValueError("domain is not abelian")
    s = phi.domain.num_blocks
    gens = [phi.unit_image(i, 0, 0) for i in range(s)]
    best = 1 if s else 0
    for size in range(2, s + 1):
        for sub in combinations(range(s), size):
            if all((gens[a] @ gens[b]).norm() > tol for a, b in combinations(sub, 2)):
                best = max(best, size)
    return max(best - 1, 0)


# ---------------------------------------------------------------------------
# order-zero certification
# ---------------------------------------------------------------------------

def unit_stacks(phi: CPMap, i: int) -> list[np.ndarray]:
    """phi(e^{(i)}_{jk}) for all (j, k), stacked like codomain elements:
    ``[g][n, j, k]`` is block n of size group g."""
    d = phi.domain.block_sizes[i]
    units = [phi.unit_image(i, j, k).stacks for j in range(d) for k in range(d)]
    return [np.stack(u, axis=1).reshape(len(u[0]), d, d, *u[0].shape[1:]) for u in zip(*units)]


def _norms(stacks: list[np.ndarray]) -> np.ndarray:
    """Operator norms of codomain elements stacked as in :func:`unit_stacks`."""
    return np.max([np.linalg.svd(s, compute_uv=False).max(axis=(0, -1)) for s in stacks], axis=0)


def unit_product_defects(
    a: list[np.ndarray], b: list[np.ndarray], j: int, k: int, same_block: bool
) -> np.ndarray:
    """||a(e_jk) b(e_lm) - [same_block and k == l] a(e_jm)|| for every (l, m).

    ``a`` and ``b`` are the unit images of two domain blocks, stacked as in
    :func:`unit_stacks`; zero everywhere for a homomorphism.
    """
    out = []
    for x, y in zip(a, b):
        got = x[:, j, k, None, None] @ y
        if same_block:
            got[:, k] -= x[:, j]
        out.append(got)
    return _norms(out)


@dataclass
class OrderZeroCertificate:
    ok: bool
    tol: float
    witnesses: list[str]
    h_blocks: list[AlgebraElement] = field(default_factory=list)
    support_projections: list[AlgebraElement] = field(default_factory=list)
    sigma_maps: list[CPMap] = field(default_factory=list)
    reconstruction_defect: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def certify_order_zero(phi: CPMap, tol: float = ORTH_TOL) -> OrderZeroCertificate:
    """Certify strict order zero through its structural characterization.

    Per domain block, h_i = phi(1_i) must commute with every image, the
    compression of phi by the inverse square root of h_i on its support must
    be multiplicative, and images of different blocks must be orthogonal; a
    failing check is returned as a witness.  A positive certificate carries
    the h_i, their support projections and the compressed homomorphisms.
    """
    witnesses: list[str] = []
    min_choi = phi.min_choi_eigenvalue()
    if min_choi < -CP_TOL:
        witnesses.append(f"not completely positive: Choi eigenvalue {min_choi:.3e}")
    one_norm = phi.apply_one().norm()
    if one_norm > 1.0 + CP_TOL:
        witnesses.append(f"not contractive: ||phi(1)|| = {one_norm:.6g}")
    if witnesses:
        return OrderZeroCertificate(False, tol, witnesses)

    m = phi.domain.num_blocks
    hs = [phi.apply_to_block(i, np.eye(phi.domain.block_sizes[i])) for i in range(m)]

    for i in range(m):
        for j in range(i + 1, m):
            cross = orthogonality_defect(hs[i], hs[j])
            if cross > tol:
                witnesses.append(
                    f"blocks {i},{j}: ||phi(1_{i}) phi(1_{j})|| = {cross:.3e} > tol"
                )

    supports = []
    sigmas = []
    recon_defect = 0.0
    for i, d in enumerate(phi.domain.block_sizes):
        h = hs[i]
        supp = support_projection(h, tol=1e-7)
        supports.append(supp)
        s_half = apply_function(h, inverse_sqrt_on_support())

        # stacked like the codomain: units[g][n, j, k] is block n of group g of phi(e_jk)
        units = unit_stacks(phi, i)
        hg = [x[:, None, None] for x in h.stacks]
        comm = _norms([hx @ u - u @ hx for hx, u in zip(hg, units)])
        diag = [u[:, range(d), range(d)] for u in units]
        prod = _norms([e[:, :, None] @ e[:, None, :] for e in diag])
        for j in range(d):
            for k in range(d):
                if comm[j, k] > tol:
                    witnesses.append(f"block {i}: ||[h, phi(e_{j}{k})]|| = {comm[j, k]:.3e} > tol")
                if j != k and prod[j, k] > tol:
                    witnesses.append(
                        f"block {i}: ||phi(e_{j}{j}) phi(e_{k}{k})|| = {prod[j, k]:.3e} > tol"
                    )

        sub_domain = FiniteDimAlgebra((d,), max_block=d)
        sig_arr = {}
        for c in range(phi.codomain.num_blocks):
            arr = phi.image_array(i, c)
            sc = s_half.blocks[c]
            sig_arr[(0, c)] = np.einsum("ab,jkbc,cd->jkad", sc, arr, sc)
        sigma = CPMap(sub_domain, phi.codomain, sig_arr, phi.codomain_space, phi.codomain_matdim)
        sigmas.append(sigma)

        sig = unit_stacks(sigma, 0)
        for j in range(d):
            for k in range(d):
                defect = unit_product_defects(sig, sig, j, k, True)
                for l, mm in np.argwhere(defect > max(tol, 1e-7)).tolist():
                    witnesses.append(
                        f"block {i}: sigma multiplicativity defect {defect[l, mm]:.3e} "
                        f"at units ({j}{k})({l}{mm})"
                    )
        unit_defect = (sigma.apply_one() - supp).norm()
        if unit_defect > max(tol, 1e-7):
            witnesses.append(
                f"block {i}: sigma(1) differs from the support projection by {unit_defect:.3e}"
            )
        recon = [u - hx @ x for hx, u, x in zip(hg, units, sig)]
        recon += [u - x @ hx for hx, u, x in zip(hg, units, sig)]
        recon_defect = max(recon_defect, float(_norms(recon).max()))
    if recon_defect > max(tol, 1e-7):
        witnesses.append(f"reconstruction defect {recon_defect:.3e} > tol")

    ok = not witnesses
    return OrderZeroCertificate(ok, tol, witnesses, hs, supports, sigmas, recon_defect)


# ---------------------------------------------------------------------------
# elementary sets and the dichotomy witness search
# ---------------------------------------------------------------------------

@dataclass
class ElementarySet:
    """Mutually orthogonal minimal projections, possibly from several blocks."""

    projections: list[AlgebraElement]

    def validate(self, tol: float = 1e-10) -> None:
        for idx, p in enumerate(self.projections):
            traces = [float(np.trace(b).real) for b in p.blocks]
            live = [t for t in traces if abs(t) > 1e-9]
            if len(live) != 1 or abs(live[0] - 1.0) > 1e-7:
                raise ValueError(f"member {idx} is not a minimal projection in one block")
            idem = (p @ p - p).norm()
            if idem > tol:
                raise ValueError(f"member {idx} has projection defect {idem:.3e}")
        for i in range(len(self.projections)):
            for j in range(i + 1, len(self.projections)):
                d = orthogonality_defect(self.projections[i], self.projections[j])
                if d > tol:
                    raise ValueError(f"members {i},{j} are not orthogonal: {d:.3e}")

    def __len__(self) -> int:
        return len(self.projections)


@dataclass
class WitnessSearchResult:
    found: ElementarySet | None
    best_min_product: float
    samples_used: int
    seed: int

    def __bool__(self) -> bool:
        return self.found is not None


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _worst_pair(images: list[AlgebraElement]) -> tuple[int, int, float]:
    """The first pair of images with the smallest product norm, and that norm."""
    worst = (0, 1, np.inf)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            v = (images[i] @ images[j]).norm()
            if v < worst[2]:
                worst = (i, j, v)
    return worst


def witness_elementary_set(
    phi: CPMap,
    m: int,
    seed: int = 0,
    tol: float = 1e-6,
    budget: int = 200,
) -> WitnessSearchResult:
    """Search for an elementary set whose images have pairwise products above tol.

    A hit proves strict order >= m - 1.  The search mirrors the inductive
    proof strategy: sample orthonormal frames, then perturb the worst pair
    inside its two-dimensional corner by unitaries near the identity.  An
    exhausted budget is reported as inconclusive, never as a bound.
    """
    sizes = phi.domain.block_sizes
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > sum(sizes):
        return WitnessSearchResult(None, 0.0, 0, seed)
    rng = np.random.default_rng(seed)

    # allocate m vectors to blocks: largest blocks first, then round-robin
    order = sorted(range(len(sizes)), key=lambda b: (-sizes[b], b))
    alloc: list[tuple[int, int]] = []
    remaining = m
    for b in order:
        take = min(sizes[b], remaining)
        if take:
            alloc.append((b, take))
            remaining -= take
        if not remaining:
            break

    def build(frames: dict[int, np.ndarray]) -> tuple[list[AlgebraElement], float]:
        projs = []
        for b, take in alloc:
            for t in range(take):
                projs.append(projection_from_vector(phi.domain, b, frames[b][:, t]))
        images = [phi.apply(p) for p in projs]
        return projs, _worst_pair(images)[2]

    best_projs: list[AlgebraElement] = []
    best_val = -np.inf
    samples = 0

    frames0 = {b: np.eye(sizes[b], dtype=complex) for b, _ in alloc}
    projs, val = build(frames0)
    samples += 1
    if val > best_val:
        best_projs, best_val = projs, val
    half = max(budget // 2, 1)
    while samples < half and best_val <= tol:
        frames = {b: _haar_unitary(sizes[b], rng) for b, _ in alloc}
        projs, val = build(frames)
        samples += 1
        if val > best_val:
            best_projs, best_val = projs, val

    # corner refinement: rotate the worst pair inside its two-dimensional corner
    def block_and_vector(p: AlgebraElement) -> tuple[int, np.ndarray]:
        for b, blk in enumerate(p.blocks):
            if np.abs(blk).max() > 1e-9:
                w, v = eigh_canonical(blk)
                return b, v[:, -1]
        raise RuntimeError("zero projection in candidate set")

    while samples < budget and best_val <= tol and len(best_projs) >= 2:
        i, j, _ = _worst_pair([phi.apply(p) for p in best_projs])
        bi, vi = block_and_vector(best_projs[i])
        bj, vj = block_and_vector(best_projs[j])
        if bi != bj:
            frames = {b: _haar_unitary(sizes[b], rng) for b, _ in alloc}
            projs, val = build(frames)
            samples += 1
            if val > best_val:
                best_projs, best_val = projs, val
            continue
        t = rng.uniform(0.05, 0.6)
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi))
        va = np.cos(t) * vi + np.sin(t) * ph * vj
        vb = -np.sin(t) * np.conj(ph) * vi + np.cos(t) * vj
        cand = list(best_projs)
        cand[i] = projection_from_vector(phi.domain, bi, va)
        cand[j] = projection_from_vector(phi.domain, bi, vb)
        images = [phi.apply(p) for p in cand]
        val = _worst_pair(images)[2]
        samples += 1
        if val > best_val:
            best_projs, best_val = cand, val

    if best_val > tol:
        es = ElementarySet(best_projs)
        es.validate()
        return WitnessSearchResult(es, float(best_val), samples, seed)
    return WitnessSearchResult(None, float(max(best_val, 0.0)), samples, seed)


@dataclass
class OrderBounds:
    lower: int
    upper: int
    exact: bool
    method: str


def strict_order_bounds(
    phi: CPMap, tol: float = ORTH_TOL, seed: int = 0, witness_tol: float = 1e-6
) -> OrderBounds:
    """Bounds on the strict order: exact for abelian domains and single blocks.

    Single matrix blocks obey the dichotomy (order zero or r-1); several
    matrix blocks only admit a witness-driven lower bound and the trivial cap,
    flagged inexact unless the two meet.
    """
    if phi.domain.is_abelian():
        val = strict_order_abelian(phi, tol)
        return OrderBounds(val, val, True, "abelian clique")
    cert = certify_order_zero(phi, tol)
    if cert.ok:
        return OrderBounds(0, 0, True, "order-zero certificate")
    sizes = phi.domain.block_sizes
    if len(sizes) == 1:
        r = sizes[0]
        return OrderBounds(r - 1, r - 1, True, "dichotomy")
    lower = 0
    for i, r in enumerate(sizes):
        if r > 1 and not certify_order_zero(phi.restrict_to_block(i), tol).ok:
            lower = max(lower, r - 1)
    probe = witness_elementary_set(phi, lower + 2, seed=seed, tol=witness_tol)
    while probe:
        lower = len(probe.found) - 1
        probe = witness_elementary_set(phi, lower + 2, seed=seed, tol=witness_tol)
    upper = sum(sizes) - 1
    return OrderBounds(lower, upper, lower == upper, "witness search + trivial cap")


# ---------------------------------------------------------------------------
# tensoring with a matrix factor
# ---------------------------------------------------------------------------

def tensor_with_identity(phi: CPMap, r: int) -> CPMap:
    """The map phi (x) id_{M_r}, on the domain with every block inflated by r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return CPMap(
            phi.domain, phi.codomain, dict(phi.images), phi.codomain_space, phi.codomain_matdim
        )
    dom_sizes = tuple(d * r for d in phi.domain.block_sizes)
    cod_sizes = tuple(n * r for n in phi.codomain.block_sizes)
    new_domain = FiniteDimAlgebra(dom_sizes, max_block=max(dom_sizes))
    new_codomain = FiniteDimAlgebra(cod_sizes, max_block=max(cod_sizes))
    images = {}
    for (i, c), arr in phi.images.items():
        d, _, n, _ = arr.shape
        # e_jk (x) e_ab maps to phi(e_jk) (x) e_ab
        out = np.zeros((d, r, d, r, n, r, n, r), complex)
        for a in range(r):
            for b in range(r):
                out[:, a, :, b, :, a, :, b] = arr
        images[(i, c)] = out.reshape(d * r, d * r, n * r, n * r)
    return CPMap(
        new_domain,
        new_codomain,
        images,
        phi.codomain_space,
        phi.codomain_matdim * r,
    )


def tensor_strict_order_exact(
    phi: CPMap, r: int, tol: float = ORTH_TOL
) -> tuple[int, ElementarySet]:
    """Exact strict order of phi (x) id_{M_r} for abelian phi, with a witness.

    The order cannot grow under tensoring; it cannot shrink either, because a
    clique of generators combines with one fixed minimal projection of the
    matrix factor into an elementary set with non-orthogonal images.
    """
    if not phi.domain.is_abelian():
        raise ValueError("exact tensored order requires an abelian base map")
    clique = max_clique(_generator_graph(phi, tol))
    order = max(len(clique) - 1, 0)
    tensored = tensor_with_identity(phi, r)
    witness_members = []
    for lam in clique:
        e = np.zeros((r, r), complex)
        e[0, 0] = 1.0
        witness_members.append(AlgebraElement.from_block(tensored.domain, lam, e))
    es = ElementarySet(witness_members)
    es.validate()
    if len(clique) > 1:
        images = [tensored.apply(p) for p in witness_members]
        low = _worst_pair(images)[2]
        if low <= tol:
            raise AssertionError("tensored witness lost its pairwise products")
    return order, es
