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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Any

import numpy as np
from scipy.linalg import block_diag

from .algebra import (
    AlgebraElement,
    Check,
    FiniteDimAlgebra,
    _dagger,
    apply_function,
    eigh_canonical,
    inverse_sqrt_on_support,
    matrix_unit,
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
    unit ``e^{(i)}_{jk}``.  Pairs absent from the mapping are zero.  A map is
    immutable: the constructor copies the images once into read-only stacks,
    and ``images`` is a read-only mapping, in the order given, of read-only
    views into them.  ``layout`` holds, per codomain size group, the codomain
    slots of the pairs in that order and, per domain size group, their domain
    slots, places in that order and stacked images.
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
        for key, arr in images.items():
            ints = isinstance(key, tuple) and len(key) == 2
            ints = ints and all(isinstance(n, (int, np.integer)) for n in key)
            if not ints or not (0 <= key[0] < domain.num_blocks and 0 <= key[1] < codomain.num_blocks):
                raise ValueError(f"image key {key!r} is not a (domain block, codomain block) pair")
            i, c = int(key[0]), int(key[1])
            d = domain.block_sizes[i]
            r = codomain.block_sizes[c]
            a = np.asarray(arr, dtype=complex)
            if a.shape != (d, d, r, r):
                raise ValueError(
                    f"image block ({i},{c}) has shape {a.shape}, expected {(d, d, r, r)}"
                )
            if np.any(a):
                store[(i, c)] = a
        groups: dict[int, tuple[list, dict]] = {}
        for i, c in store:
            (gd, sd), (gc, sc) = domain.block_slots[i], codomain.block_slots[c]
            slots, parts = groups.setdefault(gc, ([], {}))
            dom_slots, at, keys = parts.setdefault(gd, ([], [], []))
            dom_slots.append(sd)
            at.append(len(slots))
            keys.append((i, c))
            slots.append(sc)
        self.layout = []
        for gc, (slots, parts) in groups.items():
            stacked = []
            for gd, (dom_slots, at, keys) in parts.items():
                arrays = np.stack([store[key] for key in keys])
                arrays.flags.writeable = False
                # updating existing keys keeps the order given
                store.update(zip(keys, arrays))
                stacked.append((gd, dom_slots, at, arrays))
            self.layout.append((gc, slots, stacked))
        self.images = MappingProxyType(store)

    # -- basic structure ---------------------------------------------------

    def image_array(self, i: int, c: int) -> np.ndarray:
        d = self.domain.block_sizes[i]
        r = self.codomain.block_sizes[c]
        return self.images.get((i, c), np.zeros((d, d, r, r), complex))

    def unit_image(self, i: int, j: int, k: int) -> AlgebraElement:
        """Image of the matrix unit e^{(i)}_{jk} as a codomain element."""
        return AlgebraElement.from_stacks(self.codomain, unit_stacks(self, i, (j, k)))

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        """phi(x), elementwise on a batch: one einsum per group of same-shape pairs,
        then each pair's term added into its codomain block in dictionary order,
        as a pair-by-pair sum would."""
        if x.algebra.block_sizes != self.domain.block_sizes:
            raise ValueError("element does not live in the domain")
        stacks = self.codomain.zero_stacks(x.stacks[0].shape[1:-2])
        for gc, slots, parts in self.layout:
            terms = np.empty((len(slots),) + stacks[gc].shape[1:], complex)
            for gd, dom_slots, at, arrays in parts:
                terms[at] = np.einsum("n...jk,njkab->n...ab", x.stacks[gd][dom_slots], arrays)
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
        images = {(0, c): arr for (i2, c), arr in sorted(self.images.items()) if i2 == i}
        d = self.domain.block_sizes[i]
        # d passed the cap of self.domain, which may be above the default
        sub_domain = FiniteDimAlgebra((d,), max_block=d)
        return CPMap(sub_domain, self.codomain, images, self.codomain_space, self.codomain_matdim)

    def _stacked_images(self) -> list[np.ndarray]:
        """The ``(count, d, d, r, r)`` image stacks of :attr:`layout`."""
        return [arrays for _, _, parts in self.layout for _, _, _, arrays in parts]

    def adjoint_symmetry_defect(self) -> float:
        """max over blocks of || phi(e_kj) - phi(e_jk)^* ||_max, one stack at a time."""
        diffs = [a - np.conj(a.transpose(0, 2, 1, 4, 3)) for a in self._stacked_images()]
        return max((float(np.abs(x).max()) for x in diffs), default=0.0)

    # -- verification --------------------------------------------------------

    def choi_block(self, i: int, c: int) -> np.ndarray:
        """Choi matrix of the (i, c) component, of size d_i r_c."""
        arr = self.image_array(i, c)
        d, _, r, _ = arr.shape
        return arr.transpose(0, 2, 1, 3).reshape(d * r, d * r)

    def min_choi_eigenvalue(self) -> float:
        """Smallest Choi eigenvalue over the stored block pairs, 0 when none is stored:
        one ``eigvalsh`` per stack of same-shape pairs."""
        lows = []
        for a in self._stacked_images():
            n, d, _, r, _ = a.shape
            ch = a.transpose(0, 1, 3, 2, 4).reshape(n, d * r, d * r)
            lows.append(float(np.linalg.eigvalsh((ch + _dagger(ch)) / 2).min()))
        return min(lows, default=0.0)

    def is_completely_positive(self) -> bool:
        return self.min_choi_eigenvalue() >= -CP_TOL and self.adjoint_symmetry_defect() <= 1e-8

    def apply_one(self) -> AlgebraElement:
        return self.apply(AlgebraElement.identity(self.domain))


def choi_blocks(phi: CPMap) -> tuple[list[np.ndarray], bool, float]:
    """Per-domain-block Choi matrices and the overall PSD verdict.

    For a single-block codomain these are the usual Choi matrices of size
    ``d_i * N``; for several codomain blocks each domain block contributes the
    direct sum of its per-pair Choi matrices.
    """
    asym = phi.adjoint_symmetry_defect()
    if asym > 1e-8:
        raise ValueError(f"inconsistent adjoint symmetry: defect {asym:.3e}")
    blocks = []
    worst = 0.0
    for i in range(phi.domain.num_blocks):
        big = block_diag(*[phi.choi_block(i, c) for c in range(phi.codomain.num_blocks)])
        blocks.append(big)
        worst = min(worst, float(np.linalg.eigvalsh((big + big.conj().T) / 2).min()))
    return blocks, worst >= -CP_TOL, worst


def is_contractive(phi: CPMap) -> Check:
    """Contractivity of a c.p. map: ||phi(1)|| against 1 + CP_TOL."""
    if not phi.is_completely_positive():
        raise ValueError("map is not completely positive")
    nrm = phi.apply_one().norm()
    return Check("contractive", nrm, 1.0 + CP_TOL, nrm <= 1.0 + CP_TOL)


def compress(phi: CPMap, h: AlgebraElement) -> CPMap:
    """The compression h^* phi(.) h, completely positive whenever phi is."""
    if h.algebra.block_sizes != phi.codomain.block_sizes:
        raise ValueError("compression element must live in the codomain")
    images = {(i, c): h.blocks[c].conj().T @ arr @ h.blocks[c] for (i, c), arr in phi.images.items()}
    out = CPMap(phi.domain, phi.codomain, images, phi.codomain_space, phi.codomain_matdim)
    if phi.is_completely_positive() and not out.is_completely_positive():
        raise AssertionError("compression broke complete positivity")
    return out


def unitize(phi: CPMap) -> CPMap:
    """Extend a c.p. contraction to a unital map on the domain with a unit adjoined.

    The adjoined unit becomes an extra one-dimensional summand whose image is
    ``1 - phi(1)``; the restriction to the original domain is unchanged.
    """
    contractive = is_contractive(phi)
    if not contractive:
        raise ValueError(f"map is not contractive: ||phi(1)|| = {contractive.measured:.6g}")
    sizes = phi.domain.block_sizes
    new_domain = FiniteDimAlgebra(sizes + (1,), max_block=max(sizes))
    images = dict(phi.images)
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


def stinespring(phi: CPMap) -> StinespringDilation:
    """Dilate a c.p. map with matrix codomain by factoring its Choi blocks."""
    if phi.codomain.num_blocks != 1:
        raise ValueError("stinespring dilation needs a matrix (single-block) codomain")
    n = phi.codomain.block_sizes[0]
    mults = []
    v_parts = []
    for i, d in enumerate(phi.domain.block_sizes):
        ch = phi.choi_block(i, 0)
        w, vecs = eigh_canonical((ch + ch.conj().T) / 2)
        if w.size and w.min() < -CP_TOL:
            raise ValueError(f"map is not completely positive: Choi eigenvalue {w.min():.3e}")
        keep = np.flatnonzero(w > 1e-12)
        m = len(keep)
        mults.append(m)
        # kraus[:, :, a] is K_a^T for the Kraus operators K_a (N x d, phi = sum K x K^*);
        # V block row (j, a) carries K_a^*[j, :]
        kraus = (np.sqrt(w[keep]) * vecs[:, keep]).reshape(d, n, m)
        v_parts.append(kraus.transpose(0, 2, 1).conj().reshape(d * m, n))
    V = np.vstack(v_parts) if v_parts else np.zeros((0, n), complex)
    dil = StinespringDilation(phi.domain, tuple(mults), V)

    # pi(e_jk) = e_jk (x) 1_m, so V^* pi(e_jk) V = V_j^* V_k for the m x n slabs V_j of block i
    worst = 0.0
    for i, (d, m, vi) in enumerate(zip(phi.domain.block_sizes, mults, v_parts)):
        slabs = vi.reshape(d, m, n)
        got = _dagger(slabs)[:, None] @ slabs
        worst = max(worst, _max_norm([unit_stacks(phi, i)[0] - got], worst))
    # the rounding both checks measure grows with the map, so their bounds scale with ||phi(1)||
    one = phi.apply_one().norm()
    scale = max(1.0, one)
    if worst > 1e-9 * scale:
        raise AssertionError(f"dilation reconstruction defect {worst:.3e}")
    vnorm = float(np.linalg.norm(V, 2) ** 2)
    if abs(vnorm - one) > 1e-8 * scale:
        raise AssertionError("||V||^2 does not match ||phi(1)||")
    return dil


# ---------------------------------------------------------------------------
# Schwarz inequality and multiplicativity estimates
# ---------------------------------------------------------------------------

def schwarz_defect(phi: CPMap, x: AlgebraElement) -> Check:
    """Check -lambda_min(phi(x*x) - phi(x)*phi(x)) against CP_TOL: the Schwarz inequality
    phi(x*x) >= phi(x)*phi(x) up to CP_TOL."""
    fx = phi.apply(x)
    diff = phi.apply(x.adjoint() @ x) - fx.adjoint() @ fx
    lam = min(
        float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in diff.blocks
    )
    return Check("schwarz", -lam, CP_TOL, -lam <= CP_TOL)


def multiplicativity_defect(phi: CPMap, x: AlgebraElement, y: AlgebraElement) -> Check:
    """Check ||phi(yx) - phi(y)phi(x)|| against sqrt(||phi(x*x) - phi(x)*phi(x)||)."""
    fx = phi.apply(x)
    eps = (phi.apply(x.adjoint() @ x) - fx.adjoint() @ fx).norm()
    lhs = (phi.apply(y @ x) - phi.apply(y) @ fx).norm()
    bound = float(np.sqrt(max(eps, 0.0)))
    return Check("multiplicativity", lhs, bound, lhs <= bound + 1e-9)


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


# ---------------------------------------------------------------------------
# order-zero certification
# ---------------------------------------------------------------------------

def unit_stacks(phi: CPMap, i: int, at: tuple = np.s_[:, :]) -> list[np.ndarray]:
    """phi(e^{(i)}_{jk}) for the (j, k) that ``at`` selects, stacked like codomain
    elements: ``[g][n, j, k]`` is block n of size group g.  Each entry is ``0.0 + x``
    for a stored x, the bits :meth:`CPMap.apply` gives a matrix unit on finite images."""
    stacks = phi.codomain.zero_stacks(np.zeros((phi.domain.block_sizes[i],) * 2)[at].shape)
    for (i2, c), arr in phi.images.items():
        if i2 == i:
            g, s = phi.codomain.block_slots[c]
            stacks[g][s] += arr[at]
    return stacks


def _norms(stacks: list[np.ndarray], floor: float = 0.0) -> np.ndarray:
    """Operator norms of codomain elements stacked as in :func:`unit_stacks`, exact above
    ``floor`` and at most ``floor`` elsewhere: ``||A|| <= ||A||_F``, so a block with
    ``||A||_F <= floor * (1 - 1e-8)`` skips its SVD; under 1e-150, where squares underflow, zeros do."""
    out = []
    for s in stacks:
        fro = np.linalg.norm(s, axis=(-2, -1))
        big = fro > floor * (1 - 1e-8) if floor > 1e-150 else np.any(s, axis=(-2, -1))
        if big.all():
            out.append(np.linalg.svd(s, compute_uv=False).max(axis=(0, -1)))
        else:
            fro[big] = np.linalg.svd(s[big], compute_uv=False).max(axis=-1)
            out.append(fro.max(axis=0))
    return np.max(out, axis=0)


def _max_norm(stacks: list[np.ndarray], floor: float = 0.0) -> float:
    """The largest operator norm of the blocks in ``stacks``, exact above ``floor`` and at
    most ``floor`` otherwise.  ``||A|| >= ||A||_F / sqrt(r)`` for an r x r block, so the
    floor rises to the largest such bound, and only blocks whose Frobenius norm passes it,
    screened as in :func:`_norms`, get an SVD."""
    fros = [np.linalg.norm(s, axis=(-2, -1)) for s in stacks]
    floor = max([floor] + [float(f.max()) / np.sqrt(s.shape[-1]) for f, s in zip(fros, stacks)])
    worst = 0.0
    for s, fro in zip(stacks, fros):
        big = fro > floor * (1 - 1e-8) if floor > 1e-150 else np.any(s, axis=(-2, -1))
        if big.any():
            worst = max(worst, float(np.linalg.svd(s[big], compute_uv=False).max()))
    return worst


#: complex entries (256 KiB) in one chunk of :func:`unit_product_defects`, which holds at
#: least one (j, k); 2**16 ran no faster on the ``maps`` benchmark and raised its peak memory
CHUNK_ENTRIES = 2**14


def unit_product_defects(
    a: list[np.ndarray], b: list[np.ndarray], same_block: bool
) -> Iterator[tuple[int, list[np.ndarray]]]:
    """a(e_jk) b(e_lm) - [same_block and k == l] a(e_jm) for every (j, k, l, m), zero for a
    homomorphism, in chunks of consecutive (j, k) in row-major order.

    ``a`` and ``b`` are the unit images of two domain blocks, stacked as in
    :func:`unit_stacks`.  Each chunk comes as the row-major index of its first (j, k)
    and the defects stacked like codomain elements, ``[g][n, row, l, m]``; it holds at
    most :data:`CHUNK_ENTRIES` complex entries, or one (j, k) when that alone is more.
    """
    d = a[0].shape[1]
    step = max(1, CHUNK_ENTRIES // sum(y.size for y in b))
    for start in range(0, d * d, step):
        j, k = np.divmod(np.arange(start, min(start + step, d * d)), d)
        out = []
        for x, y in zip(a, b):
            got = x[:, j, k, None, None] @ y[:, None]
            if same_block:
                got[:, np.arange(len(j)), k] -= x[:, j]
            out.append(got)
        yield start, out


def _batch(elements: list[AlgebraElement]) -> list[np.ndarray]:
    """Elements of one algebra as one batch: ``[g][n, e]`` is block n of group g of element e."""
    if any(e.algebra.block_sizes != elements[0].algebra.block_sizes for e in elements):
        raise ValueError("elements live in different algebras")
    return [np.stack(group, axis=1) for group in zip(*(e.stacks for e in elements))]


def _orthogonality_defects(batch: list[np.ndarray], floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of a batch in lexicographic order and, per pair, the orthogonality
    defect max(||xy||, ||yx||, ||x*y||, ||xy*||), zero when x and y are orthogonal,
    screened as in _norms."""
    i, j = np.triu_indices(batch[0].shape[1], 1)
    prods = []
    for s in batch:
        x, y = s[:, i], s[:, j]
        prods.append(np.stack([x @ y, y @ x, _dagger(x) @ y, x @ _dagger(y)], axis=2))
    return i, j, _norms(prods, floor).max(axis=-1)


@dataclass
class OrderZeroCertificate:
    ok: bool
    witnesses: list[str]
    h_blocks: list[AlgebraElement] = field(default_factory=list)
    sigma_maps: list[CPMap] = field(default_factory=list)
    reconstruction_defect: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


#: most witnesses a certificate carries
MAX_WITNESSES = 16


def certify_order_zero(phi: CPMap, tol: float = ORTH_TOL) -> OrderZeroCertificate:
    """Certify strict order zero through its structural characterization.

    Per domain block, h_i = phi(1_i) must commute with every image, the
    compression of phi by the inverse square root of h_i on its support must
    be multiplicative, and images of different blocks must be orthogonal; a
    failing check is returned as a witness.  A certificate carries at most
    :data:`MAX_WITNESSES` (16): certification stops at the 16th, so these are
    the first 16 a full run finds, and such a certificate carries no other data.
    A positive certificate carries the h_i and the compressed homomorphisms.
    """
    witnesses: list[str] = []

    def full(found: Iterable[str]) -> bool:
        """Add the witnesses ``found`` up to the cap; True once it is reached."""
        witnesses.extend(islice(found, MAX_WITNESSES - len(witnesses)))
        return len(witnesses) == MAX_WITNESSES

    min_choi = phi.min_choi_eigenvalue()
    if min_choi < -CP_TOL:
        witnesses.append(f"not completely positive: Choi eigenvalue {min_choi:.3e}")
    one_norm = phi.apply_one().norm()
    if one_norm > 1.0 + CP_TOL:
        witnesses.append(f"not contractive: ||phi(1)|| = {one_norm:.6g}")
    if witnesses:
        return OrderZeroCertificate(False, witnesses)

    m = phi.domain.num_blocks
    hs = [phi.apply_to_block(i, np.eye(phi.domain.block_sizes[i])) for i in range(m)]
    pairs = zip(*(a.tolist() for a in _orthogonality_defects(_batch(hs), tol)))
    if full(f"blocks {i},{j}: ||phi(1_{i}) phi(1_{j})|| = {v:.3e} > tol" for i, j, v in pairs if v > tol):
        return OrderZeroCertificate(False, witnesses)

    sigmas = []
    recon_defect = 0.0
    thr = max(tol, 1e-7)
    for i, d in enumerate(phi.domain.block_sizes):
        h = hs[i]
        supp = support_projection(h, tol=1e-7)
        s_half = apply_function(h, inverse_sqrt_on_support())

        # stacked like the codomain: units[g][n, j, k] is block n of group g of phi(e_jk)
        units = unit_stacks(phi, i)
        hg = [x[:, None, None] for x in h.stacks]
        comm = _norms([hx @ u - u @ hx for hx, u in zip(hg, units)], tol)
        diag = [u[:, range(d), range(d)] for u in units]
        prod = _norms([e[:, :, None] @ e[:, None, :] for e in diag], tol)
        # per (j, k): the commutator, then the product of the two diagonal units
        fails = np.stack([comm > tol, (prod > tol) & ~np.eye(d, dtype=bool)], axis=-1)
        if full(
            f"block {i}: ||[h, phi(e_{j}{k})]|| = {comm[j, k]:.3e} > tol" if not t
            else f"block {i}: ||phi(e_{j}{j}) phi(e_{k}{k})|| = {prod[j, k]:.3e} > tol"
            for j, k, t in np.argwhere(fails).tolist()
        ):
            return OrderZeroCertificate(False, witnesses)

        sub_domain = FiniteDimAlgebra((d,), max_block=d)
        sig_arr = {(0, c): sc @ phi.image_array(i, c) @ sc for c, sc in enumerate(s_half.blocks)}
        sigma = CPMap(sub_domain, phi.codomain, sig_arr, phi.codomain_space, phi.codomain_matdim)
        sigmas.append(sigma)

        sig = unit_stacks(sigma, 0)
        for start, prods in unit_product_defects(sig, sig, True):
            defect = _norms(prods, thr)
            if full(
                f"block {i}: sigma multiplicativity defect {defect[n, l, mm]:.3e} "
                f"at units ({(start + n) // d}{(start + n) % d})({l}{mm})"
                for n, l, mm in np.argwhere(defect > thr).tolist()
            ):
                return OrderZeroCertificate(False, witnesses)
        unit_defect = (sigma.apply_one() - supp).norm()
        off = f"block {i}: sigma(1) differs from the support projection by {unit_defect:.3e}"
        if unit_defect > thr and full([off]):
            return OrderZeroCertificate(False, witnesses)
        recon = [u - hx @ x for hx, u, x in zip(hg, units, sig)]
        recon += [u - x @ hx for hx, u, x in zip(hg, units, sig)]
        recon_defect = max(recon_defect, _max_norm(recon, recon_defect))
    if recon_defect > thr:
        witnesses.append(f"reconstruction defect {recon_defect:.3e} > tol")

    ok = not witnesses
    return OrderZeroCertificate(ok, witnesses, hs, sigmas, recon_defect)


# ---------------------------------------------------------------------------
# elementary sets and the dichotomy witness search
# ---------------------------------------------------------------------------

@dataclass
class ElementarySet:
    """Mutually orthogonal minimal projections, possibly from several blocks."""

    projections: list[AlgebraElement]

    def validate(self, tol: float = 1e-10) -> None:
        """Raise ValueError at the first member that is not a minimal projection in one
        block, or else at the first pair, in lexicographic order, that is not orthogonal."""
        if not self.projections:
            return
        batch = _batch(self.projections)
        idem = _norms([s @ s - s for s in batch], tol)
        for idx, p in enumerate(self.projections):
            traces = [float(np.trace(b).real) for b in p.blocks]
            live = [t for t in traces if abs(t) > 1e-9]
            if len(live) != 1 or abs(live[0] - 1.0) > 1e-7:
                raise ValueError(f"member {idx} is not a minimal projection in one block")
            if idem[idx] > tol:
                raise ValueError(f"member {idx} has projection defect {idem[idx]:.3e}")
        for i, j, d in zip(*_orthogonality_defects(batch, tol)):
            if d > tol:
                raise ValueError(f"members {i},{j} are not orthogonal: {d:.3e}")

    def __len__(self) -> int:
        return len(self.projections)


@dataclass
class WitnessSearchResult:
    found: ElementarySet | None
    best_min_product: float
    samples_used: int

    def __bool__(self) -> bool:
        return self.found is not None


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _worst_pair(images: list[np.ndarray]) -> tuple[int, int, float]:
    """The first pair, in lexicographic order, of a batch of images with the smallest
    product norm, and that norm; (0, 1, inf) for fewer than two images."""
    i, j = np.triu_indices(images[0].shape[1], 1)
    if not i.size:
        return 0, 1, np.inf
    norms = _norms([s[:, i] @ s[:, j] for s in images])
    at = int(norms.argmin())
    return int(i[at]), int(j[at]), float(norms[at])


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
        return WitnessSearchResult(None, 0.0, 0)
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

    def images(projs: list[AlgebraElement]) -> list[np.ndarray]:
        return phi.apply(AlgebraElement.from_stacks(phi.domain, _batch(projs))).stacks

    def build(frames: dict[int, np.ndarray]) -> tuple[list[AlgebraElement], float]:
        projs = []
        for b, take in alloc:
            for t in range(take):
                projs.append(projection_from_vector(phi.domain, b, frames[b][:, t]))
        return projs, _worst_pair(images(projs))[2]

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
        i, j, _ = _worst_pair(images(best_projs))
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
        val = _worst_pair(images(cand))[2]
        samples += 1
        if val > best_val:
            best_projs, best_val = cand, val

    if best_val > tol:
        es = ElementarySet(best_projs)
        es.validate()
        return WitnessSearchResult(es, float(best_val), samples)
    return WitnessSearchResult(None, float(max(best_val, 0.0)), samples)


@dataclass
class OrderBounds:
    lower: int
    upper: int
    exact: bool
    method: str


def strict_order_bounds(phi: CPMap, tol: float = ORTH_TOL, seed: int = 0) -> OrderBounds:
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
    probe = witness_elementary_set(phi, lower + 2, seed=seed)
    while probe:
        lower = len(probe.found) - 1
        probe = witness_elementary_set(phi, lower + 2, seed=seed)
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
        return phi
    dom_sizes = tuple(d * r for d in phi.domain.block_sizes)
    cod_sizes = tuple(n * r for n in phi.codomain.block_sizes)
    new_domain = FiniteDimAlgebra(dom_sizes, max_block=max(dom_sizes))
    new_codomain = FiniteDimAlgebra(cod_sizes, max_block=max(cod_sizes))
    images = {}
    for (i, c), arr in phi.images.items():
        d, _, n, _ = arr.shape
        # e_jk (x) e_ab maps to phi(e_jk) (x) e_ab
        out = np.zeros((d, r, d, r, n, r, n, r), complex)
        a, b = np.arange(r)[:, None], np.arange(r)
        out[:, a, :, b, :, a, :, b] = arr
        images[(i, c)] = out.reshape(d * r, d * r, n * r, n * r)
    return CPMap(
        new_domain,
        new_codomain,
        images,
        phi.codomain_space,
        phi.codomain_matdim * r,
    )


def tensor_strict_order_exact(phi: CPMap, r: int) -> tuple[int, ElementarySet]:
    """Exact strict order of phi (x) id_{M_r} for abelian phi, with a witness.

    The order cannot grow under tensoring; it cannot shrink either, because a
    clique of generators combines with one fixed minimal projection of the
    matrix factor into an elementary set with non-orthogonal images.
    """
    if not phi.domain.is_abelian():
        raise ValueError("exact tensored order requires an abelian base map")
    clique = max_clique(_generator_graph(phi, ORTH_TOL))
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
        batch = AlgebraElement.from_stacks(tensored.domain, _batch(witness_members))
        low = _worst_pair(tensored.apply(batch).stacks)[2]
        if low <= ORTH_TOL:
            raise AssertionError("tensored witness lost its pairwise products")
    return order, es
