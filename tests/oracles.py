"""Brute-force and per-entry references that the fast kernels are tested against.

Each function here is the plain version of a kernel in ``cprank``: subset
enumeration for clique numbers, cover orders and abelian strict order; the
set-based partition of unity and level-set faces of the strict refinement;
the pairwise oscillation scale; the entry-by-entry reader of a map's unit
records and their dense writer; the image of a matrix unit computed by
``CPMap.apply``; the order-zero defects with an SVD for every block, one
element at a time; the order-zero certificate, uncapped, with one product
defect call per (j, k), the decomposition's reconstruction defect, the
orthogonality defect, the elementary-set check and the worst pair one pair
at a time, the Stinespring self-check one matrix unit at a time, and the
Choi and adjoint checks one image pair at a time; and a c.p. approximation
evaluated one function, one block element and one class at a time, cover
extraction included.  They are plain rather than fast, and serve only as
oracles.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any

import numpy as np

from cprank import (
    AlgebraElement,
    CPApproximation,
    CPMap,
    Check,
    Cover,
    ExtractionReport,
    ExtractionTargets,
    FiniteDimAlgebra,
    FiniteMetricSpace,
    StepFailure,
    certify_order_zero,
    cover_order,
    extraction_targets,
    function_algebra,
    member_diameter,
    orthogonalize_family,
    refines,
    strict_order_abelian,
)
from cprank.algebra import (
    apply_function,
    eigh_canonical,
    inverse_sqrt_on_support,
    matrix_unit,
    support_projection,
)
from cprank.approx import SNAP, _above
from cprank.covers import PartitionOfUnity, mask_indices, point_member_masks
from cprank.cpmaps import (
    CP_TOL,
    ORTH_TOL,
    ElementarySet,
    OrderZeroCertificate,
    StinespringDilation,
    _norms,
    unit_stacks,
)
from cprank.jsonio import SchemaError, algebra_from_json, space_from_json


def max_clique_brute(adj: np.ndarray) -> int:
    """Exhaustive oracle, for graphs of at most ~16 vertices (tests only)."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            if all(adj[a, b] for a, b in combinations(sub, 2)):
                return size
    return 0


def cover_order_brute(cover: Cover) -> int:
    """Subset-enumeration oracle (tests, at most ~12 members)."""
    best = 0
    masks = [sum(1 << p for p in m) for m in cover.members]
    k = len(masks)
    for size in range(1, k + 1):
        for sub in combinations(range(k), size):
            inter = masks[sub[0]]
            for i in sub[1:]:
                inter &= masks[i]
                if not inter:
                    break
            if inter:
                best = max(best, size)
    return best - 1


def cover_strict_order_brute(cover: Cover) -> int:
    """Oracle: largest subfamily with no disjoint pair, minus one."""
    masks = [sum(1 << p for p in m) for m in cover.members]
    k = len(masks)
    best = 1 if k else 0
    for size in range(2, k + 1):
        for sub in combinations(range(k), size):
            if all(masks[a] & masks[b] for a, b in combinations(sub, 2)):
                best = max(best, size)
    return max(best - 1, 0)


def partition_of_unity_by_sets(space: FiniteMetricSpace, cover: Cover) -> PartitionOfUnity:
    """Distance-to-complement weights over sorted point sets, normalized pointwise."""
    n = space.npts
    k = len(cover.members)
    raw = np.zeros((k, n))
    allpts = set(range(n))
    for idx, m in enumerate(cover.members):
        comp = sorted(allpts - m)
        if not comp:
            raw[idx, :] = 1.0
            continue
        inside = sorted(m)
        raw[idx, inside] = space.metric[np.ix_(inside, comp)].min(axis=1)
    sums = raw.sum(axis=0)
    uncovered = np.flatnonzero(sums <= 0)
    if uncovered.size:
        raise ValueError(f"point {int(uncovered[0])} is not covered (or only degenerately)")
    return PartitionOfUnity(cover, raw / sums)


def level_sets(column: np.ndarray, tol: float = 1e-12) -> list[frozenset[int]]:
    """Nested supports of a weight vector at its distinct positive values."""
    pos = np.flatnonzero(column > tol)
    if pos.size == 0:
        return []
    vals = sorted({float(column[p]) for p in pos}, reverse=True)
    merged: list[float] = []
    for v in vals:
        if not merged or merged[-1] - v > tol:
            merged.append(v)
    out = []
    for v in merged:
        out.append(frozenset(np.flatnonzero(column >= v - tol).tolist()))
    return out


def level_set_refinement(weights: np.ndarray) -> Cover:
    """The strict refinement's members and labels, one point's level sets at a time."""
    member_sets: dict[frozenset[int], set[int]] = {}
    for x in range(weights.shape[1]):
        for s in level_sets(weights[:, x]):
            member_sets.setdefault(s, set()).add(x)
    faces = sorted(member_sets, key=lambda f: (len(f), sorted(f)))
    members = [frozenset(member_sets[f]) for f in faces]
    labels = ["{" + ",".join(map(str, sorted(f))) + "}" for f in faces]
    return Cover(members, labels)


def oscillation_scale_pairs(space: FiniteMetricSpace, rows, level: float) -> float | None:
    """Smallest distance over point pairs where some row differs by at least ``level``."""
    best = None
    for x, y in combinations(range(space.npts), 2):
        if any(abs(row[x] - row[y]) >= level for row in rows):
            d = float(space.metric[x, y])
            best = d if best is None else min(best, d)
    return best


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


def unit_image_apply(phi: CPMap, i: int, j: int, k: int) -> AlgebraElement:
    """Image of the matrix unit e^{(i)}_{jk}, by applying the map to it."""
    return phi.apply(matrix_unit(phi.domain, i, j, k))


def _complex_from_json(v: Any) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SchemaError(f"complex entry must be [re, im], got {v!r}")
    return complex(float(v[0]), float(v[1]))


def _matrix_from_json(data: Any) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError("matrix must be a nonempty list of rows")
    return np.array([[_complex_from_json(v) for v in row] for row in data], dtype=complex)


def element_from_json_per_entry(algebra: FiniteDimAlgebra, data: Any) -> AlgebraElement:
    """An element of ``algebra`` from its JSON blocks, read one entry at a time."""
    try:
        blocks = [_matrix_from_json(b) for b in data["blocks"]]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"element needs blocks: {exc}") from exc
    return AlgebraElement(algebra, blocks)


def cpmap_from_json_per_entry(data: Any, max_block: int = 64) -> CPMap:
    """The map of a JSON record list, read one matrix entry at a time."""
    if not isinstance(data, dict):
        raise SchemaError("map must be an object")
    try:
        domain = algebra_from_json(data["domain"], max_block)
        codomain_spec = data["codomain"]
        units = data["unit_images"]
    except KeyError as exc:
        raise SchemaError(f"map needs domain, codomain, unit_images: missing {exc}") from exc
    space = None
    matdim = 1
    if "matrix" in codomain_spec:
        codomain = FiniteDimAlgebra((int(codomain_spec["matrix"]),), max_block=max_block)
    elif "space" in codomain_spec:
        space = space_from_json(codomain_spec["space"])
        matdim = int(codomain_spec.get("matdim", 1))
        codomain = function_algebra(space, matdim)
    elif "algebra" in codomain_spec:
        codomain = algebra_from_json(codomain_spec["algebra"], max_block)
    else:
        raise SchemaError("codomain must give matrix, space, or algebra")

    images: dict[tuple[int, int], np.ndarray] = {}
    for rec in units:
        try:
            i, j, k = int(rec["block"]), int(rec["row"]), int(rec["col"])
            value = rec["value"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"unit image needs block,row,col,value: {exc}") from exc
        if i >= domain.num_blocks or j >= domain.block_sizes[i] or k >= domain.block_sizes[i]:
            raise SchemaError(f"unit index ({i},{j},{k}) outside the domain")
        elem = element_from_json_per_entry(codomain, value)
        d = domain.block_sizes[i]
        for c, blk in enumerate(elem.blocks):
            if not np.any(blk):
                continue
            r = codomain.block_sizes[c]
            arr = images.setdefault((i, c), np.zeros((d, d, r, r), complex))
            arr[j, k] += blk
    return CPMap(domain, codomain, images, codomain_space=space, codomain_matdim=matdim)


def unit_records_dense(phi: CPMap) -> list[dict]:
    """A map's unit records in the dense form: every codomain block of each
    matrix unit whose image is not zero, as plain lists."""
    records = []
    for i, d in enumerate(phi.domain.block_sizes):
        stacks = unit_stacks(phi, i)
        for j, k in np.ndindex(d, d):
            blocks = [stacks[g][n, j, k] for g, n in phi.codomain.block_slots]
            if any(np.any(b) for b in blocks):
                value = [b.view(float).reshape(b.shape + (2,)).tolist() for b in blocks]
                records.append({"block": i, "row": j, "col": k, "value": {"blocks": value}})
    return records


def norms_unscreened(stacks: list[np.ndarray], floor: float = 0.0) -> np.ndarray:
    """Operator norms of stacked codomain elements, one SVD per block; ``floor`` is ignored."""
    return np.max([np.linalg.svd(s, compute_uv=False).max(axis=(0, -1)) for s in stacks], axis=0)


def apply_one_element(phi: CPMap, x: AlgebraElement) -> AlgebraElement:
    """phi(x) for a single element: one einsum per group of same-shape pairs, then
    each pair's term added into its codomain block in dictionary order."""
    stacks = phi.codomain.zero_stacks()
    for gc, slots, parts in phi.layout:
        terms = np.empty((len(slots),) + stacks[gc].shape[1:], complex)
        for gd, dom_slots, at, arrays in parts:
            terms[at] = np.einsum("njk,njkab->nab", x.stacks[gd][dom_slots], arrays)
        np.add.at(stacks[gc], slots, terms)
    return AlgebraElement.from_stacks(phi.codomain, stacks)


def hom_defect_per_unit(phi: CPMap) -> float:
    """Worst ||phi(e_jk) phi(e_lm) - [same block, k == l] phi(e_jm)|| over unit pairs."""
    units = [unit_stacks(phi, i) for i in range(phi.domain.num_blocks)]
    worst = []
    for i, d in enumerate(phi.domain.block_sizes):
        for i2 in range(len(units)):
            for j in range(d):
                for k in range(d):
                    out = []
                    for x, y in zip(units[i], units[i2]):
                        got = x[:, j, k, None, None] @ y
                        if i == i2:
                            got[:, k] -= x[:, j]
                        out.append(got)
                    worst.append(float(norms_unscreened(out).max()))
    return max(worst)


def orthogonality_defect(x: AlgebraElement, y: AlgebraElement) -> float:
    """max of ||xy||, ||yx||, ||x*y||, ||xy*||; zero means x and y are orthogonal."""
    return max(
        (x @ y).norm(),
        (y @ x).norm(),
        (x.adjoint() @ y).norm(),
        (x @ y.adjoint()).norm(),
    )


def unit_product_defects_per_unit(
    a: list[np.ndarray], b: list[np.ndarray], j: int, k: int, same_block: bool, floor: float = 0.0
) -> np.ndarray:
    """||a(e_jk) b(e_lm) - [same_block and k == l] a(e_jm)|| for every (l, m) of one (j, k),
    screened as in ``_norms``."""
    out = []
    for x, y in zip(a, b):
        got = x[:, j, k, None, None] @ y
        if same_block:
            got[:, k] -= x[:, j]
        out.append(got)
    return _norms(out, floor)


def certify_order_zero_per_unit(phi: CPMap, tol: float = ORTH_TOL) -> OrderZeroCertificate:
    """The order-zero certificate with every witness: one product defect call per (j, k),
    one orthogonality defect per pair of blocks."""
    witnesses: list[str] = []
    min_choi = min_choi_eigenvalue_per_pair(phi)
    if min_choi < -CP_TOL:
        witnesses.append(f"not completely positive: Choi eigenvalue {min_choi:.3e}")
    one_norm = phi.apply_one().norm()
    if one_norm > 1.0 + CP_TOL:
        witnesses.append(f"not contractive: ||phi(1)|| = {one_norm:.6g}")
    if witnesses:
        return OrderZeroCertificate(False, witnesses)

    m = phi.domain.num_blocks
    hs = [phi.apply_to_block(i, np.eye(phi.domain.block_sizes[i])) for i in range(m)]

    for i in range(m):
        for j in range(i + 1, m):
            cross = orthogonality_defect(hs[i], hs[j])
            if cross > tol:
                witnesses.append(
                    f"blocks {i},{j}: ||phi(1_{i}) phi(1_{j})|| = {cross:.3e} > tol"
                )

    sigmas = []
    recon_defect = 0.0
    for i, d in enumerate(phi.domain.block_sizes):
        h = hs[i]
        supp = support_projection(h, tol=1e-7)
        s_half = apply_function(h, inverse_sqrt_on_support())

        units = unit_stacks(phi, i)
        hg = [x[:, None, None] for x in h.stacks]
        comm = _norms([hx @ u - u @ hx for hx, u in zip(hg, units)], tol)
        diag = [u[:, range(d), range(d)] for u in units]
        prod = _norms([e[:, :, None] @ e[:, None, :] for e in diag], tol)
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
            sig_arr[(0, c)] = sc @ arr @ sc
        sigma = CPMap(sub_domain, phi.codomain, sig_arr, phi.codomain_space, phi.codomain_matdim)
        sigmas.append(sigma)

        sig = unit_stacks(sigma, 0)
        for j in range(d):
            for k in range(d):
                defect = unit_product_defects_per_unit(sig, sig, j, k, True, max(tol, 1e-7))
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
        recon_defect = max(recon_defect, float(_norms(recon, recon_defect).max()))
    if recon_defect > max(tol, 1e-7):
        witnesses.append(f"reconstruction defect {recon_defect:.3e} > tol")

    ok = not witnesses
    return OrderZeroCertificate(ok, witnesses, hs, sigmas, recon_defect)


def validate_per_pair(es: ElementarySet, tol: float = 1e-10) -> None:
    """The elementary-set check, one member and one pair at a time."""
    for idx, p in enumerate(es.projections):
        traces = [float(np.trace(b).real) for b in p.blocks]
        live = [t for t in traces if abs(t) > 1e-9]
        if len(live) != 1 or abs(live[0] - 1.0) > 1e-7:
            raise ValueError(f"member {idx} is not a minimal projection in one block")
        idem = (p @ p - p).norm()
        if idem > tol:
            raise ValueError(f"member {idx} has projection defect {idem:.3e}")
    for i in range(len(es.projections)):
        for j in range(i + 1, len(es.projections)):
            d = orthogonality_defect(es.projections[i], es.projections[j])
            if d > tol:
                raise ValueError(f"members {i},{j} are not orthogonal: {d:.3e}")


def worst_pair_per_pair(images: list[AlgebraElement]) -> tuple[int, int, float]:
    """The first pair of images with the smallest product norm, and that norm."""
    worst = (0, 1, np.inf)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            v = (images[i] @ images[j]).norm()
            if v < worst[2]:
                worst = (i, j, v)
    return worst


def dilation_defect_per_unit(phi: CPMap, dil: StinespringDilation) -> float:
    """Worst ||phi(e_jk) - V^* pi(e_jk) V|| over the matrix units, one unit at a time."""
    worst = 0.0
    for i, d in enumerate(phi.domain.block_sizes):
        for j in range(d):
            for k in range(d):
                target = phi.unit_image(i, j, k).blocks[0]
                got = dil.V.conj().T @ dil.pi_unit(i, j, k) @ dil.V
                worst = max(worst, float(np.linalg.norm(target - got, 2)))
    return worst


def min_choi_eigenvalue_per_pair(phi: CPMap) -> float:
    """Smallest Choi eigenvalue over the stored block pairs, one pair at a time."""
    chois = [phi.choi_block(i, c) for i, c in phi.images]
    lows = [float(np.linalg.eigvalsh((ch + ch.conj().T) / 2).min()) for ch in chois]
    return min(lows, default=0.0)


def adjoint_symmetry_defect_per_pair(phi: CPMap) -> float:
    """max over stored pairs of || phi(e_kj) - phi(e_jk)^* ||_max, one pair at a time."""
    worst = 0.0
    for arr in phi.images.values():
        swapped = np.conj(arr.transpose(1, 0, 3, 2))
        worst = max(worst, float(np.abs(arr - swapped).max()))
    return worst


def norm_probe_list(domain: FiniteDimAlgebra, seed: int = 7, count: int = 50) -> list[AlgebraElement]:
    """The unit, the hermitian matrix units and ``count`` random norm-one elements."""
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


def map_norm_lower_bound_per_probe(phi_a: CPMap, phi_b: CPMap, seed: int = 7) -> float:
    """Largest ||phi_a(x) - phi_b(x)|| over the probe family, one probe at a time."""
    worst = 0.0
    for x in norm_probe_list(phi_a.domain, seed=seed):
        worst = max(worst, (apply_one_element(phi_a, x) - apply_one_element(phi_b, x)).norm())
    return worst


def function_element(space: FiniteMetricSpace, values: np.ndarray, matdim: int = 1) -> AlgebraElement:
    """One function on the points as an element of the function algebra."""
    vals = np.asarray(values, dtype=complex)
    if matdim == 1:
        vals = vals.reshape(space.npts, 1, 1)
    if vals.shape != (space.npts, matdim, matdim):
        raise ValueError(f"values have shape {vals.shape}, expected ({space.npts},{matdim},{matdim})")
    return AlgebraElement.from_stacks(function_algebra(space, matdim), [vals.copy()])


def element_values(elem: AlgebraElement) -> np.ndarray:
    """Flatten a function-algebra element back to pointwise values."""
    (vals,) = elem.stacks  # one block size, one block per point
    return vals[:, 0, 0] if vals.shape[1] == 1 else vals


def compose_values_per_function(approx: CPApproximation, values: np.ndarray) -> np.ndarray:
    """Pointwise values of phi(psi(f)) for one function f."""
    elem = function_element(approx.space, values, approx.matdim)
    return element_values(approx.phi.apply(approx.psi.apply(elem)))


def error_on_per_function(approx: CPApproximation, values: np.ndarray) -> float:
    """sup-norm error ||phi psi (f) - f|| of one function."""
    vals = np.asarray(values, dtype=complex)
    out = compose_values_per_function(approx, vals)
    if approx.matdim == 1:
        return float(np.abs(out - vals.reshape(-1)).max())
    return float(np.linalg.svd(out - vals, compute_uv=False).max())


def values_of_per_block(phi: CPMap, block: int, mat: np.ndarray) -> np.ndarray:
    """Pointwise values of phi applied to one domain block element."""
    return element_values(phi.apply_to_block(block, mat))


def _real_values_of(phi: CPMap, block: int, mat: np.ndarray) -> np.ndarray:
    vals = values_of_per_block(phi, block, mat)
    if np.abs(vals.imag).max(initial=0.0) > 1e-9:
        raise AssertionError("expected real function values")
    return vals.real


def _diam_failure_data_per_set(space, targets, psi, j, pts, delta, n) -> dict:
    sep = 2.0 * delta / (3.0 * (n + 1))
    chosen: list[int] = []
    for p in pts:
        if all(space.metric[p, c] >= sep for c in chosen):
            chosen.append(p)
        if len(chosen) == n + 2:
            break
    through = point_member_masks(targets.V.members)
    lam_sets = [mask_indices(through[p]) for p in chosen]
    sums = []
    for lset in lam_sets:
        h = targets.weights[lset].sum(axis=0) if lset else np.zeros(space.npts)
        img = psi.apply(function_element(space, h))
        sums.append(float(np.linalg.norm(img.blocks[j], 2)))
    return {"chain_points": chosen, "index_sets": lam_sets, "psi_j_norms": sums, "norm_floor": (n + 1) / (n + 2)}


def extract_cover_per_class(
    space: FiniteMetricSpace,
    U: Cover,
    n: int,
    approx: CPApproximation,
    targets: ExtractionTargets | None = None,
) -> tuple[Cover, ExtractionReport]:
    """``extract_cover`` with one psi and one phi apply per function, class and
    block element, every check made as the walk meets it."""
    if approx.matdim != 1:
        raise ValueError("extraction runs over scalar function systems")
    if targets is None:
        targets = extraction_targets(space, U, n)
    constants = targets.constants
    identities = constants.verify_identities()
    C, beta, alpha, theta, eta = (constants.C, constants.beta, constants.alpha, constants.theta, constants.eta)
    phi, psi, F = approx.phi, approx.psi, approx.F
    checks: list[Check] = []
    eta_checks: list[Check] = []

    for j, r in enumerate(F.block_sizes):
        if r == 1:
            continue
        block_ok = certify_order_zero(phi.restrict_to_block(j)).ok or (r - 1 <= n)
        checks.append(Check("block-order", float(r - 1), float(n), block_ok, f"block {j}"))
        if not block_ok:
            raise StepFailure("block-order", f"block {j} has size {r} > n+1 and is not order zero")
    if F.is_abelian():
        order = strict_order_abelian(phi)
        checks.append(Check("ord-phi", float(order), float(n), order <= n))
        if order > n:
            raise StepFailure("ord-phi", f"strict order {order} exceeds n = {n}")

    weights = targets.weights
    nlam = weights.shape[0]
    all_indices = list(range(nlam))

    def eta_check(name: str, lam_set: list[int]) -> np.ndarray:
        h = weights[lam_set].sum(axis=0)
        composed = compose_values_per_function(approx, h)
        err = float(np.abs(composed - h).max())
        eta_checks.append(Check("eta", err, eta, err < eta, name))
        if err >= eta:
            raise StepFailure("eta", f"approximation error {err:.6g} on {name} is not below eta = {eta:.6g}")
        return h

    individual = max(
        float(np.abs(compose_values_per_function(approx, weights[l]) - weights[l]).max()) for l in range(nlam)
    )
    eta_check("full index set", all_indices)

    m_blocks = F.num_blocks
    one_vals = [_real_values_of(phi, j, np.eye(F.block_sizes[j], dtype=complex)) for j in range(m_blocks)]
    A_sets = [frozenset(np.flatnonzero(_above(v, C)).tolist()) for v in one_vals]
    through = point_member_masks(targets.V.members)
    classes: list[list[list[int]]] = []
    for j in range(m_blocks):
        merged: list[int] = []
        for x in A_sets[j]:
            joined = through.get(x, 0)
            for c in merged:
                if c & joined:
                    joined |= c
            if joined:
                merged = [c for c in merged if not c & joined] + [joined]
        classes.append(sorted(mask_indices(c) for c in merged))

    V_tilde: dict[tuple[int, int], frozenset[int]] = {}
    q_mats: dict[tuple[int, int], np.ndarray] = {}
    for j in range(m_blocks):
        A = A_sets[j]
        for i, cls in enumerate(classes[j]):
            vt = V_tilde[(j, i)] = frozenset().union(*(targets.V.members[l] for l in cls)) & A
            h = eta_check(f"class ({j},{i})", cls)
            blk = psi.apply(function_element(space, h)).blocks[j]
            w, vecs = eigh_canonical((blk + blk.conj().T) / 2)
            proj = (vecs * _above(w, theta).astype(float)) @ vecs.conj().T
            q_mats[(j, i)] = proj
            rest = np.eye(F.block_sizes[j], dtype=complex) - proj
            vals = _real_values_of(phi, j, rest)
            sup = max((vals[x] for x in vt), default=0.0)
            checks.append(Check("(1)", float(sup), C / 2.0, sup < C / 2.0, f"({j},{i})"))
            if sup >= C / 2.0:
                raise StepFailure("(1)", f"phi(1_{j} - q_{j}^{({i})}) reaches {sup:.6g} >= C/2 on its class support")

    worst_lam = max((len(cls) for j in range(m_blocks) for cls in classes[j]), default=1)
    linearity = individual * max(worst_lam, nlam)

    p_mats: dict[tuple[int, int], np.ndarray] = {}
    p_devs: dict[tuple[int, int], float] = {}
    nontrivial = False
    for j in range(m_blocks):
        idxs = [i for i in range(len(classes[j])) if np.abs(q_mats[(j, i)]).max() > 1e-12]
        count_ok = len(idxs) <= n + 1
        checks.append(Check("class-count", float(len(idxs)), float(n + 1), count_ok, f"block {j}"))
        if not count_ok:
            raise StepFailure("class-count", f"block {j} carries {len(idxs)} classes > n+1 = {n + 1}")
        if not idxs:
            continue
        r = F.block_sizes[j]
        sub = FiniteDimAlgebra((r,), max_block=r)
        qs = [AlgebraElement(sub, [q_mats[(j, i)]]) for i in idxs]
        sup_norm = sum(qs[1:], qs[0]).norm()
        checks.append(Check("sum-alpha", sup_norm, alpha, sup_norm <= alpha + SNAP, f"block {j}"))
        if sup_norm > alpha + SNAP:
            raise StepFailure("sum-alpha", f"||sum_i q_{j}^(i)|| = {sup_norm:.8g} exceeds alpha = {alpha:.8g}")
        fam = orthogonalize_family(qs, alpha)
        nontrivial = nontrivial or not fam.unchanged
        for pos, i in enumerate(idxs):
            p = fam.projections[pos].blocks[0]
            p_mats[(j, i)] = p
            dev = float(np.linalg.norm(p - q_mats[(j, i)], 2))
            p_devs[(j, i)] = dev
            checks.append(Check("beta", dev, beta, dev <= beta + 1e-9, f"({j},{i})"))
            if dev > beta + 1e-9:
                raise StepFailure("beta", f"||p - q|| = {dev:.6g} exceeds beta = {beta:.6g}")

    members: list[frozenset[int]] = []
    labels: list[str] = []
    keys: list[tuple[int, int]] = []
    for (j, i), p in p_mats.items():
        vals = _real_values_of(phi, j, p)
        w_set = frozenset(np.flatnonzero(_above(vals, C)).tolist())
        rest = np.eye(F.block_sizes[j], dtype=complex) - p
        rest_vals = _real_values_of(phi, j, rest)
        vt = V_tilde[(j, i)]
        sup = max((rest_vals[x] for x in vt), default=0.0)
        checks.append(Check("(*)", float(sup), C, sup < C, f"({j},{i})"))
        if sup >= C:
            raise StepFailure("(*)", f"phi(1_{j} - p_{j}^{({i})}) reaches {sup:.6g} >= C")
        inside = w_set <= vt
        checks.append(Check("W-inside-V", float(len(w_set - vt)), 0.0, inside, f"({j},{i})"))
        if not inside:
            raise StepFailure("W-inside-V", f"W_{j}^{({i})} leaves its class support at {sorted(w_set - vt)[:4]}")
        diam = member_diameter(space, vt)
        checks.append(Check("diam", diam, targets.delta, diam < targets.delta, f"({j},{i})"))
        if diam >= targets.delta:
            data = _diam_failure_data_per_set(space, targets, psi, j, sorted(vt), targets.delta, n)
            raise StepFailure(
                "diam", f"diam of the class support ({j},{i}) is {diam:.6g} >= delta = {targets.delta:.6g}", data
            )
        if w_set:
            members.append(w_set)
            labels.append(f"W[{j},{i}]")
            keys.append((j, i))

    W = Cover(members, labels)
    missing = set(range(space.npts)).difference(*W.members)
    checks.append(Check("covering", float(len(missing)), 0.0, not missing))
    if missing:
        raise StepFailure("covering", f"points {sorted(missing)[:6]} lie in no W member")
    order_W = cover_order(W)
    checks.append(Check("order", float(order_W), float(n), order_W <= n))
    if order_W > n:
        raise StepFailure("order", f"cover order {order_W} exceeds n = {n}")
    _, support_witness = refines(Cover([V_tilde[key] for key in keys]), U)
    for key, target in zip(keys, support_witness):
        checks.append(Check("refines", 0.0 if target is not None else 1.0, 0.0, target is not None, str(key)))
        if target is None:
            raise StepFailure("refines", f"class support {key} fits in no member of U")
    report = ExtractionReport(
        constants, identities, targets.delta, checks, eta_checks, linearity, A_sets, classes,
        V_tilde, p_devs, nontrivial, W, order_W,
    )
    return W, report
