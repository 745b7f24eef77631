"""Brute-force and per-entry references that the fast kernels are tested against.

Each function here is the plain version of a kernel in ``cprank``: subset
enumeration for clique numbers, cover orders and abelian strict order; the
set-based partition of unity and level-set faces of the strict refinement;
the pairwise oscillation scale; the greedy net one center at a time; the entry-by-entry reader of a map's unit
records and their dense writer, their reader and sparse writer one image
key at a time, and a map's layout built one key at a time; the diameter of
one member; the image of a matrix unit computed by
``CPMap.apply``; the order-zero defects with an SVD for every block, one
element at a time; the functional calculus, the support projection and the
projection repair with one eigendecomposition per function, and the
hermitian part summed before it is halved; the order-zero certificate,
uncapped, built on them, with one product
defect call per (j, k), the decomposition's reconstruction defect, the
orthogonality defect, the elementary-set check and the worst pair one pair
at a time, the Stinespring self-check one matrix unit at a time, and the
Choi and adjoint checks one image pair at a time; and a c.p. approximation
evaluated one function, one block element and one class at a time, cover
extraction included; and the strict-order bounds with a fresh certificate
for each block.  They are plain rather than fast, and serve only as oracles.
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
    OrderBounds,
    StepFailure,
    certify_order_zero,
    cover_order,
    extraction_targets,
    function_algebra,
    orthogonalize_family,
    refines,
    strict_order_abelian,
    witness_elementary_set,
)
from cprank.algebra import (
    DEFAULT_TOL,
    RANK_TOL,
    THRESHOLD_SNAP,
    GapHypothesisError,
    ScalarFunctionSpec,
    _dagger,
    _require_hermitian,
    eigh_canonical,
    indicator_above,
    inverse_sqrt_on_support,
    matrix_unit,
    spectrum,
    validate,
)
from cprank.approx import SNAP, _above
from cprank.cliques import mask_indices
from cprank.covers import PartitionOfUnity, point_member_masks
from cprank.cpmaps import (
    CP_TOL,
    ORTH_TOL,
    ElementarySet,
    OrderZeroCertificate,
    StinespringDilation,
    _norms,
    unit_stacks,
)
from cprank.jsonio import (
    SchemaError,
    _listed_blocks,
    algebra_from_json,
    matrix_from_json,
    matrix_to_json,
    space_from_json,
)


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


def greedy_net_per_center(space: FiniteMetricSpace, spacing: float) -> list[int]:
    """The greedy net, each point tested against every chosen center in turn."""
    centers: list[int] = []
    for p in range(space.npts):
        if all(space.metric[p, c] >= spacing for c in centers):
            centers.append(p)
    return centers


def member_diameter(space: FiniteMetricSpace, member: frozenset[int]) -> float:
    """The diameter of one member, from its own block of the metric."""
    pts = list(member)
    return float(space.metric[np.ix_(pts, pts)].max(initial=0.0))


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


def _capped_algebra(sizes: tuple[int, ...], max_block: int) -> FiniteDimAlgebra:
    """The algebra of ``sizes``, refused, as the CLI words it, for a block above the cap."""
    for r in sizes:
        if r > max_block:
            raise ValueError(f"block size {r} exceeds cap {max_block}")
    return FiniteDimAlgebra(sizes)


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
    if "matrix" in codomain_spec:
        codomain = _capped_algebra((int(codomain_spec["matrix"]),), max_block)
    elif "space" in codomain_spec:
        space = space_from_json(codomain_spec["space"])
        matdim = int(codomain_spec.get("matdim", 1))
        codomain = _capped_algebra((matdim,) * space.npts, max_block)
    elif "algebra" in codomain_spec:
        codomain = algebra_from_json(codomain_spec["algebra"], max_block)
    else:
        raise SchemaError("codomain must give matrix, space, or algebra")

    listed: dict[tuple[int, int, int, int], list[np.ndarray]] = {}  # per (i, c, j, k), its blocks
    for rec in units:
        try:
            i, j, k = int(rec["block"]), int(rec["row"]), int(rec["col"])
            value = rec["value"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"unit image needs block,row,col,value: {exc}") from exc
        if i >= domain.num_blocks or j >= domain.block_sizes[i] or k >= domain.block_sizes[i]:
            raise SchemaError(f"unit index ({i},{j},{k}) outside the domain")
        elem = element_from_json_per_entry(codomain, value)
        for c, blk in enumerate(elem.blocks):
            if np.any(blk):
                listed.setdefault((i, c, j, k), []).append(blk)
    images: dict[tuple[int, int], np.ndarray] = {}
    for (i, c, j, k), blocks in listed.items():
        d, r = domain.block_sizes[i], codomain.block_sizes[c]
        arr = images.setdefault((i, c), np.zeros((d, d, r, r), complex))
        # a unit listed several times adds its blocks in the order of their bytes
        for blk in sorted(blocks, key=lambda b: b.tobytes()):
            arr[j, k] += blk
    return CPMap(domain, codomain, images, codomain_space=space)


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


def cpmap_from_json_per_key(data: Any, max_block: int = 64) -> CPMap:
    """The map of a JSON record list, read through a dictionary of images: each
    record checked in turn, the listed blocks parsed per codomain block size,
    those not all zero summed into their pair's image, a repeated unit's in the
    order of their bytes, and the pairs keyed in the order of their first such block."""
    if not isinstance(data, dict):
        raise SchemaError("map must be an object")
    try:
        domain = algebra_from_json(data["domain"], max_block)
        codomain_spec = data["codomain"]
        units = data["unit_images"]
    except KeyError as exc:
        raise SchemaError(f"map needs domain, codomain, unit_images: missing {exc}") from exc
    space = None
    if "matrix" in codomain_spec:
        codomain = _capped_algebra((codomain_spec["matrix"],), max_block)
    elif "space" in codomain_spec:
        space = space_from_json(codomain_spec["space"])
        codomain = function_algebra(space, codomain_spec.get("matdim", 1))
    else:
        codomain = algebra_from_json(codomain_spec["algebra"], max_block)
    if not isinstance(units, list):
        raise SchemaError("unit_images must be a list of records")
    sizes = domain.block_sizes
    units_at, index, mats = [], [], []  # per listed block of every record: unit, block, matrix
    for rec in units:
        try:
            i, j, k = rec["block"], rec["row"], rec["col"]
            value = rec["value"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"unit image needs block,row,col,value: {exc}") from exc
        if not all(type(v) is int for v in (i, j, k)):
            raise SchemaError(f"unit index ({i!r},{j!r},{k!r}) must be integers")
        if not (0 <= i < len(sizes) and 0 <= j < sizes[i] and 0 <= k < sizes[i]):
            raise SchemaError(f"unit index ({i},{j},{k}) outside the domain")
        listed, blocks = _listed_blocks(codomain, value)
        units_at += [(i, j, k)] * len(listed)
        index += listed
        mats += blocks
    live: dict[int, np.ndarray] = {}
    for g, r in enumerate(codomain.group_sizes):
        if at := [q for q, b in enumerate(index) if codomain.block_slots[b][0] == g]:
            stack = matrix_from_json([mats[q] for q in at], (len(at), r, r))
            live.update((q, blk) for q, blk in zip(at, stack) if np.any(blk))
    listed: dict[tuple[int, int, int, int], list[np.ndarray]] = {}  # per (i, c, j, k), its blocks
    for q in sorted(live):
        (i, j, k), c = units_at[q], index[q]
        listed.setdefault((i, c, j, k), []).append(live[q])
    images: dict[tuple[int, int], np.ndarray] = {}
    for (i, c, j, k), blocks in listed.items():
        arr = images.setdefault((i, c), np.zeros((sizes[i],) * 2 + blocks[0].shape, complex))
        # a unit listed several times adds its blocks in the order of their bytes
        for blk in sorted(blocks, key=lambda b: b.tobytes()):
            arr[j, k] += blk
    return CPMap(domain, codomain, images, codomain_space=space)


def unit_records_per_key(phi: CPMap) -> list[dict]:
    """A map's unit records in the sparse form, written one image and one block at a time."""
    units: dict[tuple[int, int, int], list] = {}
    for i, c in sorted(phi.images):
        arr = phi.images[i, c]
        for j, k in np.argwhere(np.any(arr, axis=(2, 3))).tolist():
            units.setdefault((int(i), j, k), []).append([int(c), matrix_to_json(0.0 + arr[j, k])])
    return [
        {"block": i, "row": j, "col": k, "value": {"sparse": blocks}}
        for (i, j, k), blocks in sorted(units.items())
    ]


def layout_per_key(phi: CPMap) -> list:
    """The layout built from ``images``, one key at a time in their order: per pair of a
    domain and a codomain size group, in order of first appearance, the domain group, the
    domain slots of its pairs, the codomain group, their codomain slots, as lists, and
    their stacked images."""
    parts: dict[tuple[int, int], tuple[list, list, list]] = {}
    for i, c in phi.images:
        (gd, sd), (gc, sc) = phi.domain.block_slots[i], phi.codomain.block_slots[c]
        dom_slots, cod_slots, arrays = parts.setdefault((gd, gc), ([], [], []))
        dom_slots.append(sd)
        cod_slots.append(sc)
        arrays.append(phi.images[i, c])
    return [(gd, dom_slots, gc, cod_slots, np.stack(arrays)) for (gd, gc), (dom_slots, cod_slots, arrays) in parts.items()]


def norms_unscreened(stacks: list[np.ndarray], floor: float = 0.0) -> np.ndarray:
    """Operator norms of stacked codomain elements, one SVD per block; ``floor`` is ignored."""
    return np.max([np.linalg.svd(s, compute_uv=False).max(axis=(0, -1)) for s in stacks], axis=0)


def apply_one_element(phi: CPMap, x: AlgebraElement, layout: list | None = None) -> AlgebraElement:
    """phi(x) for a single element: one einsum per part, then each pair's term added
    into its codomain block in the part's order; through ``layout`` in place of the
    map's when one is given."""
    stacks = phi.codomain.zero_stacks()
    for gd, dom_slots, gc, cod_slots, arrays in phi.layout if layout is None else layout:
        np.add.at(stacks[gc], cod_slots, np.einsum("njk,njkab->nab", x.stacks[gd][dom_slots], arrays))
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


# ---------------------------------------------------------------------------
# the functional calculus with one decomposition per function
# ---------------------------------------------------------------------------

def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + _dagger(a)) / 2


def _in_block_order(a: AlgebraElement, group_values) -> np.ndarray:
    """Per-group ``(count, r)`` eigenvalues as one vector in block order."""
    return np.concatenate([group_values[g][s] for g, s in a.algebra.block_slots])


def _eval_spec_per_call(spec: ScalarFunctionSpec, w: np.ndarray) -> np.ndarray:
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
    if spec.kind == "inverse-sqrt-support":
        out = np.zeros_like(w)
        on = w > spec.rank_tol
        out[on] = w[on] ** -0.5
        return out
    raise ValueError(f"unknown scalar function kind {spec.kind!r}")


def apply_function_per_call(a: AlgebraElement, spec: ScalarFunctionSpec) -> AlgebraElement:
    """Apply a scalar function eigenvalue-wise in each block of a hermitian element.

    The result commutes with ``a`` and is hermitian for real-valued specs.
    Inverse-gap and gapped-threshold kinds reject operands whose spectrum
    enters the forbidden band, naming the offending eigenvalue.
    """
    _require_hermitian(a, DEFAULT_TOL)
    if spec.kind in ("inverse-gap", "inverse-sqrt-support"):
        low = float(spectrum(a, tol=np.inf)[0])
        if low < -DEFAULT_TOL:
            raise ValueError(f"element is not positive: eigenvalue {low:.3e}")
    w, v = zip(*(eigh_canonical(_hermitian_part(s)) for s in a.stacks))
    # checked in block order first, so a violation names the first offending block
    _eval_spec_per_call(spec, _in_block_order(a, w))
    out = [(vg * _eval_spec_per_call(spec, wg)[:, None, :]) @ _dagger(vg) for wg, vg in zip(w, v)]
    return AlgebraElement.from_stacks(a.algebra, out)


def support_projection_per_call(a: AlgebraElement, tol: float = DEFAULT_TOL) -> AlgebraElement:
    """Spectral projection onto the range of a positive element.

    Satisfies P a = a P = a, with rank equal to the numerical rank of ``a``.
    """
    _require_hermitian(a, tol)
    w, v = zip(*(eigh_canonical(_hermitian_part(s)) for s in a.stacks))
    # ascending per block: the first eigenvalue below -tol is its block's minimum
    neg = _in_block_order(a, w)
    neg = neg[neg < -tol]
    if neg.size:
        raise ValueError(f"element is not positive: eigenvalue {neg[0]:.3e}")
    return AlgebraElement.from_stacks(
        a.algebra, [(vg * (wg > RANK_TOL)[:, None, :]) @ _dagger(vg) for wg, vg in zip(w, v)]
    )


def repair_almost_projection_per_call(h: AlgebraElement, eps: float) -> tuple[AlgebraElement, AlgebraElement, Check]:
    """Turn an almost-projection into a projection, with quantitative bounds.

    Requires ``||h - h^2|| < eps < 1/4`` and ``||h|| <= 1``; the spectrum then
    splits around 1/2 with gap ``delta = sqrt(1 - 4 eps)/2``.  Returns the
    spectral projection ``p`` above 1/2 together with ``c``, the inverse square
    root of ``h`` on the range of ``p``, satisfying ``||p - h|| < 2 eps``,
    ``c h c = p`` and ``||p - c|| < 4 eps``, and the check of ``||p - h||``
    against ``2 eps``.
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
    p = apply_function_per_call(h, indicator_above(0.5, gap=delta * 0.999))
    # c = f(h) with f = 0 below the gap and t^(-1/2) above it
    c = apply_function_per_call(h, inverse_sqrt_on_support(rank_tol=0.5 - delta * 0.999))
    dist_ph = (p - h).norm()
    if dist_ph >= 2 * eps:
        raise AssertionError(f"repair bound violated: ||p-h|| = {dist_ph:.6g} >= 2 eps")
    dist_pc = (p - c).norm()
    if dist_pc >= 4 * eps:
        raise AssertionError(f"repair bound violated: ||p-c|| = {dist_pc:.6g} >= 4 eps")
    return p, c, Check("repair", dist_ph, 2 * eps, True)


def certify_order_zero_per_unit(phi: CPMap, tol: float = ORTH_TOL) -> OrderZeroCertificate:
    """The order-zero certificate with every witness: one product defect call per (j, k),
    one orthogonality defect per pair of blocks."""
    witnesses: list[str] = []
    min_choi = min(min_choi_eigenvalue_per_pair(phi) + [0.0])
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
        supp = support_projection_per_call(h, tol=1e-7)
        s_half = apply_function_per_call(h, inverse_sqrt_on_support())

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

        sub_domain = FiniteDimAlgebra((d,))
        sig_arr = {}
        for c in range(phi.codomain.num_blocks):
            arr = phi.image_array(i, c)
            sc = s_half.blocks[c]
            sig_arr[(0, c)] = sc @ arr @ sc
        sigma = CPMap(sub_domain, phi.codomain, sig_arr, phi.codomain_space)
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


def strict_order_bounds_recertifying(phi: CPMap, tol: float = ORTH_TOL, seed: int = 0) -> OrderBounds:
    """The strict-order bounds with a certificate of the whole map, then, for a map of
    several blocks, a fresh certificate of each block of size above 1 on its own,
    restricted by ``restrict_to_block``."""
    if phi.domain.is_abelian():
        val = strict_order_abelian(phi, tol)
        return OrderBounds(val, val, True, "abelian clique")
    if certify_order_zero(phi, tol).ok:
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


def min_choi_eigenvalue_per_pair(phi: CPMap) -> list[float]:
    """Smallest Choi eigenvalue per domain block over its stored pairs, inf for a block
    with none, one pair at a time."""
    lows = [np.inf] * phi.domain.num_blocks
    for i, c in phi.images:
        ch = phi.choi_block(i, c)
        lows[i] = min(lows[i], float(np.linalg.eigvalsh((ch + ch.conj().T) / 2).min()))
    return lows


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
        sub = FiniteDimAlgebra((r,))
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
        V_tilde, nontrivial, W, order_W,
    )
    return W, report
