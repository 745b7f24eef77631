"""Brute-force and per-entry references that the fast kernels are tested against.

Each function here is the plain version of a kernel in ``cprank``: subset
enumeration for clique numbers, cover orders and abelian strict order; the
set-based partition of unity and level-set faces of the strict refinement;
the pairwise oscillation scale; the entry-by-entry reader of a map's unit
records; the image of a matrix unit computed by ``CPMap.apply``; and the
order-zero defects with an SVD for every block, one element at a time.  They
are plain rather than fast, and serve only as oracles.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any

import numpy as np

from cprank import AlgebraElement, CPMap, Cover, FiniteDimAlgebra, FiniteMetricSpace, function_algebra
from cprank.algebra import matrix_unit
from cprank.covers import PartitionOfUnity
from cprank.cpmaps import ORTH_TOL, unit_stacks
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


def norms_unscreened(stacks: list[np.ndarray], floor: float = 0.0) -> np.ndarray:
    """Operator norms of stacked codomain elements, one SVD per block; ``floor`` is ignored."""
    return np.max([np.linalg.svd(s, compute_uv=False).max(axis=(0, -1)) for s in stacks], axis=0)


def apply_one_element(phi: CPMap, x: AlgebraElement) -> AlgebraElement:
    """phi(x) for a single element: one einsum per group of same-shape pairs, then
    each pair's term added into its codomain block in dictionary order."""
    stacks = phi.codomain.zero_stacks()
    for gc, slots, parts in phi._layout():
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
