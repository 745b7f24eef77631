"""JSON encodings for every data type crossing the command-line boundary.

Complex entries are ``[re, im]`` pairs; a block-diagonal element is the list
of its matrices, ``{"blocks": [...]}``, or the ``[block, matrix]`` pairs of
its blocks that are not zero, blocks ascending, ``{"sparse": [...]}``; maps
carry one record per nonzero matrix-unit image, which writers emit in the
sparse form.  Parsing is strict: unknown shapes, indices outside the domain
and entries that are not finite numbers raise :class:`SchemaError` so the CLI
can exit with the schema code.  Output text is :func:`dumps`: ``json``'s
compact form with sorted keys, the same bytes for the same values.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain
from typing import Any

import numpy as np

from .algebra import AlgebraElement, FiniteDimAlgebra, shared_algebra
from .approx import CPApproximation, function_algebra
from .covers import Cover, FiniteMetricSpace, SimplicialComplex
from .cpmaps import CPMap

#: default cap on the matrix block sizes input may name (desk-scale guarantee)
DEFAULT_MAX_BLOCK = 64


class SchemaError(ValueError):
    """Input JSON does not match the documented schema."""


def dumps(obj: Any) -> str:
    """The output format: ``json``'s compact form with sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def matrix_to_json(m: np.ndarray) -> list:
    """Nested ``[re, im]`` lists of a complex array of any shape."""
    a = np.array(m, dtype=complex, order="C", ndmin=1)
    return a.view(float).reshape(a.shape + (2,)).tolist()


def matrix_from_json(data: Any, shape: tuple[int, ...]) -> np.ndarray:
    """Complex array of ``shape`` from nested ``[re, im]`` lists, parsed by one
    ``np.array``; ``view`` keeps every bit, the sign of zero included."""
    try:
        a = np.array(data)
    except ValueError as exc:
        raise SchemaError(f"ragged matrix entries: {exc}") from exc
    if a.shape != shape + (2,) or a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        raise SchemaError(f"need {shape} finite [re, im] numbers, got shape {a.shape} of {a.dtype}")
    return np.ascontiguousarray(a, dtype=float).view(complex).reshape(shape)


def algebra_to_json(a: FiniteDimAlgebra) -> dict:
    return {"block_sizes": list(a.block_sizes)}


def _check_cap(sizes: list[int], max_block: int) -> None:
    """Raise for the first block size above ``max_block``, the cap on what input may name."""
    for r in sizes:
        if r > max_block:
            raise ValueError(f"block size {r} exceeds cap {max_block}")


def algebra_from_json(data: Any, max_block: int = DEFAULT_MAX_BLOCK) -> FiniteDimAlgebra:
    try:
        sizes = data["block_sizes"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"algebra needs block_sizes: {exc}") from exc
    if not isinstance(sizes, list) or not sizes or not all(type(r) is int and r >= 1 for r in sizes):
        raise SchemaError(f"block_sizes must be a list of at least one integer >= 1, got {sizes!r}")
    _check_cap(sizes, max_block)
    return shared_algebra(tuple(sizes))


def element_to_json(a: AlgebraElement) -> dict:
    """The dense form: one list per size-group stack, each block picked from
    its group's list."""
    stacks = [matrix_to_json(s) for s in a.stacks]
    return {"blocks": [stacks[g][n] for g, n in a.algebra.block_slots]}


def element_from_json(algebra: FiniteDimAlgebra, data: Any) -> AlgebraElement:
    """An element from its dense form, every block in order, or its sparse form,
    the blocks that are not zero as ``[block, matrix]`` pairs, blocks ascending."""
    index, mats = _listed_blocks(algebra, data)
    stacks = algebra.zero_stacks()
    for g, at, parsed in _parse_groups(algebra, index, mats):
        stacks[g][[algebra.block_slots[index[q]][1] for q in at]] = parsed
    return AlgebraElement.from_stacks(algebra, stacks)


def _listed_blocks(algebra: FiniteDimAlgebra, data: Any) -> tuple[list[int], list]:
    """The block indices an element's JSON lists and their unparsed matrices:
    every block of the dense form, or the pairs of the sparse form."""
    if not isinstance(data, dict) or ("blocks" in data) == ("sparse" in data):
        raise SchemaError("element needs one of blocks and sparse")
    if "blocks" in data:
        blocks = data["blocks"]
        if not isinstance(blocks, list) or len(blocks) != algebra.num_blocks:
            raise SchemaError(f"element needs a list of {algebra.num_blocks} blocks")
        return list(range(algebra.num_blocks)), blocks
    pairs = data["sparse"]
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 and type(p[0]) is int for p in pairs):
        raise SchemaError("sparse must be a list of [block, matrix] pairs with integer blocks")
    index = [b for b, _ in pairs]
    if not all(a < b for a, b in zip([-1] + index, index + [algebra.num_blocks])):
        raise SchemaError(f"sparse blocks must ascend strictly in 0..{algebra.num_blocks - 1}, got {index}")
    return index, [m for _, m in pairs]


def _parse_groups(algebra: FiniteDimAlgebra, index: list[int], mats: list) -> Iterator[tuple]:
    """The matrices listed for blocks ``index``, one :func:`matrix_from_json` per
    size group: per group listed, its places in the list and their stack."""
    for g, r in enumerate(algebra.group_sizes):
        if at := [q for q, b in enumerate(index) if algebra.block_slots[b][0] == g]:
            yield g, at, matrix_from_json([mats[q] for q in at], (len(at), r, r))


def space_to_json(space: FiniteMetricSpace) -> dict:
    if space.coords is not None:
        euclid = FiniteMetricSpace.from_coords(space.coords)
        if np.abs(euclid.metric - space.metric).max() <= 1e-12:
            return {"coords": space.coords.tolist(), "metric": "euclidean"}
    # coords that do not induce the metric (geodesic grids) are dropped
    return {"metric": space.metric.tolist()}


def space_from_json(data: Any) -> FiniteMetricSpace:
    if not isinstance(data, dict):
        raise SchemaError("space must be an object")
    euclidean = data.get("metric") == "euclidean"
    key = "coords" if euclidean else "metric"
    if key not in data:
        raise SchemaError("space needs a metric matrix or euclidean coords")
    try:
        values = np.asarray(data[key], dtype=float)
        if euclidean and not (values.ndim in (1, 2) and len(values)):
            raise ValueError("need at least one point, each a number or a list of numbers")
        if np.isfinite(values).all():
            # finite coordinates can still lie too far apart for a double
            with np.errstate(over="ignore"):
                space = FiniteMetricSpace.from_coords(values) if euclidean else FiniteMetricSpace(values)
            if np.isfinite(space.metric).all():
                return space
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad {key}: {exc}") from exc
    raise SchemaError(f"bad {key}: entries and the distances between them must be finite")


def cover_to_json(cover: Cover) -> dict:
    out: dict[str, Any] = {"members": [sorted(m) for m in cover.members]}
    if cover.labels is not None:
        out["labels"] = list(cover.labels)
    return out


def cover_from_json(data: Any) -> Cover:
    if not isinstance(data, dict) or not isinstance(data.get("members"), list):
        raise SchemaError("cover needs a list of members")
    members = data["members"]
    if not all(isinstance(m, list) and all(type(p) is int and p >= 0 for p in m) for m in members):
        raise SchemaError("each cover member must be a list of non-negative integer points")
    labels = data.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == len(members) and all(isinstance(t, str) for t in labels)
    ):
        raise SchemaError("cover labels must be a list with one string per member")
    return Cover(members, labels)


def complex_to_json_sc(k: SimplicialComplex) -> dict:
    return {"faces": sorted([sorted(f) for f in k.faces])}


# ---------------------------------------------------------------------------
# maps and approximations
# ---------------------------------------------------------------------------

def cpmap_to_json(phi: CPMap) -> dict:
    if phi.codomain_space is not None:
        codomain: dict[str, Any] = {
            "space": space_to_json(phi.codomain_space),
            "matdim": phi.codomain_matdim,
        }
    elif phi.codomain.num_blocks == 1:
        codomain = {"matrix": phi.codomain.block_sizes[0]}
    else:
        codomain = {"algebra": algebra_to_json(phi.codomain)}
    return {
        "domain": algebra_to_json(phi.domain),
        "codomain": codomain,
        "unit_images": unit_records(phi),
    }


def unit_records(phi: CPMap) -> list[dict]:
    """One record per matrix unit whose stored images are not all zero, in the
    sparse form: each codomain block that is not all zero, as ``0.0 + x`` for
    the stored x, the bits :func:`cpmaps.unit_stacks` gives.  Each image stack
    is written by one ``tolist``."""
    records: dict[tuple[int, int, int], list] = {}
    for keys, arrays in phi.parts:
        n, row, col = arrays.any(axis=(3, 4)).nonzero()
        listed = np.array([keys[n, 0], row, col, keys[n, 1]]).T.tolist()
        for (i, j, k, c), mat in zip(listed, matrix_to_json(0.0 + arrays[n, row, col])):
            records.setdefault((i, j, k), []).append([c, mat])
    # a unit's codomain blocks are distinct, so sorting never compares matrices
    return [
        {"block": i, "row": j, "col": k, "value": {"sparse": sorted(blocks)}}
        for (i, j, k), blocks in sorted(records.items())
    ]


def cpmap_from_json(data: Any, max_block: int = DEFAULT_MAX_BLOCK) -> CPMap:
    if not isinstance(data, dict):
        raise SchemaError("map must be an object")
    try:
        domain = algebra_from_json(data["domain"], max_block)
        codomain_spec = data["codomain"]
        units = data["unit_images"]
    except KeyError as exc:
        raise SchemaError(f"map needs domain, codomain, unit_images: missing {exc}") from exc
    if not isinstance(codomain_spec, dict):
        raise SchemaError("codomain must be an object")
    space = None
    if "matrix" in codomain_spec:
        r = _size(codomain_spec, "matrix")
        _check_cap([r], max_block)
        codomain = shared_algebra((r,))
    elif "space" in codomain_spec:
        space = space_from_json(codomain_spec["space"])
        matdim = _size(codomain_spec, "matdim")
        _check_cap([matdim], max_block)
        codomain = function_algebra(space, matdim)
    elif "algebra" in codomain_spec:
        codomain = algebra_from_json(codomain_spec["algebra"], max_block)
    else:
        raise SchemaError("codomain must give matrix, space, or algebra")

    if not isinstance(units, list):
        raise SchemaError("unit_images must be a list of records")
    sizes, heads = domain.block_sizes, []
    try:
        for rec in units:
            try:
                i, j, k = rec["block"], rec["row"], rec["col"]
                value = rec["value"]
            except (KeyError, TypeError) as exc:
                raise SchemaError(f"unit image needs block,row,col,value: {exc}") from exc
            if not type(i) is type(j) is type(k) is int:
                raise SchemaError(f"unit index ({i!r},{j!r},{k!r}) must be integers")
            if not (0 <= i < len(sizes) and 0 <= j < sizes[i] and 0 <= k < sizes[i]):
                raise SchemaError(f"unit index ({i},{j},{k}) outside the domain")
            heads.append(((i, j, k), value))
    except SchemaError:
        _listed_values(codomain, [value for _, value in heads])  # a bad value before the record comes first
        raise
    counts, index, mats = _listed_values(codomain, [value for _, value in heads])
    units = [unit for (unit, _), n in zip(heads, counts) for _ in range(n)]  # per listed block
    # the blocks not all zero go into one image stack per codomain and domain size group,
    # its pairs in ascending order
    parts = []
    for _, at, stack in _parse_groups(codomain, index, mats):
        # per domain size group, per block kept: its row in the parsed stack and its pair, row and column
        groups: dict[int, tuple[list, list]] = {}
        for row, (q, on) in enumerate(zip(at, stack.any(axis=(1, 2)).tolist())):
            if on:
                (i, j, k), c = units[q], index[q]
                rows, targets = groups.setdefault(domain.block_slots[i][0], ([], []))
                rows.append(row)
                targets.append((i, c, j, k))
        for gd, (rows, targets) in groups.items():
            place = {pair: n for n, pair in enumerate(sorted({(i, c) for i, c, _, _ in targets}))}
            d = domain.group_sizes[gd]
            arrays = np.zeros((len(place), d, d) + stack.shape[1:], complex)
            # a repeated unit's blocks add one after the other, in record order
            np.add.at(arrays, tuple(np.array([(place[i, c], j, k) for i, c, j, k in targets]).T), stack[rows])
            parts.append((np.array(list(place)), arrays))
    return CPMap.from_stacks(domain, codomain, parts, space)


def _listed_values(algebra: FiniteDimAlgebra, values: list) -> tuple:
    """What :func:`_listed_blocks` gives for each of ``values``, joined: per value the
    number of blocks listed, then all listed block indices and all their matrices.
    Values all in the dense form, or all in the sparse form, are checked with array
    tests; others are read one by one, which raises the SchemaError of the first value
    that is not well formed."""
    count = algebra.num_blocks
    dense = [v["blocks"] for v in values if type(v) is dict and "blocks" in v and "sparse" not in v]
    if len(dense) == len(values) and {*map(type, dense)} <= {list} and {*map(len, dense)} <= {count}:
        return [count] * len(dense), list(range(count)) * len(dense), list(chain.from_iterable(dense))
    pairs = [v["sparse"] for v in values if type(v) is dict and "sparse" in v and "blocks" not in v]
    if len(pairs) == len(values) and {*map(type, pairs)} <= {list}:
        flat = list(chain.from_iterable(pairs))
        if {*map(type, flat)} <= {list} and {*map(len, flat)} <= {2} and {type(p[0]) for p in flat} <= {int}:
            index = [p[0] for p in flat]
            counts = [*map(len, pairs)]
            # inside 0..count-1, the indices ascend within each value when value * count + index ascends;
            # a minimum, where a comparison of the steps would run one more numpy kernel
            if not index or 0 <= min(index) and max(index) < count:
                if np.diff(np.repeat(np.arange(len(pairs)) * count, counts) + index).min(initial=1) > 0:
                    return counts, index, [p[1] for p in flat]
    listed = [_listed_blocks(algebra, v) for v in values]
    return [len(b) for b, _ in listed], [c for b, _ in listed for c in b], [m for _, ms in listed for m in ms]


def _size(codomain_spec: dict, key: str) -> int:
    value = codomain_spec.get(key, 1)
    if type(value) is not int or value < 1:
        raise SchemaError(f"codomain {key} must be an integer >= 1, got {value!r}")
    return value


def approximation_to_json(approx: CPApproximation) -> dict:
    out = {
        "F": algebra_to_json(approx.F),
        "psi": cpmap_to_json(approx.psi),
        "phi": cpmap_to_json(approx.phi),
    }
    if approx.evaluation_points is not None:
        out["points"] = [int(p) for p in approx.evaluation_points]
    return out


def approximation_from_json(data: Any, max_block: int = DEFAULT_MAX_BLOCK) -> CPApproximation:
    if not isinstance(data, dict):
        raise SchemaError("approximation must be an object")
    try:
        F = algebra_from_json(data["F"], max_block)
        psi = cpmap_from_json(data["psi"], max_block)
        phi = cpmap_from_json(data["phi"], max_block)
    except KeyError as exc:
        raise SchemaError(f"approximation needs F, psi, phi: missing {exc}") from exc
    if phi.codomain_space is None:
        raise SchemaError("phi must map into functions over a space")
    space = phi.codomain_space
    matdim = phi.codomain_matdim
    if not F.block_sizes == phi.domain.block_sizes == psi.codomain.block_sizes:
        raise SchemaError(
            f"F {list(F.block_sizes)} must be phi's domain {list(phi.domain.block_sizes)}"
            f" and psi's codomain {list(psi.codomain.block_sizes)}"
        )
    if psi.domain.block_sizes != function_algebra(space, matdim).block_sizes:
        raise SchemaError(f"psi's domain must be the {matdim}x{matdim} functions on phi's {space.npts} points")
    points = data.get("points")
    if points is not None and not (
        isinstance(points, list) and all(type(p) is int and 0 <= p < space.npts for p in points)
    ):
        raise SchemaError(f"points must be a list of integers in 0..{space.npts - 1}, got {points!r}")
    return CPApproximation(space, matdim, F, psi, phi, points)
