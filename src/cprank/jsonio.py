"""JSON encodings for every data type crossing the command-line boundary.

Complex entries are ``[re, im]`` pairs; block-diagonal elements are lists of
such matrices; maps carry one record per nonzero matrix-unit image.  Parsing
is strict: unknown shapes raise :class:`SchemaError` so the CLI can exit with
the schema code.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .algebra import AlgebraElement, FiniteDimAlgebra
from .approx import CPApproximation, function_algebra
from .covers import Cover, FiniteMetricSpace, SimplicialComplex
from .cpmaps import CPMap


class SchemaError(ValueError):
    """Input JSON does not match the documented schema."""


def _complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _complex_from_json(v: Any) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SchemaError(f"complex entry must be [re, im], got {v!r}")
    return complex(float(v[0]), float(v[1]))


def matrix_to_json(m: np.ndarray) -> list:
    return [[_complex_to_json(z) for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(data: Any) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError("matrix must be a nonempty list of rows")
    return np.array([[_complex_from_json(v) for v in row] for row in data], dtype=complex)


def algebra_to_json(a: FiniteDimAlgebra) -> dict:
    return {"block_sizes": list(a.block_sizes)}


def algebra_from_json(data: Any, max_block: int = 64) -> FiniteDimAlgebra:
    try:
        return FiniteDimAlgebra(data["block_sizes"], max_block=max_block)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"algebra needs block_sizes: {exc}") from exc


def element_to_json(a: AlgebraElement) -> dict:
    return {"blocks": [matrix_to_json(b) for b in a.blocks]}


def element_from_json(algebra: FiniteDimAlgebra, data: Any) -> AlgebraElement:
    try:
        blocks = [matrix_from_json(b) for b in data["blocks"]]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"element needs blocks: {exc}") from exc
    return AlgebraElement(algebra, blocks)


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
    if data.get("metric") == "euclidean":
        if "coords" not in data:
            raise SchemaError("euclidean space needs coords")
        return FiniteMetricSpace.from_coords(np.asarray(data["coords"], dtype=float))
    if "metric" in data:
        try:
            return FiniteMetricSpace(np.asarray(data["metric"], dtype=float))
        except ValueError as exc:
            raise SchemaError(f"bad metric: {exc}") from exc
    raise SchemaError("space needs a metric matrix or euclidean coords")


def cover_to_json(cover: Cover) -> dict:
    out: dict[str, Any] = {"members": [sorted(m) for m in cover.members]}
    if cover.labels is not None:
        out["labels"] = list(cover.labels)
    return out


def cover_from_json(data: Any) -> Cover:
    if not isinstance(data, dict) or "members" not in data:
        raise SchemaError("cover needs members")
    members = [frozenset(int(p) for p in m) for m in data["members"]]
    labels = data.get("labels")
    return Cover(members, list(labels) if labels is not None else None)


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
    """One record per matrix unit whose stored images are not all zero."""
    live: dict[int, np.ndarray] = {}
    for (i, _), arr in phi.images.items():
        live[i] = live.get(i, False) | np.any(arr, axis=(2, 3))
    return [
        {"block": int(i), "row": j, "col": k, "value": element_to_json(phi.unit_image(i, j, k))}
        for i in sorted(live)
        for j, k in np.argwhere(live[i]).tolist()
    ]


def cpmap_from_json(data: Any, max_block: int = 64) -> CPMap:
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
        elem = element_from_json(codomain, value)
        d = domain.block_sizes[i]
        for c, blk in enumerate(elem.blocks):
            if not np.any(blk):
                continue
            r = codomain.block_sizes[c]
            arr = images.setdefault((i, c), np.zeros((d, d, r, r), complex))
            arr[j, k] += blk
    return CPMap(domain, codomain, images, codomain_space=space, codomain_matdim=matdim)


def approximation_to_json(approx: CPApproximation) -> dict:
    out = {
        "F": algebra_to_json(approx.F),
        "psi": cpmap_to_json(approx.psi),
        "phi": cpmap_to_json(approx.phi),
    }
    if approx.evaluation_points is not None:
        out["points"] = [int(p) for p in approx.evaluation_points]
    return out


def approximation_from_json(data: Any, max_block: int = 64) -> CPApproximation:
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
    points = data.get("points")
    eval_pts = [int(p) for p in points] if points is not None else None
    return CPApproximation(space, matdim, F, psi, phi, eval_pts)
