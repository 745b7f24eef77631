"""Deterministic command-line front end over JSON files.

Three subcommand groups wrap the library: ``cover`` for combinatorics,
``approx`` for the approximation pipelines, ``cpmap`` for map-level
operations.  One invocation is one computation; outputs are canonical JSON
(sorted keys) so identical inputs and seed produce identical bytes.

Exit codes: 0 success, 2 schema violation, 3 precondition failure,
4 pipeline-step failure or failed internal self-check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

import numpy as np

from . import jsonio
from .algebra import GapHypothesisError, validate
from .approx import (
    CPApproximation,
    StepFailure,
    build_cp_approx,
    direct_sum_approx,
    estimate_cpr_commutative,
    extract_cover,
    tensor_approx,
    verify_cp_approx,
)
from .cliques import max_clique
from .covers import (
    cover_order,
    cover_strict_order,
    intersection_graph,
    nerve,
    refine_with_strict_order,
    refines,
)
from .cpmaps import (
    certify_order_zero,
    choi_blocks,
    stinespring,
    strict_order_bounds,
)
from .jsonio import SchemaError
from .orderzero import HypothesisFailure, decompose_order_zero, perturb_to_hom
from .projections import repair_almost_projection

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_STEP = 4


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj: Any, out_path: str | None) -> None:
    text = jsonio.dumps(obj) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _need(data: dict, key: str) -> Any:
    if not isinstance(data, dict) or key not in data:
        raise SchemaError(f"input needs field {key!r}")
    return data[key]


def _integer(data: dict, key: str, low: int) -> int:
    value = _need(data, key)
    if type(value) is not int or value < low:
        raise SchemaError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _functions_from(data: Any) -> list[np.ndarray]:
    """Value vectors, each read by one ``np.array`` once the types of its
    entries are checked: real, or complex when some entry is an ``[re, im]`` pair."""
    if not isinstance(data, list) or not all(isinstance(f, list) for f in data):
        raise SchemaError("functions must be a list of value vectors")
    out = []
    for f in data:
        pairs = list in set(map(type, f))
        if pairs:
            f = [v if type(v) is list else [v, 0.0] for v in f]
        entries = [x for v in f for x in v] if pairs and {len(v) for v in f} == {2} else f
        try:
            vals = np.array(f, dtype=float) if set(map(type, entries)) <= {int, float} else None
        except OverflowError:  # an integer beyond the float range
            vals = None
        if vals is None or not np.isfinite(vals).all():
            raise SchemaError("function values must be finite numbers or [re, im] pairs")
        out.append(vals.view(complex).reshape(-1) if pairs else vals)
    return out


def _finite(v: Any, what: str) -> float:
    """A JSON number in the float range, such as ``epsilon``."""
    if type(v) in (int, float) and abs(v) <= sys.float_info.max:  # NaN fails too
        return float(v)
    raise SchemaError(f"{what}, got {v!r}")


def _number(data: dict, key: str) -> float:
    return _finite(_need(data, key), f"{key} must be a finite number")


# ---------------------------------------------------------------------------
# cover group
# ---------------------------------------------------------------------------

def _cmd_cover(args: argparse.Namespace, data: Any) -> Any:
    action = args.action
    if action == "order":
        cover = jsonio.cover_from_json(_need(data, "cover"))
        return {"order": cover_order(cover)}
    if action == "strict-order":
        cover = jsonio.cover_from_json(_need(data, "cover"))
        clique = max_clique(intersection_graph(cover))
        return {"strict_order": max(len(clique) - 1, 0), "clique": clique}
    if action == "nerve":
        cover = jsonio.cover_from_json(_need(data, "cover"))
        k = nerve(cover)
        return {"complex": jsonio.complex_to_json_sc(k), "dimension": k.dimension()}
    if action == "refine":
        space = jsonio.space_from_json(_need(data, "space"))
        cover = jsonio.cover_from_json(_need(data, "cover"))
        refined, strict = refine_with_strict_order(space, cover)
        return {
            "cover": jsonio.cover_to_json(refined),
            "order": cover_order(refined),
            "strict_order": strict,
            "input_order": cover_order(cover),
            "input_strict_order": cover_strict_order(cover),
        }
    if action == "check-refines":
        fine = jsonio.cover_from_json(_need(data, "fine"))
        coarse = jsonio.cover_from_json(_need(data, "coarse"))
        ok, witness = refines(fine, coarse)
        return {"refines": ok, "witness": witness}
    raise SchemaError(f"unknown cover action {action!r}")


# ---------------------------------------------------------------------------
# approx group
# ---------------------------------------------------------------------------

def _approx_with_report(approx: CPApproximation) -> dict:
    out = jsonio.approximation_to_json(approx)
    if approx.report is not None:
        out["report"] = {
            "errors": [float(e) for e in approx.report.errors],
            "strict_order": approx.report.phi_strict_order,
            "radius": float(approx.report.radius),
            "members": len(approx.report.cover.members),
            "base_order": approx.report.base_order,
        }
    return out


def _cmd_approx(args: argparse.Namespace, data: Any) -> Any:
    action = args.action
    if action == "build":
        space = jsonio.space_from_json(_need(data, "space"))
        funcs = _functions_from(_need(data, "functions"))
        eps = _number(data, "epsilon")
        approx = build_cp_approx(space, funcs, eps)
        return _approx_with_report(approx)
    if action == "verify":
        approx = jsonio.approximation_from_json(_need(data, "approximation"), args.max_block)
        funcs = _functions_from(_need(data, "functions"))
        eps = _number(data, "epsilon")
        rep = verify_cp_approx(approx, funcs, eps)
        return {
            "errors": [float(e) for e in rep.errors],
            "within": rep.within.ok,
            "psi": {"cp": rep.psi_cp, "contractive": rep.psi_contractive.ok, "norm": rep.psi_contractive.measured},
            "phi": {"cp": rep.phi_cp, "contractive": rep.phi_contractive.ok, "norm": rep.phi_contractive.measured},
            "order_bounds": {
                "lower": rep.phi_order.lower,
                "upper": rep.phi_order.upper,
                "exact": rep.phi_order.exact,
            },
        }
    if action == "tensor":
        approx = jsonio.approximation_from_json(_need(data, "approximation"), args.max_block)
        r = _integer(data, "r", 1)
        largest = r * max(approx.F.block_sizes + (approx.matdim,))
        if largest > args.max_block:
            raise SchemaError(f"r = {r} gives blocks of size {largest}, above --max-block {args.max_block}")
        return jsonio.approximation_to_json(tensor_approx(approx, r))
    if action == "sum":
        first = jsonio.approximation_from_json(_need(data, "first"), args.max_block)
        second = jsonio.approximation_from_json(_need(data, "second"), args.max_block)
        total = direct_sum_approx(first, second)
        out = jsonio.approximation_to_json(total)
        out["space"] = jsonio.space_to_json(total.space)
        return out
    if action == "extract-cover":
        space = jsonio.space_from_json(_need(data, "space"))
        U = jsonio.cover_from_json(_need(data, "cover"))
        n = _integer(data, "n", 0)
        approx = jsonio.approximation_from_json(_need(data, "approximation"), args.max_block)
        if approx.space.npts != space.npts:
            raise SchemaError(f"the approximation is on {approx.space.npts} points, the space has {space.npts}")
        W, rep = extract_cover(space, U, n, approx)
        return {
            "W": jsonio.cover_to_json(W),
            "order": rep.W_order,
            "refines": all(c.ok for c in rep.checks if c.step == "refines"),
            "constants": {
                "n": rep.constants.n,
                "C": rep.constants.C,
                "beta": rep.constants.beta,
                "alpha": rep.constants.alpha,
                "theta": rep.constants.theta,
                "eta": rep.constants.eta,
                "delta": rep.delta,
            },
            "steps": [{**c._asdict(), "ok": bool(c.ok)} for c in rep.checks],
        }
    if action == "estimate":
        space = jsonio.space_from_json(_need(data, "space"))
        scales = _need(data, "scales")
        if not isinstance(scales, list):
            raise SchemaError(f"scales must be a list of finite numbers, got {scales!r}")
        scales = [_finite(s, "scales must be finite numbers") for s in scales]
        funcs = _functions_from(data["functions"]) if "functions" in data else None
        value, evidence = estimate_cpr_commutative(space, scales, funcs)
        return {
            "value": value,
            "evidence": [
                {
                    "scale": e.scale,
                    "net_size": e.net_size,
                    "base_order": e.base_order,
                    "refined_strict_order": e.refined_strict_order,
                    "builder_order": e.builder_order,
                }
                for e in evidence
            ],
        }
    raise SchemaError(f"unknown approx action {action!r}")


# ---------------------------------------------------------------------------
# cpmap group
# ---------------------------------------------------------------------------

def _cmd_cpmap(args: argparse.Namespace, data: Any) -> Any:
    action = args.action
    if action == "choi":
        phi = jsonio.cpmap_from_json(_need(data, "map"), args.max_block)
        blocks, ok, worst = choi_blocks(phi)
        return {
            "choi_blocks": [jsonio.matrix_to_json(b) for b in blocks],
            "psd": ok,
            "min_eigenvalue": worst,
        }
    if action == "stinespring":
        phi = jsonio.cpmap_from_json(_need(data, "map"), args.max_block)
        dil = stinespring(phi)
        vtv = dil.V.conj().T @ dil.V
        iso = float(np.linalg.norm(vtv - np.eye(vtv.shape[0]), 2)) <= 1e-9
        return {
            "rep_dimension": dil.rep_dimension,
            "multiplicities": list(dil.multiplicities),
            "V": jsonio.matrix_to_json(dil.V),
            "isometry": iso,
        }
    if action == "order-bounds":
        phi = jsonio.cpmap_from_json(_need(data, "map"), args.max_block)
        kw = {"tol": args.tol} if args.tol is not None else {}
        b = strict_order_bounds(phi, seed=args.seed, **kw)
        return {"lower": b.lower, "upper": b.upper, "exact": b.exact, "method": b.method}
    if action == "order-zero":
        phi = jsonio.cpmap_from_json(_need(data, "map"), args.max_block)
        kw = {"tol": args.tol} if args.tol is not None else {}
        cert = certify_order_zero(phi, **kw)
        return {"order_zero": cert.ok, "witnesses": cert.witnesses}
    if action == "repair":
        kind = _need(data, "kind")
        if kind == "almost-projection":
            algebra = jsonio.algebra_from_json(_need(data, "algebra"), args.max_block)
            h = jsonio.element_from_json(algebra, _need(data, "element"))
            eps = _number(data, "epsilon")
            p, c, moved = repair_almost_projection(h, eps)
            return {
                "projection": jsonio.element_to_json(p),
                "inverse_root": jsonio.element_to_json(c),
                "distance": moved.measured,
                "bound": moved.bound,
                "projection_defect": validate(p, "projection", 1e-10).measured,
            }
        if kind == "order-zero-map":
            phi = jsonio.cpmap_from_json(_need(data, "map"), args.max_block)
            gamma = _number(data, "gamma")
            rep = perturb_to_hom(phi, gamma)
            return {
                "map": jsonio.cpmap_to_json(rep.phi_prime),
                "norm_measured": rep.moved.measured,
                "norm_bound": rep.moved.bound,
                "cb_upper": rep.cb_upper,
                "hom_defect": rep.hom_defect,
            }
        raise SchemaError(f"unknown repair kind {kind!r}")
    if action == "decompose":
        phi = jsonio.cpmap_from_json(_need(data, "map"), args.max_block)
        dec = decompose_order_zero(phi)
        blocks = []
        for blk in dec.blocks:
            units = jsonio.unit_records(blk.sigma)
            sigma_units = [{key: u[key] for key in ("row", "col", "value")} for u in units]
            blocks.append(
                {
                    "support": [float(t) for t in blk.eigenvalue_support],
                    "h": jsonio.element_to_json(blk.h),
                    "sigma": sigma_units,
                }
            )
        return {"blocks": blocks, "reconstruction_defect": dec.reconstruction_defect}
    raise SchemaError(f"unknown cpmap action {action!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="cprank",
        description="covers, completely positive approximations, and strict order over JSON files",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized operations")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override, a finite number >= 0")
    parser.add_argument("--max-block", type=int, default=jsonio.DEFAULT_MAX_BLOCK, help="matrix block size cap")
    sub = parser.add_subparsers(dest="group", required=True)
    for group, actions in (
        ("cover", ["order", "strict-order", "nerve", "refine", "check-refines"]),
        ("approx", ["build", "verify", "tensor", "sum", "extract-cover", "estimate"]),
        ("cpmap", ["choi", "stinespring", "order-bounds", "order-zero", "repair", "decompose"]),
    ):
        g = sub.add_parser(group)
        g.add_argument("action", choices=actions)
        g.add_argument("--in", dest="infile", required=True, help="input JSON file")
        g.add_argument("--out", dest="outfile", default=None, help="output JSON file (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # under NaN every test ``v > tol`` is false, and every map would pass
        if args.tol is not None and not 0.0 <= args.tol <= sys.float_info.max:
            raise SchemaError(f"--tol must be a finite number >= 0, got {args.tol!r}")
        for flag, value, low in (("--seed", args.seed, 0), ("--max-block", args.max_block, 1)):
            if value < low:
                raise SchemaError(f"{flag} must be an integer >= {low}, got {value}")
        try:
            data = _load(args.infile)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read input: {exc}") from exc
        if args.group == "cover":
            result = _cmd_cover(args, data)
        elif args.group == "approx":
            result = _cmd_approx(args, data)
        else:
            result = _cmd_cpmap(args, data)
        del data  # the parsed input goes before the output text is built
        result["seed"] = args.seed
        _emit(result, args.outfile)
        return EXIT_OK
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (StepFailure, HypothesisFailure) as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return EXIT_STEP
    except AssertionError as exc:
        # a self-check inside the library found a broken invariant
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_STEP
    except (ValueError, GapHypothesisError, RuntimeError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
