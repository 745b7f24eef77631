"""Serialization round trips and the CLI contract (schemas, exit codes, determinism)."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprank import (
    AlgebraElement,
    CPMap,
    FiniteDimAlgebra,
    build_cp_approx,
    circle_grid,
    interval_grid,
)
from cprank import cli, jsonio
from cprank.cli import main
from cprank.cpmaps import unit_stacks

from conftest import (
    interval_chain_cover,
    matrix_path_approximation,
    rand_cp_contraction,
    rand_order_zero,
    three_arcs_cover,
    with_scaled_psi_image,
)
from oracles import (
    certify_order_zero_per_unit,
    cpmap_from_json_per_entry,
    element_from_json_per_entry,
    unit_image_apply,
    unit_records_dense,
)


class TestRoundTrips:
    def test_space_metric(self):
        sp = circle_grid(7)
        back = jsonio.space_from_json(json.loads(json.dumps(jsonio.space_to_json(sp))))
        assert np.abs(back.metric - sp.metric).max() <= 1e-15

    def test_space_coords(self):
        sp = interval_grid(9)
        back = jsonio.space_from_json(jsonio.space_to_json(sp))
        assert np.abs(back.metric - sp.metric).max() <= 1e-15

    def test_cover(self):
        c = three_arcs_cover(30)
        back = jsonio.cover_from_json(jsonio.cover_to_json(c))
        assert back.members == c.members

    def test_element(self):
        rng = np.random.default_rng(81)
        alg = FiniteDimAlgebra([2, 3])
        a = AlgebraElement(
            alg,
            [
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
            ],
        )
        back = jsonio.element_from_json(alg, jsonio.element_to_json(a))
        assert (back - a).norm() <= 1e-15

    def test_cpmap_matrix_codomain(self):
        rng = np.random.default_rng(82)
        phi = rand_cp_contraction(rng, [2, 3], 4)
        back = jsonio.cpmap_from_json(jsonio.cpmap_to_json(phi))
        for i, d in enumerate(phi.domain.block_sizes):
            for j in range(d):
                for k in range(d):
                    diff = back.unit_image(i, j, k) - phi.unit_image(i, j, k)
                    assert diff.norm() <= 1e-15

    def test_approximation_with_function_codomain(self):
        sp = interval_grid(25)
        xs = sp.coords[:, 0]
        approx = build_cp_approx(sp, [xs], eps=0.35)
        back = jsonio.approximation_from_json(
            json.loads(json.dumps(jsonio.approximation_to_json(approx)))
        )
        assert back.error_on(xs) == pytest.approx(approx.error_on(xs), abs=1e-12)
        assert back.weights is not None
        assert np.abs(back.weights - approx.weights).max() <= 1e-15

    def test_schema_errors(self):
        with pytest.raises(jsonio.SchemaError):
            jsonio.space_from_json({"points": 3})
        with pytest.raises(jsonio.SchemaError):
            jsonio.cover_from_json({})
        with pytest.raises(jsonio.SchemaError):
            jsonio.cpmap_from_json({"domain": {"block_sizes": [2]}})


def run_cli(tmp_path, name, payload, *args):
    inp = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}_out.json"
    inp.write_text(json.dumps(payload))
    code = main([*args, "--in", str(inp), "--out", str(out)])
    return code, (out.read_bytes() if out.exists() else b"")


class TestCLI:
    def test_parser_is_built_once(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        payload = {"cover": jsonio.cover_to_json(three_arcs_cover(30))}
        runs = [run_cli(tmp_path, f"arcs{n}", payload, "--seed", str(n), "cover", "order") for n in (3, 0)]
        assert [json.loads(out)["seed"] for _, out in runs] == [3, 0]

    def test_order_zero_prints_the_first_16_witnesses(self, tmp_path):
        phi = rand_cp_contraction(np.random.default_rng(14), [3], 3)
        code, out = run_cli(tmp_path, "cp", {"map": jsonio.cpmap_to_json(phi)}, "cpmap", "order-zero")
        assert code == 0
        want = certify_order_zero_per_unit(jsonio.cpmap_from_json(jsonio.cpmap_to_json(phi)))
        assert len(want.witnesses) > 16
        assert json.loads(out) == {"order_zero": False, "witnesses": want.witnesses[:16], "seed": 0}

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("action", ["order-zero", "order-bounds"])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, action, tol):
        # x -> tr(x)/2 1 on M_2 is not order zero; under --tol nan every
        # defect test came out false and the map was certified
        arr = np.zeros((2, 2, 2, 2), complex)
        arr[0, 0] = arr[1, 1] = np.eye(2) / 2
        payload = {"map": jsonio.cpmap_to_json(CPMap(FiniteDimAlgebra([2]), FiniteDimAlgebra([2]), {(0, 0): arr}))}
        assert run_cli(tmp_path, "trace", payload, "--tol", tol, "cpmap", action) == (2, b"")
        assert f"schema error: --tol must be a finite number >= 0, got {float(tol)!r}" in capsys.readouterr().err
        want = {"order-zero": {"order_zero": False}, "order-bounds": {"lower": 1, "upper": 1, "exact": True}}[action]
        code, out = run_cli(tmp_path, "trace", payload, "cpmap", action)
        assert code == 0 and want.items() <= json.loads(out).items()

    def test_cover_strict_order(self, tmp_path):
        payload = {"cover": jsonio.cover_to_json(three_arcs_cover(60))}
        code, out = run_cli(tmp_path, "arcs", payload, "cover", "strict-order")
        assert code == 0
        assert json.loads(out)["strict_order"] == 2

    def test_cover_refine_drops_strict_order(self, tmp_path):
        c = circle_grid(60)
        payload = {
            "space": jsonio.space_to_json(c),
            "cover": jsonio.cover_to_json(three_arcs_cover(60)),
        }
        code, out = run_cli(tmp_path, "refine", payload, "cover", "refine")
        assert code == 0
        data = json.loads(out)
        assert data["strict_order"] <= data["input_order"]
        assert data["input_strict_order"] == 2

    def test_cover_orders_agree_past_256_point_overlap(self, tmp_path):
        members = [list(range(256)), list(range(256)), list(range(300, 310))]
        code, out = run_cli(tmp_path, "wide", {"cover": {"members": members}}, "cover", "strict-order")
        assert code == 0
        assert json.loads(out)["strict_order"] == 1
        payload = {
            "space": jsonio.space_to_json(interval_grid(310)),
            "cover": {"members": members + [list(range(256, 300))]},
        }
        code, out = run_cli(tmp_path, "wide_refine", payload, "cover", "refine")
        assert code == 0
        data = json.loads(out)
        assert data["input_order"] == 1
        assert data["input_strict_order"] == 1

    def test_cover_check_refines(self, tmp_path):
        payload = {
            "fine": {"members": [[0], [1]]},
            "coarse": {"members": [[0, 1]]},
        }
        code, out = run_cli(tmp_path, "ref", payload, "cover", "check-refines")
        assert code == 0
        assert json.loads(out)["refines"] is True

    def test_malformed_json_exits_2(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text("{not json")
        assert main(["cover", "order", "--in", str(inp)]) == 2

    def test_missing_field_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "mf", {"space": {"metric": [[0]]}}, "cover", "order")
        assert code == 2

    def test_repair_precondition_exits_3(self, tmp_path):
        payload = {
            "kind": "almost-projection",
            "algebra": {"block_sizes": [2]},
            "element": {"blocks": [[[[0.5, 0], [0, 0]], [[0, 0], [1.0, 0]]]]},
            "epsilon": 0.2,
        }
        code, _ = run_cli(tmp_path, "rp", payload, "cpmap", "repair")
        assert code == 3

    def test_extract_cover_failure_exits_4(self, tmp_path):
        space, U, approx = matrix_path_approximation()
        approx = with_scaled_psi_image(approx, 0.5)
        payload = {
            "space": jsonio.space_to_json(space),
            "cover": jsonio.cover_to_json(U),
            "n": 1,
            "approximation": jsonio.approximation_to_json(approx),
        }
        code, _ = run_cli(tmp_path, "x4", payload, "approx", "extract-cover")
        assert code == 4

    def test_strict_order_of_1100_members_through_one_point(self, tmp_path):
        code, out = run_cli(tmp_path, "star", {"cover": {"members": [[0]] * 1100}}, "cover", "strict-order")
        assert code == 0
        result = json.loads(out)
        assert result["strict_order"] == 1099
        assert result["clique"] == list(range(1100))

    def test_failed_self_check_exits_4(self, tmp_path, monkeypatch, capsys):
        def broken(space, cover):
            raise AssertionError("refinement lost points")

        monkeypatch.setattr(cli, "refine_with_strict_order", broken)
        payload = {
            "space": jsonio.space_to_json(circle_grid(12)),
            "cover": jsonio.cover_to_json(three_arcs_cover(12)),
        }
        code, out = run_cli(tmp_path, "selfcheck", payload, "cover", "refine")
        assert code == 4
        assert out == b""
        assert "refinement lost points" in capsys.readouterr().err

    def test_approx_build_and_verify(self, tmp_path):
        sp = interval_grid(41)
        xs = sp.coords[:, 0]
        payload = {
            "space": jsonio.space_to_json(sp),
            "functions": [[[float(v), 0.0] for v in xs]],
            "epsilon": 0.3,
        }
        code, out = run_cli(tmp_path, "build", payload, "approx", "build")
        assert code == 0
        built = json.loads(out)
        assert max(built["report"]["errors"]) <= 0.3
        del built["report"], built["seed"]
        payload2 = {
            "approximation": built,
            "functions": payload["functions"],
            "epsilon": 0.3,
        }
        code2, out2 = run_cli(tmp_path, "verify", payload2, "approx", "verify")
        assert code2 == 0
        rep = json.loads(out2)
        assert rep["within"] and rep["psi"]["cp"] and rep["phi"]["cp"]

    def test_cpmap_stinespring_identity(self, tmp_path):
        phi = rand_cp_contraction(np.random.default_rng(83), [2], 2)
        from conftest import identity_map

        payload = {"map": jsonio.cpmap_to_json(identity_map(2))}
        code, out = run_cli(tmp_path, "st", payload, "cpmap", "stinespring")
        assert code == 0
        assert json.loads(out)["isometry"] is True

    def test_cpmap_stinespring_large_map(self, tmp_path):
        # phi(x) = 1e150 tr(x) 1 on M_2: its dilation's rounding is far above 1e-9
        alg = FiniteDimAlgebra([2])
        arr = np.zeros((2, 2, 2, 2), complex)
        arr[0, 0] = arr[1, 1] = 1e150 * np.eye(2)
        payload = {"map": jsonio.cpmap_to_json(CPMap(alg, alg, {(0, 0): arr}))}
        code, out = run_cli(tmp_path, "big", payload, "cpmap", "stinespring")
        assert code == 0
        assert json.loads(out)["multiplicities"] == [4]

    def test_cpmap_order_bounds_trace(self, tmp_path):
        from test_cpmaps import trace_map

        payload = {"map": jsonio.cpmap_to_json(trace_map(2))}
        code, out = run_cli(tmp_path, "ob", payload, "cpmap", "order-bounds")
        assert code == 0
        data = json.loads(out)
        assert (data["lower"], data["upper"]) == (1, 1)

    def test_cpmap_decompose(self, tmp_path):
        rng = np.random.default_rng(84)
        phi = rand_order_zero(rng, [2], 2)
        payload = {"map": jsonio.cpmap_to_json(phi)}
        code, out = run_cli(tmp_path, "dec", payload, "cpmap", "decompose")
        assert code == 0
        data = json.loads(out)
        assert data["reconstruction_defect"] <= 1e-9
        assert len(data["blocks"]) == 1

    def test_determinism_two_runs(self, tmp_path):
        sp = interval_grid(31)
        xs = sp.coords[:, 0]
        payload = {
            "space": jsonio.space_to_json(sp),
            "functions": [[[float(v), 0.0] for v in xs]],
            "epsilon": 0.25,
        }
        _, out1 = run_cli(tmp_path, "d1", payload, "--seed", "5", "approx", "build")
        _, out2 = run_cli(tmp_path, "d2", payload, "--seed", "5", "approx", "build")
        assert out1 == out2


# A map's unit records are malformed when they are not a list, an index leaves
# the domain, the blocks do not match the codomain, or an entry is not a finite
# number.  Each case edits the dense form of a valid map.
MALFORMED = {
    "not_a_list": lambda m: m.update(unit_images=5),
    "row_negative": lambda m: m["unit_images"][0].update(row=-1),
    "block_negative": lambda m: m["unit_images"][0].update(block=-1),
    "block_fraction": lambda m: m["unit_images"][0].update(block=0.7),
    "row_bool": lambda m: m["unit_images"][0].update(row=True),
    "col_string": lambda m: m["unit_images"][0].update(col="0"),
    "block_count": lambda m: m["unit_images"][0]["value"]["blocks"].append([[[0.0, 0.0]]]),
    "block_shape": lambda m: m["unit_images"][0]["value"]["blocks"][0].pop(),
    "ragged_rows": lambda m: m["unit_images"][0]["value"]["blocks"][0][0].pop(),
    "overflow": lambda m: m["unit_images"][0]["value"]["blocks"][0][0][0].__setitem__(0, "OVERFLOW"),
    "nan": lambda m: m["unit_images"][0]["value"]["blocks"][0][0][0].__setitem__(1, float("nan")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_unit_record_exits_2(tmp_path, case, capsys):
    phi = rand_cp_contraction(np.random.default_rng(85), [2, 1], 2)
    payload = {"map": {**jsonio.cpmap_to_json(phi), "unit_images": unit_records_dense(phi)}}
    MALFORMED[case](payload["map"])
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(payload).replace('"OVERFLOW"', "1e400"))
    assert main(["cpmap", "choi", "--in", str(inp)]) == 2
    assert "schema error" in capsys.readouterr().err


# Readers of spaces, covers, maps and function values given the wrong types or
# non-finite numbers, and a cover point outside its space: (command, payload,
# exit code).  "OVERFLOW" is written as 1e400, which JSON reads as an infinite
# float; json writes inf and nan as Infinity and NaN, which it reads back.
SPACE3 = {"metric": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]}
MAP1 = {"domain": {"block_sizes": [1]}, "codomain": {"matrix": 1}, "unit_images": []}
INF, NAN = float("inf"), float("nan")
CHAIN3 = {"members": [[0, 2], [1, 2]]}
# an approximation over SPACE3, and verify and extract-cover payloads around it
APPROX3 = json.loads(json.dumps(jsonio.approximation_to_json(
    build_cp_approx(jsonio.space_from_json(SPACE3), [np.arange(3.0)], eps=0.5)
)))
SPACE4 = {"metric": [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, 1.0], [3.0, 2.0, 1.0, 0.0]]}


def _verify(**approx):
    return {"approximation": {**APPROX3, **approx}, "functions": [[0.0, 1.0, 2.0]], "epsilon": 0.5}


def _extract(**fields):
    return {"space": SPACE3, "cover": CHAIN3, "n": 1, "approximation": APPROX3, **fields}


def _sparse(**value):
    """cpmap choi on a map whose one unit record has ``value`` over the codomain
    blocks [1, 2, 1]."""
    record = {"block": 0, "row": 0, "col": 0, "value": value}
    codomain = {"algebra": {"block_sizes": [1, 2, 1]}}
    return ("cpmap", "choi"), {"map": {**MAP1, "codomain": codomain, "unit_images": [record]}}, 2


ONE, TWO = [[[1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, -0.0]]]
ALMOST_PROJECTION = {"kind": "almost-projection", "algebra": {"block_sizes": [1]}, "element": {"blocks": [ONE]}}

BAD_INPUT = {
    "metric_infinite": (("cover", "refine"), {"space": {"metric": [[0, INF, 1], [INF, 0, 1], [1, 1, 0]]}, "cover": CHAIN3}, 2),
    "metric_nan": (("cover", "refine"), {"space": {"metric": [[0, NAN, 1], [NAN, 0, 1], [1, 1, 0]]}, "cover": CHAIN3}, 2),
    "coords_infinite": (("cover", "refine"), {"space": {"metric": "euclidean", "coords": [[0.0], [INF], [1.0]]}, "cover": CHAIN3}, 2),
    "coords_nan": (("cover", "refine"), {"space": {"metric": "euclidean", "coords": [[0.0], [NAN], [1.0]]}, "cover": CHAIN3}, 2),
    "coords_string": (("cover", "refine"), {"space": {"metric": "euclidean", "coords": [[0.0], ["x"], [1.0]]}, "cover": CHAIN3}, 2),
    "coords_scalar": (("cover", "refine"), {"space": {"metric": "euclidean", "coords": 5}, "cover": CHAIN3}, 2),
    "coords_empty": (("cover", "refine"), {"space": {"metric": "euclidean", "coords": []}, "cover": {"members": []}}, 2),
    "coords_overflow": (("approx", "build"), {"space": {"metric": "euclidean", "coords": [1e300, -1e300]}, "functions": [[0.0, 1.0]], "epsilon": 0.5}, 2),
    "labels_too_few": (("cover", "order"), {"cover": {"members": [[0], [1]], "labels": ["a"]}}, 2),
    "labels_too_many": (("cover", "nerve"), {"cover": {"members": [[0], [1]], "labels": ["a", "b", "c"]}}, 2),
    "matrix_size_string": (("cpmap", "choi"), {"map": {**MAP1, "codomain": {"matrix": "x"}}}, 2),
    "matrix_size_fraction": (("cpmap", "choi"), {"map": {**MAP1, "codomain": {"matrix": 2.5}}}, 2),
    "matrix_size_bool": (("cpmap", "choi"), {"map": {**MAP1, "codomain": {"matrix": True}}}, 2),
    "matdim_string": (("cpmap", "choi"), {"map": {**MAP1, "codomain": {"space": SPACE3, "matdim": "x"}}}, 2),
    "matdim_fraction": (("cpmap", "choi"), {"map": {**MAP1, "codomain": {"space": SPACE3, "matdim": 2.5}}}, 2),
    "matdim_bool": (("cpmap", "choi"), {"map": {**MAP1, "codomain": {"space": SPACE3, "matdim": True}}}, 2),
    "block_sizes_fraction": (("cpmap", "choi"), {"map": {**MAP1, "domain": {"block_sizes": [2.5]}}}, 2),
    "block_sizes_bool": (("cpmap", "choi"), {"map": {**MAP1, "domain": {"block_sizes": [True]}}}, 2),
    "block_sizes_string": (("cpmap", "choi"), {"map": {**MAP1, "domain": {"block_sizes": ["x"]}}}, 2),
    "block_sizes_zero": (("cpmap", "choi"), {"map": {**MAP1, "domain": {"block_sizes": [0]}}}, 2),
    "block_sizes_empty": (("cpmap", "choi"), {"map": {**MAP1, "domain": {"block_sizes": []}}}, 2),
    "codomain_block_sizes_empty": (("cpmap", "choi"), {"map": {**MAP1, "codomain": {"algebra": {"block_sizes": []}}}}, 2),
    "members_not_list": (("cover", "order"), {"cover": {"members": 5}}, 2),
    "member_not_list": (("cover", "order"), {"cover": {"members": [[0], 5]}}, 2),
    "labels_not_list": (("cover", "order"), {"cover": {"members": [[0], [1]], "labels": "ab"}}, 2),
    "labels_not_strings": (("cover", "nerve"), {"cover": {"members": [[0], [1], [2]], "labels": [1, None, [1, 2]]}}, 2),
    "point_string": (("cover", "order"), {"cover": {"members": [[0, "a"]]}}, 2),
    "point_fraction": (("cover", "order"), {"cover": {"members": [[0.7]]}}, 2),
    "point_negative": (("cover", "order"), {"cover": {"members": [[-1, 0]]}}, 2),
    "point_bool": (("cover", "order"), {"cover": {"members": [[True]]}}, 2),
    "point_outside_space": (("cover", "refine"), {"space": SPACE3, "cover": {"members": [[0, 5], [1, 2]]}}, 3),
    "point_beyond_int64": (("cover", "refine"), {"space": SPACE3, "cover": {"members": [[0, 1, 2], [10**30]]}}, 3),
    "codomain_not_object": (("cpmap", "choi"), {"map": {**MAP1, "codomain": 5}}, 2),
    "codomain_string": (("cpmap", "choi"), {"map": {**MAP1, "codomain": "matrix"}}, 2),
    "function_not_list": (("approx", "build"), {"space": SPACE3, "functions": [5], "epsilon": 0.5}, 2),
    "value_string": (("approx", "build"), {"space": SPACE3, "functions": [[1.0, "x", 0.0]], "epsilon": 0.5}, 2),
    "pair_string": (("approx", "build"), {"space": SPACE3, "functions": [[[1.0, "x"], 0.0, 0.0]], "epsilon": 0.5}, 2),
    "value_overflow": (("approx", "build"), {"space": SPACE3, "functions": [[1.0, "OVERFLOW", 0.0]], "epsilon": 0.5}, 2),
    "value_huge_int": (("approx", "build"), {"space": SPACE3, "functions": [[1.0, 10**400, 0.0]], "epsilon": 0.5}, 2),
    "pair_overflow": (("approx", "build"), {"space": SPACE3, "functions": [[[0.0, "OVERFLOW"], 0.0, 0.0]], "epsilon": 0.5}, 2),
    "points_string": (("approx", "verify"), _verify(points=["1", 2, 0]), 2),
    "points_fraction": (("approx", "verify"), _verify(points=[0, 2.9]), 2),
    "points_bool": (("approx", "verify"), _verify(points=[True]), 2),
    "points_outside_space": (("approx", "verify"), _verify(points=[0, 3]), 2),
    "points_negative": (("approx", "verify"), _verify(points=[-1]), 2),
    "points_not_list": (("approx", "verify"), _verify(points=5), 2),
    "F_not_phi_domain": (("approx", "verify"), _verify(F={"block_sizes": [7]}), 2),
    "F_not_psi_codomain": (("approx", "verify"), _verify(psi={**APPROX3["psi"], "codomain": {"algebra": {"block_sizes": [7]}}, "unit_images": []}), 2),
    "psi_domain_not_functions": (("approx", "verify"), _verify(psi={**APPROX3["psi"], "domain": {"block_sizes": [1] * 4}}), 2),
    "extract_F_mismatch": (("approx", "extract-cover"), _extract(approximation={**APPROX3, "F": {"block_sizes": [2]}}), 2),
    "extract_space_mismatch": (("approx", "extract-cover"), _extract(space=SPACE4, cover={"members": [[0, 1, 2, 3]]}), 2),
    "n_fraction": (("approx", "extract-cover"), _extract(n=1.9), 2),
    "n_string": (("approx", "extract-cover"), _extract(n="x"), 2),
    "n_bool": (("approx", "extract-cover"), _extract(n=True), 2),
    "n_negative": (("approx", "extract-cover"), _extract(n=-1), 2),
    "n_huge": (("approx", "extract-cover"), _extract(n=10**6), 4),
    "r_fraction": (("approx", "tensor"), {"approximation": APPROX3, "r": 1.9}, 2),
    "r_zero": (("approx", "tensor"), {"approximation": APPROX3, "r": 0}, 2),
    "r_above_max_block": (("--max-block", "2", "approx", "tensor"), {"approximation": APPROX3, "r": 3}, 2),
    "sparse_repeated": _sparse(sparse=[[0, ONE], [0, ONE]]),
    "sparse_out_of_range": _sparse(sparse=[[0, ONE], [3, ONE]]),
    "sparse_huge_index": _sparse(sparse=[[10**30, ONE]]),
    "sparse_negative": _sparse(sparse=[[-1, ONE]]),
    "sparse_index_bool": _sparse(sparse=[[True, ONE]]),
    "sparse_index_fraction": _sparse(sparse=[[0.5, ONE]]),
    "sparse_index_string": _sparse(sparse=[["0", ONE]]),
    "sparse_unsorted": _sparse(sparse=[[2, ONE], [0, ONE]]),
    "sparse_shape": _sparse(sparse=[[1, ONE]]),
    "sparse_shape_too_big": _sparse(sparse=[[0, TWO]]),
    "sparse_nan": _sparse(sparse=[[1, [[[1.0, NAN], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]]),
    "sparse_overflow": _sparse(sparse=[[0, [[["OVERFLOW", 0.0]]]]]),
    "sparse_not_list": _sparse(sparse=5),
    "sparse_object": _sparse(sparse={"0": ONE}),
    "sparse_bare_index": _sparse(sparse=[0]),
    "sparse_short_pair": _sparse(sparse=[[0]]),
    "sparse_long_pair": _sparse(sparse=[[0, ONE, 1]]),
    "sparse_and_blocks": _sparse(sparse=[[0, ONE]], blocks=[ONE, TWO, ONE]),
    "neither_sparse_nor_blocks": _sparse(),
    "element_sparse_repeated": (("cpmap", "repair"), {**ALMOST_PROJECTION, "element": {"sparse": [[0, ONE], [0, ONE]]}, "epsilon": 0.1}, 2),
    "epsilon_string": (("approx", "build"), {"space": SPACE3, "functions": [[0.0, 1.0, 2.0]], "epsilon": "0.5"}, 2),
    "epsilon_bool": (("approx", "build"), {"space": SPACE3, "functions": [[0.0, 1.0, 2.0]], "epsilon": True}, 2),
    "epsilon_word": (("approx", "build"), {"space": SPACE3, "functions": [[0.0, 1.0, 2.0]], "epsilon": "x"}, 2),
    "epsilon_overflow": (("approx", "build"), {"space": SPACE3, "functions": [[0.0, 1.0, 2.0]], "epsilon": "OVERFLOW"}, 2),
    "epsilon_nan": (("approx", "build"), {"space": SPACE3, "functions": [[0.0, 1.0, 2.0]], "epsilon": NAN}, 2),
    "verify_epsilon_string": (("approx", "verify"), {**_verify(), "epsilon": "0.5"}, 2),
    "verify_epsilon_null": (("approx", "verify"), {**_verify(), "epsilon": None}, 2),
    "repair_epsilon_string": (("cpmap", "repair"), {**ALMOST_PROJECTION, "epsilon": "0.1"}, 2),
    "repair_epsilon_bool": (("cpmap", "repair"), {**ALMOST_PROJECTION, "epsilon": True}, 2),
    "gamma_string": (("cpmap", "repair"), {"kind": "order-zero-map", "map": MAP1, "gamma": "0.1"}, 2),
    "gamma_bool": (("cpmap", "repair"), {"kind": "order-zero-map", "map": MAP1, "gamma": False}, 2),
    "gamma_list": (("cpmap", "repair"), {"kind": "order-zero-map", "map": MAP1, "gamma": [0.1]}, 2),
    "scales_string": (("approx", "estimate"), {"space": SPACE3, "scales": ["0.1"]}, 2),
    "scales_bool": (("approx", "estimate"), {"space": SPACE3, "scales": [0.1, True]}, 2),
    "scales_not_list": (("approx", "estimate"), {"space": SPACE3, "scales": 0.1}, 2),
    "scales_infinite": (("approx", "estimate"), {"space": SPACE3, "scales": [INF]}, 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exit_code(tmp_path, case):
    command, payload, code = BAD_INPUT[case]
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(payload).replace('"OVERFLOW"', "1e400"))
    assert main([*command, "--in", str(inp)]) == code


def test_function_values_keep_their_bits():
    data = [[0.0, -0.0, 1, 5e-324], [[-0.0, 0.0], [1, -2.5], [0.0, -0.0]], [1.0, [0.5, -0.0], -0.0], []]
    for f, got in zip(data, cli._functions_from(data)):
        want = np.array([complex(v[0], v[1]) if isinstance(v, list) else float(v) for v in f])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# exact zeros of both signs, extremes and plain values; blocks and units are
# often zero as a whole, as in the mostly-zero images of C(X)
ENTRIES = [0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, 1e-300, 3e300]


@st.composite
def algebras_and_rng(draw):
    """A domain of 1-3 blocks, a codomain of 1-5 blocks with repeated sizes,
    both of sizes 1-3, and a seeded generator."""
    dom = FiniteDimAlgebra(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    cod = FiniteDimAlgebra(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    return dom, cod, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def sparse_complex(rng, shape):
    parts = [np.where(rng.random(shape) < 0.5, rng.choice(ENTRIES, shape), rng.normal(size=shape)) for _ in "ri"]
    out = parts[0] + 1j * parts[1]
    out.real, out.imag = parts  # 1j * x would turn -0.0 into 0.0
    return np.where(rng.random(shape[:-2] + (1, 1)) < 0.6, out, rng.choice([0.0, -0.0]))


def random_map(dom, cod, rng):
    images = {}
    for i in rng.permutation(dom.num_blocks):
        for c in rng.permutation(cod.num_blocks):
            d, r = dom.block_sizes[i], cod.block_sizes[c]
            images[(int(i), int(c))] = sparse_complex(rng, (d, d, r, r))
    return CPMap(dom, cod, images)


def same_bits(stacks, ref):
    return len(stacks) == len(ref) and all(a.tobytes() == b.tobytes() for a, b in zip(stacks, ref))


class TestDifferential:
    @PROPERTY
    @given(algebras_and_rng())
    def test_reader_matches_per_entry_reader(self, case):
        dom, cod, rng = case
        records = []
        for _ in range(int(rng.integers(0, 9))):
            if records and rng.random() < 0.25:
                records.append(records[int(rng.integers(len(records)))])
                continue
            i = int(rng.integers(dom.num_blocks))
            j, k = rng.integers(dom.block_sizes[i], size=2).tolist()
            blocks = sparse_complex(rng, (cod.num_blocks, 3, 3))
            value = [jsonio.matrix_to_json(b[:r, :r]) for b, r in zip(blocks, cod.block_sizes)]
            records.append({"block": i, "row": j, "col": k, "value": {"blocks": value}})
        codomain = {"algebra": {"block_sizes": list(cod.block_sizes)}}
        data = json.loads(json.dumps({"domain": {"block_sizes": list(dom.block_sizes)}, "codomain": codomain, "unit_images": records}))
        got, ref = jsonio.cpmap_from_json(data), cpmap_from_json_per_entry(data)
        assert list(got.images) == list(ref.images)
        assert same_bits(list(got.images.values()), list(ref.images.values()))
        for rec in data["unit_images"]:
            ref = element_from_json_per_entry(cod, rec["value"])
            assert same_bits(jsonio.element_from_json(cod, rec["value"]).stacks, ref.stacks)

    @PROPERTY
    @given(algebras_and_rng())
    def test_unit_images_match_apply(self, case):
        phi = random_map(*case)
        ref_records = []
        for i, d in enumerate(phi.domain.block_sizes):
            stacks = unit_stacks(phi, i)
            for j, k in np.ndindex(d, d):
                ref = unit_image_apply(phi, i, j, k)
                assert same_bits(phi.unit_image(i, j, k).stacks, ref.stacks)
                assert same_bits([s[:, j, k] for s in stacks], ref.stacks)
                if any(np.any(s) for s in ref.stacks):
                    blocks = [[[[float(z.real), float(z.imag)] for z in row] for row in b] for b in ref.blocks]
                    sparse = [[c, blk] for c, (blk, b) in enumerate(zip(blocks, ref.blocks)) if np.any(b)]
                    ref_records.append({"block": i, "row": j, "col": k, "value": {"sparse": sparse}})
        assert json.dumps(jsonio.unit_records(phi)) == json.dumps(ref_records)


    @pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (2, 3, 2, 1, 3)])
    def test_unit_records_match_list_slices(self, sizes):
        # each record lists the blocks of the dense list form that are not
        # all zero, with their indices, for one size group or several
        rng = np.random.default_rng(len(sizes))
        phi = random_map(FiniteDimAlgebra((2, 1)), FiniteDimAlgebra(sizes), rng)
        records = jsonio.unit_records(phi)
        ref_records = []
        for i, d in enumerate(phi.domain.block_sizes):
            units = [np.ascontiguousarray(s.transpose(1, 2, 0, 3, 4)) for s in unit_stacks(phi, i)]
            units = [u.view(float).reshape(u.shape + (2,)).tolist() for u in units]
            for j, k in np.ndindex(d, d):
                blocks = [units[g][j][k][n] for g, n in phi.codomain.block_slots]
                if np.any(np.concatenate([np.ravel(blk) for blk in blocks])):
                    sparse = [[c, blk] for c, blk in enumerate(blocks) if np.any(blk)]
                    ref_records.append({"block": i, "row": j, "col": k, "value": {"sparse": sparse}})
        assert records == ref_records
        assert len(records) > 0
        for rec, ref in zip(records, ref_records):
            assert jsonio.dumps(rec) == jsonio.dumps(ref)

    @PROPERTY
    @given(algebras_and_rng())
    def test_sparse_reader_matches_per_entry_reader(self, case):
        # listed blocks keep their bits, -0.0 and whole-zero blocks among them;
        # blocks left out read as +0.0, as in the dense equivalent
        _, cod, rng = case
        blocks = sparse_complex(rng, (cod.num_blocks, 3, 3))
        listed = np.flatnonzero(rng.random(cod.num_blocks) < 0.6).tolist()
        dense, sparse = [], []
        for c, (b, r) in enumerate(zip(blocks, cod.block_sizes)):
            entries = jsonio.matrix_to_json(b[:r, :r] if c in listed else np.zeros((r, r)))
            dense.append(entries)
            if c in listed:
                sparse.append([c, entries])
        data = json.loads(jsonio.dumps({"blocks": dense, "sparse": sparse}))
        got = jsonio.element_from_json(cod, {"sparse": data["sparse"]})
        assert same_bits(got.stacks, element_from_json_per_entry(cod, {"blocks": data["blocks"]}).stacks)
        assert same_bits(got.stacks, jsonio.element_from_json(cod, {"blocks": data["blocks"]}).stacks)

    @PROPERTY
    @given(algebras_and_rng())
    def test_sparse_round_trip_matches_dense_round_trip(self, case):
        phi = random_map(*case)
        text = jsonio.dumps(jsonio.cpmap_to_json(phi))
        dense = json.loads(json.dumps({**json.loads(text), "unit_images": unit_records_dense(phi)}))
        got, ref = jsonio.cpmap_from_json(json.loads(text)), jsonio.cpmap_from_json(dense)
        assert "blocks" not in text
        assert list(got.images) == list(ref.images) == list(cpmap_from_json_per_entry(dense).images)
        assert same_bits(list(got.images.values()), list(ref.images.values()))


def test_sparse_element_reads_as_its_dense_form(tmp_path):
    # the control for the sparse BAD_INPUT cases: their payload is valid but
    # for the one defect each introduces
    command, payload, _ = _sparse(sparse=[[0, ONE], [1, TWO]])
    dense = json.loads(json.dumps(payload))
    dense["map"]["unit_images"][0]["value"] = {"blocks": [ONE, TWO, [[[0.0, 0.0]]]]}
    outs = [run_cli(tmp_path, name, p, *command) for name, p in (("sparse", payload), ("dense", dense))]
    assert outs[0] == outs[1] and outs[0][0] == 0


FUZZ_NUMBER = st.one_of(st.floats(-10, 10), st.floats(-1e308, 1e308), st.sampled_from([-1e300, 1e300, 1e308]))


def fuzz_coords(depth: int):
    """A ``coords`` field nested ``depth`` deep: a number, or a list of 0-6 fields one level down."""
    return FUZZ_NUMBER if depth == 0 else st.lists(fuzz_coords(depth - 1), max_size=6)


# ragged nestings 0-3 deep, and 0-6 points of a common dimension 1-3
FUZZ_SPACE = st.one_of(
    st.integers(0, 3).flatmap(fuzz_coords),
    st.integers(1, 3).flatmap(lambda k: st.lists(st.lists(FUZZ_NUMBER, min_size=k, max_size=k), max_size=6)),
).map(lambda c: {"metric": "euclidean", "coords": c})
FUZZ_COVER = st.lists(st.lists(st.integers(0, 6), max_size=4), max_size=4).map(lambda m: {"members": m})
FUZZ_VALUES = st.lists(st.lists(st.floats(-10, 10), max_size=6), min_size=1, max_size=2)
# per command, inputs valid and invalid over the fields coords, n and r
FUZZ = {
    "cover refine": st.fixed_dictionaries({"space": FUZZ_SPACE, "cover": FUZZ_COVER}),
    "approx build": st.fixed_dictionaries({"space": FUZZ_SPACE, "functions": FUZZ_VALUES, "epsilon": st.just(0.5)}),
    "approx extract-cover": st.builds(
        lambda space, n: _extract(space=space, n=n), st.one_of(st.just(SPACE3), FUZZ_SPACE), st.integers(0, 10**6)
    ),
    "--max-block 2 approx tensor": st.builds(lambda r: {"approximation": APPROX3, "r": r}, st.integers(1, 4)),
}


@pytest.mark.parametrize("command", sorted(FUZZ))
@settings(
    max_examples=50, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # each example overwrites its files
)
@given(data=st.data())
def test_schema_fuzz_exits_with_a_documented_code(tmp_path, command, data):
    code, _ = run_cli(tmp_path, "fuzz", data.draw(FUZZ[command]), *command.split())
    assert code in (0, 2, 3, 4)
