"""Serialization round trips and the CLI contract (schemas, exit codes, determinism)."""

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprank import (
    AlgebraElement,
    CPMap,
    Cover,
    FiniteDimAlgebra,
    ball_cover,
    build_cp_approx,
    circle_grid,
    interval_grid,
    torus_grid,
)
from cprank import cli, jsonio
from cprank.cli import main
from cprank.cpmaps import unit_stacks

from conftest import (
    interval_chain_cover,
    matrix_path_approximation,
    rand_complex,
    rand_cp_contraction,
    rand_order_zero,
    three_arcs_cover,
    with_scaled_psi_image,
)
from oracles import (
    apply_one_element,
    certify_order_zero_per_unit,
    cpmap_from_json_per_entry,
    cpmap_from_json_per_key,
    element_from_json_per_entry,
    layout_per_key,
    unit_image_apply,
    unit_records_dense,
    unit_records_per_key,
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

    def test_approximation_read_builds_each_algebra_once(self):
        # one algebra per block sizes, whatever the cap it was read under, shared by F,
        # psi and phi and by later reads
        back = jsonio.approximation_from_json(APPROX3)
        assert back.F is back.psi.codomain is back.phi.domain
        assert back.psi.domain is back.phi.codomain
        again = jsonio.approximation_from_json(APPROX3)
        assert again.F is back.F and again.psi.domain is back.psi.domain and again.phi.codomain is back.phi.codomain

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
    def test_import_loads_no_scipy(self):
        # each CLI command is a fresh process, which would pay for importing scipy
        probe = "import sys, cprank.cli, cprank; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_choi_of_a_two_block_codomain_keeps_its_bytes(self, tmp_path):
        # M_2 + C into M_2 + M_3: block 0 goes to 0.5 x + 0.25 tr(x) 1 and tr(x) Q, block 1 to R
        # alone, so the second Choi matrix has a zero corner; every Choi eigenvalue is positive
        # or an exact zero, so min_eigenvalue is 0.0 and the bytes are the direct sums' alone
        q = [[[0.5, 0], [0, 0.25], [0, 0]], [[0, -0.25], [0.5, 0], [0.125, 0]], [[0, 0], [0.125, 0], [0.25, 0]]]
        r = [[[0.75, 0], [0.125, -0.25], [0, 0]], [[0.125, 0.25], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0.375, 0]]]

        def m2(j, k):
            return [[[0.5 * (a == j and b == k) + 0.25 * (a == b and j == k), 0] for b in range(2)] for a in range(2)]

        records = [
            {"block": 0, "row": j, "col": k, "value": {"sparse": [[0, m2(j, k)]] + ([[1, q]] if j == k else [])}}
            for j in range(2)
            for k in range(2)
        ] + [{"block": 1, "row": 0, "col": 0, "value": {"sparse": [[1, r]]}}]
        head = {"domain": {"block_sizes": [2, 1]}, "codomain": {"algebra": {"block_sizes": [2, 3]}}}
        code, out = run_cli(tmp_path, "two", {"map": {**head, "unit_images": records}}, "cpmap", "choi")
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == "58c7df4c38040e6be448bc358264fad196c1da87773b6132c01ef0e450f6dc0d"

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

    @pytest.mark.parametrize("flag, value, low", [("--seed", "-1", 0), ("--max-block", "0", 1), ("--max-block", "-3", 1)])
    def test_seed_and_max_block_bounds_name_the_flag(self, tmp_path, capsys, flag, value, low):
        assert run_cli(tmp_path, "flag", {"cover": CHAIN3}, flag, value, "cover", "order") == (2, b"")
        assert f"schema error: {flag} must be an integer >= {low}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "domain, codomain, block, size, message",
        [
            ([1], {"matrix": 65}, 0, 65, "block size 65"),
            ([1], {"space": {"metric": [[0.0]]}, "matdim": 65}, 0, 65, "block size 65"),
            ([1], {"algebra": {"block_sizes": [1, 70, 65]}}, 2, 65, "block size 70"),
            ([2, 65], {"matrix": 1}, 0, 1, "block size 65"),
        ],
        ids=["codomain0", "codomain1", "codomain2", "domain"],
    )
    def test_codomain_block_size_obeys_max_block(self, tmp_path, capsys, domain, codomain, block, size, message):
        # e_00 of domain block 0 onto the identity of codomain block ``block`` of
        # ``size``: into a matrix codomain, the functions on one point, or a block
        # algebra, whose message names the first block above the cap; or out of
        # a domain with a block above it
        unit = {"block": 0, "row": 0, "col": 0, "value": {"sparse": [[block, jsonio.matrix_to_json(np.eye(size))]]}}
        payload = {"map": {"domain": {"block_sizes": domain}, "codomain": codomain, "unit_images": [unit]}}
        assert run_cli(tmp_path, "capped", payload, "cpmap", "choi") == (3, b"")
        assert f"precondition failure: {message} exceeds cap 64" in capsys.readouterr().err
        code, out = run_cli(tmp_path, "wide", payload, "--max-block", "128", "cpmap", "choi")
        assert code == 0 and json.loads(out)["psd"]

    def test_tensor_output_above_64_reads_back_under_its_max_block(self, tmp_path):
        # an approximation of 65x65 functions on one point through C, as tensor writes it for r = 65
        approx = {
            "F": {"block_sizes": [1]},
            "psi": {"domain": {"block_sizes": [65]}, "codomain": {"matrix": 1}, "unit_images": []},
            "phi": {
                "domain": {"block_sizes": [1]},
                "codomain": {"space": {"metric": [[0.0]]}, "matdim": 65},
                "unit_images": [],
            },
        }
        code, out = run_cli(tmp_path, "wide", {"approximation": approx, "r": 1}, "--max-block", "128", "approx", "tensor")
        assert code == 0 and json.loads(out)["phi"]["codomain"]["matdim"] == 65
        assert run_cli(tmp_path, "capped", {"approximation": approx, "r": 1}, "approx", "tensor") == (3, b"")

    def test_sum_of_blocks_above_64_reads_back_under_its_max_block(self, tmp_path, capsys):
        # C(pt) into one 65x65 block by f -> f e_00, and back by x -> x_00
        e00 = np.zeros((65, 65))
        e00[0, 0] = 1
        approx = {
            "F": {"block_sizes": [65]},
            "psi": {
                "domain": {"block_sizes": [1]},
                "codomain": {"matrix": 65},
                "unit_images": [{"block": 0, "row": 0, "col": 0, "value": {"sparse": [[0, jsonio.matrix_to_json(e00)]]}}],
            },
            "phi": {
                "domain": {"block_sizes": [65]},
                "codomain": {"space": {"metric": [[0.0]]}, "matdim": 1},
                "unit_images": [{"block": 0, "row": 0, "col": 0, "value": {"sparse": [[0, [[[1.0, 0.0]]]]]}}],
            },
        }
        payload = {"first": approx, "second": approx}
        assert run_cli(tmp_path, "capped", payload, "approx", "sum") == (3, b"")
        assert "precondition failure: block size 65 exceeds cap 64" in capsys.readouterr().err
        code, out = run_cli(tmp_path, "wide", payload, "--max-block", "128", "approx", "sum")
        assert code == 0
        total = json.loads(out)
        assert total["F"] == {"block_sizes": [65, 65]}
        # the sum's output reads back as a summand
        back = {"first": total, "second": total}
        code, out = run_cli(tmp_path, "back", back, "--max-block", "128", "approx", "sum")
        assert code == 0 and json.loads(out)["F"] == {"block_sizes": [65] * 4}
        assert run_cli(tmp_path, "back_capped", back, "approx", "sum") == (3, b"")

    def test_cover_strict_order(self, tmp_path):
        payload = {"cover": jsonio.cover_to_json(three_arcs_cover(60))}
        code, out = run_cli(tmp_path, "arcs", payload, "cover", "strict-order")
        assert code == 0
        assert json.loads(out)["strict_order"] == 2

    def test_strict_order_clique_is_a_maximum_clique(self, tmp_path):
        # which maximum clique is printed is not pinned, only that it is one
        cover = ball_cover(torus_grid(10, 10), 0.35)
        code, out = run_cli(tmp_path, "torus", {"cover": jsonio.cover_to_json(cover)}, "cover", "strict-order")
        assert code == 0
        result = json.loads(out)
        assert result["strict_order"] == 40
        assert len(set(result["clique"])) == 41
        for a, b in combinations(result["clique"], 2):
            assert cover.members[a] & cover.members[b]

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

    @pytest.mark.parametrize(
        "name, expect",
        [
            ("torus", [2, 3, 4, 5, 6, 7, 8, 13, 14, 15, 16, 17, 24, 25, 26, 35, 55, 64, 65, 66, 73, 74, 75,
                       76, 77, 82, 83, 84, 85, 86, 87, 88, 91, 92, 93, 94, 95, 96, 97, 98, 99]),
            ("shuffled_interval", [0, 25, 49, 57, 69, 105, 110]),
        ],
    )
    def test_strict_order_clique_is_pinned(self, tmp_path, name, expect):
        """The printed cliques that the search on a degree-sorted bool matrix
        gave: the mask search keeps its vertex order, relabelled (interval,
        unequal degrees) or not (torus, equal degrees)."""
        if name == "torus":
            cover = ball_cover(torus_grid(10, 10), 0.35)
        else:
            base = ball_cover(interval_grid(120), 3.4 / 119).members
            cover = Cover([base[i] for i in np.random.default_rng(28).permutation(len(base))])
        code, out = run_cli(tmp_path, name, {"cover": jsonio.cover_to_json(cover)}, "cover", "strict-order")
        assert code == 0
        assert json.loads(out) == {"clique": expect, "seed": 0, "strict_order": len(expect) - 1}

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
# a map out of M_2 + C that is not order zero: order-bounds runs the seeded witness search
MAP21 = json.loads(json.dumps(jsonio.cpmap_to_json(rand_cp_contraction(np.random.default_rng(0), [2, 1], 2))))
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
    "value_bool": (("approx", "build"), {"space": SPACE3, "functions": [[1.0, True, 0.0]], "epsilon": 0.5}, 2),
    "pair_bool": (("approx", "build"), {"space": SPACE3, "functions": [[[1, True], 0.0, 0.0]], "epsilon": 0.5}, 2),
    "pair_too_long": (("approx", "build"), {"space": SPACE3, "functions": [[[1, 2, 3], 0.0, 0.0]], "epsilon": 0.5}, 2),
    "pair_huge_int": (("approx", "build"), {"space": SPACE3, "functions": [[[10**399, 0.0], 0.0, 0.0]], "epsilon": 0.5}, 2),
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
    "seed_negative_witness_search": (("--seed", "-1", "cpmap", "order-bounds"), {"map": MAP21}, 2),
    "seed_negative_unused": (("--seed", "-1", "cover", "order"), {"cover": CHAIN3}, 2),
    "max_block_zero": (("--max-block", "0", "cpmap", "choi"), {"map": MAP1}, 2),
    "max_block_negative": (("--max-block", "-1", "approx", "verify"), _verify(), 2),
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
    # entries past half the largest double, where the hermitian part and the asymmetry must not overflow
    "element_huge": (("cpmap", "repair"), {**ALMOST_PROJECTION, "element": {"blocks": [[[[1.7e308, 0.0]]]]}, "epsilon": 0.1}, 3),
    "element_huge_asymmetric": (("cpmap", "repair"), {
        **ALMOST_PROJECTION, "algebra": {"block_sizes": [2]}, "epsilon": 0.1,
        "element": {"blocks": [[[[0.5, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.5, 0.0]]]]},
    }, 3),
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


def test_hermitian_parts_past_half_the_largest_double(tmp_path):
    # a map from C to M_2 with phi(1) = diag(1.5e308, -0.5): the Choi matrix has
    # eigenvalue -0.5, which a hermitian part summed before halving turns into inf
    value = {"blocks": [[[[1.5e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]]}
    payload = {"map": {**MAP1, "codomain": {"matrix": 2}, "unit_images": [{"block": 0, "row": 0, "col": 0, "value": value}]}}
    code, out = run_cli(tmp_path, "choi", payload, "cpmap", "choi")
    assert code == 0 and json.loads(out)["psd"] is False and json.loads(out)["min_eigenvalue"] == -0.5
    for command, want in (("stinespring", 3), ("order-zero", 0), ("decompose", 3)):
        assert run_cli(tmp_path, command, payload, "cpmap", command)[0] == want


def test_function_values_keep_their_bits():
    data = [[0.0, -0.0, 1, 5e-324], [[-0.0, 0.0], [1, -2.5], [0.0, -0.0]], [1.0, [0.5, -0.0], -0.0], []]
    for f, got in zip(data, cli._functions_from(data)):
        want = np.array([complex(v[0], v[1]) if isinstance(v, list) else float(v) for v in f])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8), st.integers(1, 10**6))
def test_algebra_read_obeys_the_cap(sizes, max_block):
    # an algebra holds no r x r array, so sizes up to 10^6 cost nothing
    above = [r for r in sizes if r > max_block]
    if above:
        with pytest.raises(ValueError, match=f"^block size {above[0]} exceeds cap {max_block}$"):
            jsonio.algebra_from_json({"block_sizes": sizes}, max_block)
    else:
        algebra = jsonio.algebra_from_json({"block_sizes": sizes}, max_block)
        assert algebra.block_sizes == tuple(sizes)
        assert jsonio.algebra_from_json({"block_sizes": sizes}, max_block) is algebra
    assert FiniteDimAlgebra((1000,)).block_sizes == (1000,)
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
        # records in the dense or the sparse form, mixed in one map, some of
        # them repeated; the per-entry reader reads the dense form of each,
        # whose blocks left out of a sparse record are +0.0
        dom, cod, rng = case
        records, dense = [], []
        for _ in range(int(rng.integers(0, 9))):
            if records and rng.random() < 0.25:
                at = int(rng.integers(len(records)))
                records.append(records[at])
                dense.append(dense[at])
                continue
            i = int(rng.integers(dom.num_blocks))
            j, k = rng.integers(dom.block_sizes[i], size=2).tolist()
            blocks = sparse_complex(rng, (cod.num_blocks, 3, 3))
            value = [jsonio.matrix_to_json(b[:r, :r]) for b, r in zip(blocks, cod.block_sizes)]
            unit = {"block": i, "row": j, "col": k}
            dense.append({**unit, "value": {"blocks": value}})
            if rng.random() < 0.5:
                listed = np.flatnonzero(rng.random(cod.num_blocks) < 0.6).tolist()
                value = [jsonio.matrix_to_json(np.zeros((r, r))) for r in cod.block_sizes]
                for c in listed:
                    value[c] = dense[-1]["value"]["blocks"][c]
                dense[-1] = {**unit, "value": {"blocks": value}}
                records.append({**unit, "value": {"sparse": [[c, value[c]] for c in listed]}})
            else:
                records.append(dense[-1])
        head = {"domain": {"block_sizes": list(dom.block_sizes)}, "codomain": {"algebra": {"block_sizes": list(cod.block_sizes)}}}
        data = json.loads(json.dumps({**head, "unit_images": records}))
        dense = json.loads(json.dumps({**head, "unit_images": dense}))
        got, ref = jsonio.cpmap_from_json(data), cpmap_from_json_per_entry(dense)
        assert list(got.images) == list(ref.images)
        assert same_bits(list(got.images.values()), list(ref.images.values()))
        for rec, dense_rec in zip(data["unit_images"], dense["unit_images"]):
            ref = element_from_json_per_entry(cod, dense_rec["value"])
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


# Defects of one unit record, each given the record and the codomain's block count:
# a missing field, an index that is not a JSON integer or leaves the domain, a value
# in neither or both forms, a dense list of the wrong length, sparse pairs that are
# malformed, unsorted or out of range, and a matrix of the wrong shape or not finite
RECORD_DEFECTS = [
    lambda rec, n: rec.pop(["block", "row", "col", "value"][n % 4]),
    lambda rec, n: rec.update(block=True),
    lambda rec, n: rec.update(row=0.5),
    lambda rec, n: rec.update(col=10**30),
    lambda rec, n: rec.update(row=3),
    lambda rec, n: rec.update(block=-1),
    lambda rec, n: rec.update(value=[ONE]),
    lambda rec, n: rec.update(value={}),
    lambda rec, n: rec.update(value={"blocks": [ONE] * n, "sparse": []}),
    lambda rec, n: rec.update(value={"blocks": [ONE] * (n + 1)}),
    lambda rec, n: rec.update(value={"sparse": [[0, ONE], [0, ONE]]}),
    lambda rec, n: rec.update(value={"sparse": [[n, ONE]]}),
    lambda rec, n: rec.update(value={"sparse": [[0]]}),
    lambda rec, n: rec.update(value={"sparse": [[False, ONE]]}),
    lambda rec, n: rec.update(value={"sparse": [[0, [[[1.0, 0.0]]] * 4]]}),
    lambda rec, n: rec.update(value={"sparse": [[n - 1, [[[NAN, 0.0]] * 3] * 3]]}),
]


@st.composite
def unit_record_lists(draw):
    """Records of a map over 1-3 domain and 1-5 codomain blocks of sizes 1-3: dense
    and sparse ones mixed, some repeated, some followed later by their negation so
    that the pair cancels, and in about a third of the lists 1-3 defects."""
    dom, cod, rng = draw(algebras_and_rng())
    records = []
    for _ in range(int(rng.integers(0, 9))):
        if records and rng.random() < 0.3:
            rec = records[int(rng.integers(len(records)))]
            if rng.random() < 0.5 and "sparse" in rec["value"]:
                negated = [[c, (-np.array(m)).tolist()] for c, m in rec["value"]["sparse"]]
                rec = {**rec, "value": {"sparse": negated}}
            records.append(rec)
            continue
        i = int(rng.integers(dom.num_blocks))
        j, k = rng.integers(dom.block_sizes[i], size=2).tolist()
        blocks = [sparse_complex(rng, (r, r)) for r in cod.block_sizes]
        listed = np.flatnonzero(rng.random(cod.num_blocks) < 0.6).tolist()
        value = (
            {"sparse": [[c, jsonio.matrix_to_json(blocks[c])] for c in listed]} if rng.random() < 0.6
            else {"blocks": [jsonio.matrix_to_json(b) for b in blocks]}
        )
        records.append({"block": i, "row": j, "col": k, "value": value})
    records = json.loads(json.dumps(records))
    if records and rng.random() < 0.35:
        for _ in range(int(rng.integers(1, 4))):
            defect = RECORD_DEFECTS[int(rng.integers(len(RECORD_DEFECTS)))]
            defect(records[int(rng.integers(len(records)))], cod.num_blocks)
    head = {"domain": {"block_sizes": list(dom.block_sizes)}, "codomain": {"algebra": {"block_sizes": list(cod.block_sizes)}}}
    return {**head, "unit_images": records}, rng


def layout_slots(layout):
    """A layout without its image stacks, as plain lists."""
    return [(gd, list(map(int, dom_slots)), gc, list(map(int, cod_slots))) for gd, dom_slots, gc, cod_slots, _ in layout]


def read_outcome(read, data):
    """The error a reader raises, type and text, or the map it reads."""
    try:
        return read(data)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@PROPERTY
@given(unit_record_lists())
def test_stacked_reader_and_writer_match_the_per_key_ones(case):
    data, rng = case
    got, ref = read_outcome(jsonio.cpmap_from_json, data), read_outcome(cpmap_from_json_per_key, data)
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert list(got.images) == list(ref.images)
    assert same_bits(list(got.images.values()), list(ref.images.values()))
    layout = layout_per_key(got)
    assert layout_slots(got.layout) == layout_slots(layout) == layout_slots(layout_per_key(ref))
    assert same_bits([a for *_, a in got.layout], [a for *_, a in layout])
    x = AlgebraElement(got.domain, [sparse_complex(rng, (d, d)) for d in got.domain.block_sizes])
    assert same_bits(got.apply(x).stacks, apply_one_element(got, x, layout).stacks)
    assert jsonio.unit_records(got) == unit_records_per_key(got)
    phi = random_map(got.domain, got.codomain, rng)
    assert jsonio.dumps(jsonio.unit_records(phi)) == jsonio.dumps(unit_records_per_key(phi))


def shuffled_records(data, rng):
    """A map's JSON with its unit records in a random order."""
    records = data["unit_images"]
    return {**data, "unit_images": [records[n] for n in rng.permutation(len(records))]}


@PROPERTY
@given(algebras_and_rng())
def test_dict_and_record_order_do_not_change_apply_or_writer(case):
    # one map listed in two dictionary orders and its records in two orders: every
    # listing sums each codomain block in the same order, so the bits agree
    dom, cod, rng = case
    phi = random_map(dom, cod, rng)
    keys = list(phi.images)
    listed = [CPMap(dom, cod, {keys[n]: phi.images[keys[n]] for n in rng.permutation(len(keys))})]
    data = json.loads(jsonio.dumps(jsonio.cpmap_to_json(phi)))
    listed += [jsonio.cpmap_from_json(d) for d in (data, shuffled_records(data, rng))]
    # a batch of two plain elements, so that no sum overflows
    x = AlgebraElement.from_stacks(dom, [s + rng.normal(size=s.shape) + 1j * rng.normal(size=s.shape) for s in dom.zero_stacks((2,))])
    for other in listed:
        assert same_bits(other.apply(x).stacks, phi.apply(x).stacks)
        assert jsonio.dumps(jsonio.cpmap_to_json(other)) == jsonio.dumps(data)
        assert list(other.images) == list(phi.images)


@settings(
    max_examples=25, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # each example overwrites its files
)
@given(st.lists(st.integers(1, 2), min_size=3, max_size=4), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_record_order_does_not_change_the_repaired_map(tmp_path, sizes, mult, seed):
    rng = np.random.default_rng(seed)
    phi = rand_order_zero(rng, sizes, mult, spectrum_range=(0.9, 1.0))
    one = phi.apply_one()
    gamma = float(min((one @ one - one).norm() * 1.05 + 1e-9, 0.24))
    data = json.loads(jsonio.dumps(jsonio.cpmap_to_json(phi)))
    listed = {"sorted": data, "shuffled": shuffled_records(data, rng), "reversed": {**data, "unit_images": data["unit_images"][::-1]}}
    runs = [
        run_cli(tmp_path, name, {"kind": "order-zero-map", "map": m, "gamma": gamma}, "cpmap", "repair")
        for name, m in listed.items()
    ]
    assert runs[0][0] == 0
    assert runs[0] == runs[1] == runs[2]


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
# any JSON value: ints negative and past 64 bits, bools, floats, strings and null, nested in lists and objects
FUZZ_JSON = st.recursive(
    st.one_of(
        st.integers(-3, 6), st.sampled_from([-(2**64), 2**63, 2**64, 2**64 + 1]), st.booleans(),
        st.floats(), st.text(max_size=2), st.none(),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=5,
)
FUZZ_VALUES = st.lists(st.lists(st.floats(-10, 10), max_size=6), min_size=1, max_size=2)


@st.composite
def fuzz_matrix(draw, r: int):
    """An r x r matrix in JSON: a near-projection, a non-hermitian, negative or huge one, or malformed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["near-projection"] * 3 + ["non-hermitian", "negative", "huge", "wrong size", "not a number"]))
    q, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    keep = q[:, : draw(st.integers(0, r))]
    m = keep @ keep.conj().T + draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3])) * np.diag(rng.uniform(-1, 1, r))
    if kind == "non-hermitian":
        m = m + draw(st.sampled_from([1e-12, 1e-3, 0.5])) * rng.normal(size=(r, r))
    elif kind == "negative":
        m = m - draw(st.sampled_from([1e-8, 0.5])) * np.eye(r)
    elif kind == "huge":
        # hermitian or not, with entries near the largest double
        m = m + draw(st.sampled_from([0.0, 0.5])) * rng.normal(size=(r, r))
        m = m * (draw(st.sampled_from([1e300, -1e300, 1e308])) / max(1.0, np.abs(m).max()))
    value = m.view(float).reshape(r, r, 2).tolist()
    if kind == "wrong size":
        value = value[:-1] if r > 1 else value + value
    elif kind == "not a number":
        value[0][0][0] = draw(st.sampled_from(["x", None, True, [0.0]]))
    return value


@st.composite
def fuzz_repair(draw):
    """A cpmap repair input: 1-3 blocks of sizes 1-4, a dense or sparse element and an epsilon."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    mats = [draw(fuzz_matrix(r)) for r in sizes]
    listed = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    element = draw(st.sampled_from([
        {"blocks": mats},
        {"sparse": [[b, m] for b, (m, on) in enumerate(zip(mats, listed)) if on]},
    ]))
    epsilon = draw(st.one_of(st.floats(1e-6, 0.2499), st.sampled_from([0.0, 0.25, -0.1, 0.3, 1.0, 1e300])))
    return {"kind": "almost-projection", "algebra": {"block_sizes": sizes}, "element": element, "epsilon": epsilon}


@st.composite
def fuzz_map(draw):
    """A map input, its records shuffled: those of :func:`unit_record_lists` (valid,
    repeated, cancelling or malformed), or those of a random c.p. or order-zero map."""
    if draw(st.booleans()):
        data, rng = draw(unit_record_lists())
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        cp = draw(st.booleans())
        phi = rand_cp_contraction(rng, sizes, int(rng.integers(1, 4))) if cp else rand_order_zero(rng, sizes, 1)
        data = json.loads(jsonio.dumps(jsonio.cpmap_to_json(phi)))
    return {"map": shuffled_records(data, rng)}


@st.composite
def fuzz_cover(draw):
    """A cover of 0-5 members over points 0-6 and 2**64; mostly valid, else with mixed JSON
    values in place of some points, some members or the member list, and labels that are
    absent, one string per member, mixed values, of the wrong length or not a list."""
    valid = st.one_of(st.integers(0, 6), st.just(2**64))
    if draw(st.integers(0, 3)):
        members = draw(st.lists(st.lists(valid, max_size=4), max_size=5))
    else:
        member = st.one_of(st.lists(st.one_of(valid, FUZZ_JSON), max_size=4), FUZZ_JSON)
        members = draw(st.one_of(st.lists(member, max_size=5), FUZZ_JSON))
    n = len(members) if isinstance(members, list) else 1
    labels = draw(st.one_of(
        st.none(),
        st.lists(st.text(max_size=3), min_size=n, max_size=n),
        st.lists(st.one_of(st.text(max_size=3), FUZZ_JSON), min_size=n, max_size=n),
        st.lists(st.text(max_size=3), min_size=n + 1, max_size=n + 2),
        FUZZ_JSON,
    ))
    return {"members": members} if labels is None else {"members": members, "labels": labels}


# per command, inputs valid and invalid over the fields coords, n and r, a
# repair's element and epsilon, a map's records, and a cover's members and labels
FUZZ = {
    "cover order": st.fixed_dictionaries({"cover": fuzz_cover()}),
    "cover strict-order": st.fixed_dictionaries({"cover": fuzz_cover()}),
    "cover nerve": st.fixed_dictionaries({"cover": fuzz_cover()}),
    "cover check-refines": st.fixed_dictionaries({"fine": fuzz_cover(), "coarse": fuzz_cover()}),
    "cover refine": st.fixed_dictionaries({"space": FUZZ_SPACE, "cover": FUZZ_COVER}),
    "approx build": st.fixed_dictionaries({"space": FUZZ_SPACE, "functions": FUZZ_VALUES, "epsilon": st.just(0.5)}),
    "approx extract-cover": st.builds(
        lambda space, n: _extract(space=space, n=n), st.one_of(st.just(SPACE3), FUZZ_SPACE), st.integers(0, 10**6)
    ),
    "--max-block 2 approx tensor": st.builds(lambda r: {"approximation": APPROX3, "r": r}, st.integers(1, 4)),
    "cpmap repair": fuzz_repair(),
    "cpmap choi": fuzz_map(),
    "cpmap order-zero": fuzz_map(),
}
# the exit codes each command may end in; a map's and a cover's checks fail no pipeline step
FUZZ_EXITS = {
    command: (0, 2, 3)
    for command in ("cpmap choi", "cpmap order-zero", "cover order", "cover strict-order", "cover nerve", "cover check-refines")
}


@pytest.mark.parametrize("command", sorted(FUZZ))
@settings(
    max_examples=50, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # each example overwrites its files
)
@given(data=st.data())
def test_schema_fuzz_exits_with_a_documented_code(tmp_path, command, data):
    code, _ = run_cli(tmp_path, "fuzz", data.draw(FUZZ[command]), *command.split())
    assert code in FUZZ_EXITS.get(command, (0, 2, 3, 4))


@settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # each example overwrites its files
)
@given(
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
    st.lists(st.integers(1, 2), min_size=1, max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_repeated_records_read_the_same_in_any_order(tmp_path, sizes, cod_sizes, seed):
    """A unit listed up to four times, in parts of magnitudes 1e-3 to 1e3 whose sum
    depends on the order of addition, gives the same `cpmap choi` bytes for any order
    of the records; the images stay adjoint-symmetric, so choi reads them."""
    rng = np.random.default_rng(seed)
    records = []
    for i, d in enumerate(sizes):
        for j in range(d):
            for k in range(j, d):
                for _ in range(int(rng.integers(1, 5))):
                    part = [rand_complex(rng, (r, r)) * rng.choice([1e-3, 1.0, 1e3]) for r in cod_sizes]
                    if j == k:
                        part = [(m + m.conj().T) / 2 for m in part]
                    listed = np.flatnonzero(rng.random(len(cod_sizes)) < 0.7).tolist()
                    for jj, kk, f in ((j, k, lambda m: m), (k, j, lambda m: m.conj().T))[: 1 + (j != k)]:
                        value = {"sparse": [[c, jsonio.matrix_to_json(f(part[c]))] for c in listed]}
                        records.append({"block": i, "row": jj, "col": kk, "value": value})
    head = {"domain": {"block_sizes": sizes}, "codomain": {"algebra": {"block_sizes": cod_sizes}}}
    runs = [
        run_cli(tmp_path, name, {"map": {**head, "unit_images": order}}, "cpmap", "choi")
        for name, order in (("listed", records), ("shuffled", [records[q] for q in rng.permutation(len(records))]))
    ]
    assert runs[0][0] == 0
    assert runs[0] == runs[1]
