"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and within its stated runtime
budget; run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from cprank import (
    AlgebraElement,
    CPMap,
    Cover,
    FiniteDimAlgebra,
    FiniteMetricSpace,
    LocalApproximation,
    af_local_step,
    alpha_for,
    ball_cover,
    build_cp_approx,
    certify_order_zero,
    check_almost_unit,
    circle_grid,
    connect_projections,
    cover_order,
    cover_strict_order,
    decompose_order_zero,
    extract_cover,
    extraction_targets,
    interval_grid,
    jsonio,
    multiplicativity_defect,
    nerve,
    orthogonalization_schedule,
    orthogonalize_family,
    perturb_to_hom,
    refines,
    repair_almost_projection,
    schwarz_defect,
    strict_order_abelian,
    strict_refinement,
    torus_grid,
    trace_rank_bound,
    validate,
    witness_elementary_set,
)
from cprank.cli import main

from conftest import (
    identity_map,
    interval_chain_cover,
    matrix_path_approximation,
    rand_complex,
    rand_cp_contraction,
    rand_hermitian,
    rand_order_zero,
    rand_projection,
    rand_psd,
    rand_unitary,
    three_arcs_cover,
    two_cluster_hermitian,
)
from oracles import cover_order_brute, cover_strict_order_brute, strict_order_abelian_brute


def report(num: int, name: str, started: float, budget: float | None) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({elapsed:.2f}s)", flush=True)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_01_almost_projection_repair():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        h = AlgebraElement(FiniteDimAlgebra([n]), [two_cluster_hermitian(rng, n, eps)])
        p, c, moved = repair_almost_projection(h, eps)
        assert validate(p, "projection", 1e-10).ok
        assert moved.ok and moved.measured == (p - h).norm() < 2 * eps == moved.bound
        assert (p - c).norm() < 4 * eps
    report(1, "almost-projection repair", t0, 5.0)


def test_02_close_projections():
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    import scipy.linalg as sla

    for trial in range(500):
        n = int(rng.integers(2, 6))
        rank = int(rng.integers(1, n))
        alg = FiniteDimAlgebra([n])
        pm = rand_projection(rng, n, rank)
        herm = rand_hermitian(rng, n)
        w = sla.expm(1j * rng.uniform(0.005, 0.1) * herm)
        qm = w @ pm @ w.conj().T
        p, q = AlgebraElement(alg, [pm]), AlgebraElement(alg, [qm])
        eta = min(max((p - q).norm() * 1.02, 1e-8), 0.25)
        s = connect_projections(p, q, eta)
        assert ((s.adjoint() @ s) - p).norm() <= 1e-10
        assert ((s @ s.adjoint()) - q).norm() <= 1e-10
        assert (s - p).norm() < 4 * eta
    report(2, "close projections", t0, 5.0)


def test_03_family_orthogonalization():
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)
    for n in range(0, 4):
        K = n + 1
        beta = 1.0 / (4.0 * (n + 1))
        alpha = alpha_for(K, beta, order=n if n >= 1 else None)
        sched = orthogonalization_schedule(K, alpha)
        assert all(d <= beta + 1e-12 for d in sched)
        for trial in range(12):
            dim = 2 * K + 2
            alg = FiniteDimAlgebra([dim])
            base = rand_unitary(rng, dim)
            qs = []
            # exactly orthogonal seeds, then tiny rotations scaled under alpha
            for i in range(K):
                v = base[:, 2 * i]
                qs.append(np.outer(v, v.conj()))
            t = min((alpha - 1.0) * 0.5, 1e-5)
            rot = []
            for i in range(K):
                v = base[:, 2 * i]
                wvec = base[:, 2 * i + 1]
                u = np.cos(t) * v + np.sin(t) * wvec
                rot.append(np.outer(u, u.conj()))
            while np.linalg.norm(sum(rot), 2) > alpha:
                t *= 0.5
                rot = []
                for i in range(K):
                    v = base[:, 2 * i]
                    wvec = base[:, 2 * i + 1]
                    u = np.cos(t) * v + np.sin(t) * wvec
                    rot.append(np.outer(u, u.conj()))
            family = [AlgebraElement(alg, [m]) for m in rot]
            fam = orthogonalize_family(family, alpha)
            assert fam.max_pairwise_product() <= 1e-10
            for dev, bound in zip(fam.deviations, sched):
                assert dev <= bound + 1e-9
                assert dev <= beta + 1e-9
    report(3, "family orthogonalization", t0, 10.0)


def test_04_dichotomy():
    t0 = time.monotonic()
    rng = np.random.default_rng(1004)
    inconclusive = []
    total = 0
    for r in (2, 3):
        for trial in range(50):
            total += 1
            seed = 2000 + 100 * r + trial
            phi = rand_cp_contraction(np.random.default_rng(seed), [r], int(rng.integers(2, 5)))
            cert = certify_order_zero(phi)
            if cert.ok:
                dec = decompose_order_zero(phi)
                assert dec.reconstruction_defect <= 1e-9
                continue
            res = witness_elementary_set(phi, r, seed=seed, tol=1e-6)
            if res:
                res.found.validate()
                images = [phi.apply(p) for p in res.found.projections]
                for i in range(len(images)):
                    for j in range(i + 1, len(images)):
                        assert (images[i] @ images[j]).norm() > 1e-6
            else:
                inconclusive.append(seed)
    print(f"  dichotomy inconclusive: {len(inconclusive)} of {total} (seeds {inconclusive})")
    assert total - len(inconclusive) >= 95
    report(4, "dichotomy", t0, 60.0)


def test_05_order_zero_structure():
    t0 = time.monotonic()
    rng = np.random.default_rng(1005)
    for trial in range(100):
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 3)))]
        mult = int(rng.integers(1, 5))
        phi = rand_order_zero(rng, sizes, mult, spectrum_range=(0.78, 1.0))
        dec = decompose_order_zero(phi)
        assert dec.reconstruction_defect <= 1e-9
        h = phi.apply_one()
        defect = (h @ h - h).norm()
        gamma = min(defect * 1.01 + 1e-9, 0.2499)
        rep = perturb_to_hom(phi, gamma)
        assert rep.hom_defect <= 1e-9
        assert rep.moved.measured <= 12 * gamma + 2 * np.sqrt(gamma)
    report(5, "order-zero structure", t0, 30.0)


def test_06_strict_order_refinement():
    t0 = time.monotonic()
    rng = np.random.default_rng(1006)
    for trial in range(200):
        kind = trial % 3
        if kind == 0:
            n = int(rng.integers(20, 400))
            sp, spacing = interval_grid(n), 1.0 / (n - 1)
        elif kind == 1:
            n = int(rng.integers(20, 400))
            sp, spacing = circle_grid(n), 1.0 / n
        else:
            nx, ny = int(rng.integers(4, 11)), int(rng.integers(4, 11))
            sp, spacing = torus_grid(nx, ny), 1.0 / max(nx, ny)
        radius = spacing * float(rng.uniform(1.1, 3.5))
        cov = ball_cover(sp, radius)
        ref = strict_refinement(sp, cov)
        assert ref.is_covering(sp.npts)
        assert refines(ref, cov)[0]
        assert cover_strict_order(ref) <= cover_order(cov)
    # the motivating instance: three arcs drop from strict order 2 to 1
    c = circle_grid(90)
    arcs = three_arcs_cover(90)
    assert cover_strict_order(arcs) == 2
    ref = strict_refinement(c, arcs)
    assert cover_strict_order(ref) == 1
    report(6, "strict-order refinement", t0, 30.0)


def test_07_builder():
    t0 = time.monotonic()
    spaces = []
    sp_i = interval_grid(101)
    xs = sp_i.coords[:, 0]
    bump_i = np.exp(-((xs - 0.4) ** 2) / 0.02)
    spaces.append((sp_i, [xs, bump_i]))
    sp_c = circle_grid(100)
    ang = 2 * np.pi * np.arange(100) / 100
    spaces.append((sp_c, [np.cos(ang), np.sin(ang), np.exp(-sp_c.metric[0] ** 2 / 0.05)]))
    sp_t = torus_grid(8, 8)
    tx = sp_t.coords[:, 0]
    ty = sp_t.coords[:, 1]
    spaces.append(
        (
            sp_t,
            [
                np.cos(2 * np.pi * tx),
                np.sin(2 * np.pi * ty),
                np.exp(-sp_t.metric[0] ** 2 / 0.1),
            ],
        )
    )
    for sp, funcs in spaces:
        for eps in (0.15, 0.3):
            approx = build_cp_approx(sp, funcs, eps=eps)
            for f in funcs:
                assert approx.error_on(f) <= eps
            base = approx.report.base_cover
            assert strict_order_abelian(approx.phi) <= nerve(base).dimension()
    report(7, "builder", t0, 30.0)


def test_08_dim_cpr_roundtrip():
    t0 = time.monotonic()
    named = {"(1)", "(*)", "covering", "order", "W-inside-V", "diam", "refines",
             "sum-alpha", "class-count", "beta"}
    for space, U in (
        (interval_grid(201), None),
        (circle_grid(120), None),
    ):
        cover = U or (interval_chain_cover(space) if space.coords.shape[1] == 1 else three_arcs_cover(space.npts))
        targets = extraction_targets(space, cover, 1)
        funcs = targets.target_functions()
        approx = build_cp_approx(space, funcs, eps=targets.constants.eta / (2 * len(funcs)))
        W, rep = extract_cover(space, cover, 1, approx, targets)
        assert W.is_covering(space.npts)
        assert rep.W_order <= 1
        assert refines(W, cover)[0]
        assert all(c.ok for c in rep.checks)
        assert all(c.ok for c in rep.eta_checks)
        seen = {c.step for c in rep.checks}
        assert named <= seen | {"block-order"}, f"missing named checks: {named - seen}"
        ident = rep.identities
        assert ident["eta/C"] <= ident["1/(n+2)"] + 1e-12
        assert abs(ident["beta"] - ident["1/(4(n+1))"]) <= 1e-15
    # the matrix path exercises the spectral thresholds and the repair lemma
    space, cover, approx = matrix_path_approximation()
    W, rep = extract_cover(space, cover, 1, approx)
    assert rep.orthogonalization_nontrivial and rep.W_order <= 1
    assert W.is_covering(space.npts) and refines(W, cover)[0]
    report(8, "dim = cpr round trip", t0, 60.0)


def test_09_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1009)
    for trial in range(500):
        npts = int(rng.integers(4, 61))
        k = int(rng.integers(1, 13))
        members = []
        for _ in range(k):
            size = int(rng.integers(1, max(2, npts // 2 + 1)))
            members.append(frozenset(rng.choice(npts, size=size, replace=False).tolist()))
        cov = Cover(members)
        assert cover_order(cov) == cover_order_brute(cov)
        assert cover_strict_order(cov) == cover_strict_order_brute(cov)
    for trial in range(120):
        s = int(rng.integers(1, 13))
        m = int(rng.integers(1, 9))
        rows = rng.uniform(0, 1, size=(s, m)) * (rng.random(size=(s, m)) < 0.45)
        dom = FiniteDimAlgebra([1] * s)
        cod = FiniteDimAlgebra([1] * m)
        images = {}
        for i in range(s):
            for c in range(m):
                if rows[i, c] != 0:
                    images[(i, c)] = np.array(rows[i, c], complex).reshape(1, 1, 1, 1)
        phi = CPMap(dom, cod, images)
        assert strict_order_abelian(phi) == strict_order_abelian_brute(phi)
    report(9, "oracle equivalence", t0, 60.0)


def test_10_theorem_validators():
    t0 = time.monotonic()
    rng = np.random.default_rng(1010)
    # Schwarz inequality on random hermitian contractions
    for trial in range(200):
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
        phi = rand_cp_contraction(rng, sizes, int(rng.integers(2, 6)))
        x = AlgebraElement(phi.domain, [rand_hermitian(rng, d) for d in sizes])
        assert schwarz_defect(phi, x).measured <= 1e-9
        y = AlgebraElement(phi.domain, [rand_complex(rng, (d, d)) for d in sizes])
        y = (1.0 / max(y.norm(), 1.0)) * y
        assert multiplicativity_defect(phi, x, y).ok
    # dominated-unit estimate
    for trial in range(10000):
        n = int(rng.integers(1, 6))
        alg = FiniteDimAlgebra([n])
        w = rng.uniform(0, 1, size=n)
        u = rand_unitary(rng, n)
        hm = u @ np.diag(w) @ u.conj().T
        dm = u @ np.diag(w + rng.uniform(0, 1, size=n) * (1 - w)) @ u.conj().T
        x = rand_complex(rng, (n, n))
        x /= max(np.linalg.norm(x, 2), 1.0)
        c = check_almost_unit(
            AlgebraElement(alg, [hm]), AlgebraElement(alg, [dm]), AlgebraElement(alg, [x])
        )
        assert c.ok
    # trace-rank counting bound
    for trial in range(300):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 2))
        scale = float(rng.uniform(0.85, 1.0))
        mats = [scale * rand_projection(rng, n, 1) for _ in range(k)]
        rep = trace_rank_bound(mats)
        if rep.hypotheses_ok:
            assert rep.bound_ok and rep.k <= rep.n
            assert rep.normalized_trace <= 1.0 + 1e-9
    report(10, "theorem validators", t0, None)


def test_11_af_local_step():
    t0 = time.monotonic()
    # exact instance
    F = FiniteDimAlgebra([4])
    idm = identity_map(4)
    approx = LocalApproximation(F, idm, idm)
    a = AlgebraElement(F, [np.diag([0.15, 0.35, 0.65, 0.95]).astype(complex)])
    rep = af_local_step([a], approx, AlgebraElement.identity(F), eps=0.02)
    assert all(d.measured <= 1e-9 for d in rep.distances if d.step == "certified")
    assert all(d.measured <= 1e-9 for d in rep.distances if d.step == "direct")
    # near-AF instance honors the distance chain
    from test_orderzero import tensor_diag_map

    phi = tensor_diag_map([0.99, 1.0])
    arr = np.zeros((4, 4, 2, 2), complex)
    for j in range(2):
        for k in range(2):
            arr[2 * j + 1, 2 * k + 1, j, k] = 1.0
    psi = CPMap(phi.codomain, phi.domain, {(0, 0): arr})
    near = LocalApproximation(phi.domain, psi, phi)
    a_list = [
        AlgebraElement(phi.codomain, [np.kron(np.diag([0.9, 0.1]), np.eye(2)).astype(complex)]),
        AlgebraElement(phi.codomain, [np.kron(np.array([[0.5, 0.5], [0.5, 0.5]]), np.eye(2))]),
    ]
    eps = 0.05
    rep2 = af_local_step(a_list, near, AlgebraElement.identity(phi.codomain), eps=eps)
    bound = 2 * np.sqrt(2) * eps**0.25 + eps + 2 * eps**0.125
    for d in rep2.distances:
        if d.step == "certified":
            assert d.measured <= bound
    report(11, "AF local step", t0, 10.0)


def test_12_cli_determinism(tmp_path):
    t0 = time.monotonic()
    sp = interval_grid(31)
    xs = sp.coords[:, 0]
    chain = interval_chain_cover(sp)
    space_js = jsonio.space_to_json(sp)
    funcs_js = [[[float(v), 0.0] for v in xs]]
    approx = build_cp_approx(sp, [xs], eps=0.3)
    approx_js = jsonio.approximation_to_json(approx)
    ext_space, ext_cover, ext_approx = matrix_path_approximation()

    rng = np.random.default_rng(1012)
    phi_cp = rand_cp_contraction(rng, [2], 3)
    phi_oz = rand_order_zero(rng, [2], 2, spectrum_range=(0.9, 1.0))
    h_defect = (phi_oz.apply_one() @ phi_oz.apply_one() - phi_oz.apply_one()).norm()

    sum_b = build_cp_approx(circle_grid(20), [np.cos(2 * np.pi * np.arange(20) / 20)], eps=0.4)
    almost = [two_cluster_hermitian(rng, d, 0.1) for d in (3, 2)]

    cases = [
        ("cover", "order", {"cover": jsonio.cover_to_json(chain)}),
        ("cover", "strict-order", {"cover": jsonio.cover_to_json(chain)}),
        ("cover", "nerve", {"cover": jsonio.cover_to_json(chain)}),
        ("cover", "refine", {"space": space_js, "cover": jsonio.cover_to_json(chain)}),
        (
            "cover",
            "check-refines",
            {"fine": {"members": [[0], [1]]}, "coarse": {"members": [[0, 1]]}},
        ),
        ("approx", "build", {"space": space_js, "functions": funcs_js, "epsilon": 0.3}),
        (
            "approx",
            "verify",
            {"approximation": approx_js, "functions": funcs_js, "epsilon": 0.3},
        ),
        ("approx", "tensor", {"approximation": approx_js, "r": 2}),
        (
            "approx",
            "sum",
            {"first": approx_js, "second": jsonio.approximation_to_json(sum_b)},
        ),
        (
            "approx",
            "extract-cover",
            {
                "space": jsonio.space_to_json(ext_space),
                "cover": jsonio.cover_to_json(ext_cover),
                "n": 1,
                "approximation": jsonio.approximation_to_json(ext_approx),
            },
        ),
        ("approx", "estimate", {"space": space_js, "scales": [0.1, 0.2]}),
        ("cpmap", "choi", {"map": jsonio.cpmap_to_json(phi_cp)}),
        ("cpmap", "stinespring", {"map": jsonio.cpmap_to_json(phi_cp)}),
        ("cpmap", "order-bounds", {"map": jsonio.cpmap_to_json(phi_cp)}),
        ("cpmap", "order-zero", {"map": jsonio.cpmap_to_json(phi_oz)}),
        (
            "cpmap",
            "repair",
            {
                "kind": "order-zero-map",
                "map": jsonio.cpmap_to_json(phi_oz),
                "gamma": float(min(h_defect * 1.05 + 1e-9, 0.24)),
            },
        ),
        ("cpmap", "decompose", {"map": jsonio.cpmap_to_json(phi_oz)}),
        (
            "cpmap",
            "repair",
            {
                "kind": "almost-projection",
                "algebra": {"block_sizes": [3, 2]},
                "element": jsonio.element_to_json(AlgebraElement(FiniteDimAlgebra([3, 2]), almost)),
                "epsilon": 0.1,
            },
        ),
    ]
    for idx, (group, action, payload) in enumerate(cases):
        inp = tmp_path / f"in_{idx}.json"
        inp.write_text(json.dumps(payload))
        outs = []
        for run in range(2):
            outp = tmp_path / f"out_{idx}_{run}.json"
            code = main(
                ["--seed", "7", group, action, "--in", str(inp), "--out", str(outp)]
            )
            assert code == 0, f"{group} {action} exited {code}"
            outs.append(outp.read_bytes())
        assert outs[0] == outs[1], f"{group} {action} not byte-deterministic"
        text = outs[0].decode("utf-8")
        compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == compact + "\n", f"{group} {action} not compact JSON with sorted keys"
    report(12, "CLI determinism", t0, None)
