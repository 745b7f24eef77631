"""The two-way bridge: covers to approximations and back.

Forward, a completely positive approximation of functions on an interval is
assembled from point evaluations against a partition of unity.  Backward, the
extraction pipeline turns a good enough approximation into an open cover of
controlled order refining a given one, checking the constant schedule
C, beta, alpha, theta, eta inequality by inequality.
"""

import numpy as np

from cprank import (
    build_cp_approx,
    cover_order,
    estimate_cpr_commutative,
    extract_cover,
    extraction_targets,
    interval_grid,
    refines,
    strict_order_abelian,
    tensor_approx,
    torus_grid,
    verify_cp_approx,
)

space = interval_grid(201)
xs = space.coords[:, 0]

# forward: approximate the coordinate within 0.3 through an abelian algebra
approx = build_cp_approx(space, [xs], eps=0.3)
print("algebra size:", approx.F.num_blocks)
print("approximation error:", approx.error_on(xs))
print("strict order of phi:", strict_order_abelian(approx.phi))
rep = verify_cp_approx(approx, [xs], 0.3)
print("psi c.p. and contractive:", rep.psi_cp, rep.psi_contractive.ok)

# matrix-valued functions come along by tensoring
big = tensor_approx(approx, 2)
b = np.array([[0.0, 1.0], [1.0, 0.0]])
matrix_valued = np.einsum("p,jk->pjk", xs, b)
print("tensored error on x (x) b:", big.error_on(matrix_valued))

# backward: the chain cover of the interval, extraction at order n = 1
chain_sets = [
    frozenset(np.flatnonzero((xs >= 0.0) & (xs <= 0.4)).tolist()),
    frozenset(np.flatnonzero((xs >= 0.3) & (xs <= 0.7)).tolist()),
    frozenset(np.flatnonzero((xs >= 0.6) & (xs <= 1.0)).tolist()),
]
from cprank import Cover

U = Cover(chain_sets)
targets = extraction_targets(space, U, n=1)
c = targets.constants
print(
    f"constants: C={c.C}, beta={c.beta}, alpha={c.alpha:.8f}, "
    f"theta={c.theta:.8f}, eta={c.eta:.3e}"
)
funcs = targets.target_functions()
fine = build_cp_approx(space, funcs, eps=c.eta / (2 * len(funcs)))
W, report = extract_cover(space, U, 1, fine, targets)
print("extracted cover:", len(W.members), "members, order", report.W_order)
print("refines the chain:", refines(W, U)[0])
print("all named inequalities hold:", all(ck.ok for ck in report.checks))

# strict order achievable at probed scales, for an interval and a torus
value_i, _ = estimate_cpr_commutative(interval_grid(101), [0.05, 0.1, 0.2])
value_t, _ = estimate_cpr_commutative(torus_grid(10, 10), [0.3, 0.35])
print("interval estimate:", value_i, " torus estimate:", value_t)
