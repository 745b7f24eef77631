"""Quantitative projection perturbation: repair, orthogonalize, connect.

Every lemma comes with an explicit constant; this script measures each bound
on concrete inputs.
"""

import numpy as np

from cprank import (
    AlgebraElement,
    FiniteDimAlgebra,
    alpha_for,
    connect_projections,
    orthogonalization_schedule,
    orthogonalize_family,
    orthogonalize_pair,
    repair_almost_projection,
)

alg2 = FiniteDimAlgebra([2])

# an almost-projection within eps of idempotency snaps to a true projection
# moving at most 2 eps; the inverse square root on its range moves at most 4 eps
h = AlgebraElement(alg2, [np.diag([0.1, 0.9])])
eps = 0.1
p, c, moved = repair_almost_projection(h, eps)
print("||p - h|| =", moved.measured, "< 2 eps =", moved.bound)
print("||p - c|| =", (p - c).norm(), "< 4 eps =", 4 * eps)

# nearly orthogonal projections can be made exactly orthogonal, moving 14 delta
t = np.arcsin(0.02)
v = np.array([np.sin(t), np.cos(t)])
q = AlgebraElement(alg2, [np.outer(v, v)])
e11 = AlgebraElement(alg2, [np.diag([1.0, 0.0])])
moved = orthogonalize_pair(e11, q, delta=0.02)
print("product after repair:", (moved @ q).norm())
print("moved by", (moved - e11).norm(), "<= 14 delta =", 14 * 0.02)

# the family version follows the stage schedule delta_i = 14 (sum + delta)
beta = 1.0 / 8.0
alpha = alpha_for(2, beta)
print("alpha for K=2, beta=1/8:", alpha)
print("schedule:", orthogonalization_schedule(2, alpha))
alg3 = FiniteDimAlgebra([3])
w = np.array([np.sin(5e-4), np.cos(5e-4), 0.0])
family = [
    AlgebraElement(alg3, [np.diag([1.0, 0.0, 0.0])]),
    AlgebraElement(alg3, [np.outer(w, w)]),
]
fam = orthogonalize_family(family, 1.001)
print("pairwise product after orthogonalization:", fam.max_pairwise_product())
print("deviations:", fam.deviations)

# close projections are connected by a partial isometry within 4 eta
t = np.arcsin(0.1)
rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
qq = AlgebraElement(alg2, [rot @ np.diag([1.0, 0.0]) @ rot.T])
s = connect_projections(e11, qq, eta=0.11)
print("s*s = p defect:", ((s.adjoint() @ s) - e11).norm())
print("ss* = q defect:", ((s @ s.adjoint()) - qq).norm())
print("||s - p|| =", (s - e11).norm(), "< 4 eta =", 0.44)
