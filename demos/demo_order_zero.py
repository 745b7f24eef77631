"""Order-zero maps: structure, perturbation to homomorphisms, the local AF step."""

import numpy as np

from cprank import (
    AlgebraElement,
    CPMap,
    FiniteDimAlgebra,
    LocalApproximation,
    af_local_step,
    certify_order_zero,
    check_projection_case,
    decompose_order_zero,
    perturb_to_hom,
)


def tensor_diag(diag, r=2):
    d = np.asarray(diag, float)
    total = r * len(d)
    arr = np.zeros((r, r, total, total), complex)
    for j in range(r):
        for k in range(r):
            e = np.zeros((r, r))
            e[j, k] = 1.0
            arr[j, k] = np.kron(e, np.diag(d))
    return CPMap(FiniteDimAlgebra([r]), FiniteDimAlgebra([total]), {(0, 0): arr})


# x -> x (x) diag(0.5, 1): order zero, with h = 1 (x) diag(0.5, 1)
phi = tensor_diag([0.5, 1.0])
cert = certify_order_zero(phi)
print("certified order zero:", cert.ok)

dec = decompose_order_zero(phi)
print("eigenvalue support:", dec.blocks[0].eigenvalue_support)
print("reconstruction defect:", dec.reconstruction_defect)

# when phi(1) is a projection the map is already a homomorphism
print("projection case:", check_projection_case(tensor_diag([1.0, 1.0])).verdict)
print("non-projection unit:", check_projection_case(phi).verdict)

# an almost-unital order-zero map snaps to a homomorphism within 12g + 2 sqrt(g)
near = tensor_diag([0.97, 1.0])
rep = perturb_to_hom(near, gamma=0.03 + 1e-9)
print("snap moved:", rep.moved.measured, " bound:", rep.moved.bound)
print("homomorphism defect:", rep.hom_defect)

# the local AF step: cut psi(u) at sqrt(eps), restrict, snap, measure distances
phi99 = tensor_diag([0.99, 1.0])
arr = np.zeros((4, 4, 2, 2), complex)
for j in range(2):
    for k in range(2):
        arr[2 * j + 1, 2 * k + 1, j, k] = 1.0
psi = CPMap(phi99.codomain, phi99.domain, {(0, 0): arr})
approx = LocalApproximation(phi99.domain, psi, phi99)
targets = [
    AlgebraElement(phi99.codomain, [np.kron(np.diag([0.8, 0.3]), np.eye(2)).astype(complex)]),
]
out = af_local_step(targets, approx, AlgebraElement.identity(phi99.codomain), eps=0.05)
print("cut subalgebra:", out.subalgebra.block_sizes)
for name, c in out.hypotheses.items():
    print(f"  hypothesis {name}: {c.measured:.2e} < {c.bound:.2e} -> {c.ok}")
print("distances:", out.distances)
