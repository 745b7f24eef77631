"""Completely positive maps: verification, dilation, and strict order."""

import numpy as np

from cprank import (
    AlgebraElement,
    CPMap,
    FiniteDimAlgebra,
    choi_blocks,
    is_contractive,
    multiplicativity_defect,
    schwarz_defect,
    stinespring,
    strict_order_abelian,
    strict_order_bounds,
    witness_elementary_set,
)

M2 = FiniteDimAlgebra([2])

# the normalized trace map on M_2: completely positive, Choi = I/2
arr = np.zeros((2, 2, 2, 2), complex)
for j in range(2):
    arr[j, j] = np.eye(2) / 2
trace_map = CPMap(M2, M2, {(0, 0): arr})
blocks, psd, worst = choi_blocks(trace_map)
print("trace map Choi PSD:", psd, " min eigenvalue:", worst)
contractive = is_contractive(trace_map)
print("contractive:", contractive.measured, "<=", contractive.bound, "->", contractive.ok)

# the transpose is positive but not completely positive
arrT = np.zeros((2, 2, 2, 2), complex)
for j in range(2):
    for k in range(2):
        arrT[j, k, k, j] = 1.0
_, psdT, worstT = choi_blocks(CPMap(M2, M2, {(0, 0): arrT}))
print("transpose Choi PSD:", psdT, " min eigenvalue:", worstT)

# Stinespring: phi(a) = V* pi(a) V with pi an amplified matrix algebra
dil = stinespring(trace_map)
print("dilation dimension:", dil.rep_dimension)
x = AlgebraElement(M2, [np.array([[1.0, 2.0], [0.5, -1.0]])])
print("reconstruction defect:", np.linalg.norm(dil.reconstruct(x) - trace_map(x).blocks[0], 2))

# the Schwarz inequality phi(x*x) >= phi(x)* phi(x) never fires for c.p. maps
schwarz = schwarz_defect(trace_map, x)
print("schwarz: -lambda_min =", schwarz.measured, "<=", schwarz.bound, "->", schwarz.ok)
y = AlgebraElement(M2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
mult = multiplicativity_defect(trace_map, y, x)
print("multiplicativity estimate:", mult.measured, "<=", mult.bound, "->", mult.ok)

# strict order: the trace map sends every orthogonal pair of minimal
# projections to overlapping positive elements, so its order is r - 1 = 1
print("strict order bounds:", strict_order_bounds(trace_map))
res = witness_elementary_set(trace_map, 2, seed=0)
print("witness found:", bool(res), " min pairwise product:", res.best_min_product)

# abelian domains have exact strict order through the intersection graph
rows = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
dom = FiniteDimAlgebra([1, 1, 1])
cod = FiniteDimAlgebra([1, 1, 1, 1])
images = {
    (i, c): np.array(rows[i, c], complex).reshape(1, 1, 1, 1)
    for i in range(3)
    for c in range(4)
    if rows[i, c]
}
chain_map = CPMap(dom, cod, images)
print("abelian chain strict order:", strict_order_abelian(chain_map))
