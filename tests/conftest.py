"""Shared generators for the test suite: random matrices, maps, and spaces."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cprank import (
    AlgebraElement,
    CPApproximation,
    CPMap,
    Cover,
    FiniteDimAlgebra,
    FiniteMetricSpace,
    function_algebra,
)


def rand_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_hermitian(rng: np.random.Generator, n: int, norm: float | None = 1.0) -> np.ndarray:
    g = rand_complex(rng, (n, n))
    h = (g + g.conj().T) / 2
    if norm is not None:
        top = np.linalg.norm(h, 2)
        if top > 0:
            h *= norm / top
    return h


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_complex(rng, (n, n)))
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def rand_projection(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    q, _ = np.linalg.qr(rand_complex(rng, (n, rank)))
    return q @ q.conj().T


def rand_psd(rng: np.random.Generator, n: int, norm: float = 1.0) -> np.ndarray:
    g = rand_complex(rng, (n, n))
    h = g @ g.conj().T
    top = np.linalg.norm(h, 2)
    return h * (norm / top) if top > 0 else h


def two_cluster_hermitian(rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
    """Positive contraction with spectrum inside [0, eps] u [1-eps, 1]."""
    low = rng.uniform(0.0, eps, size=n // 2)
    high = rng.uniform(1.0 - eps, 1.0, size=n - n // 2)
    w = np.concatenate([low, high])
    u = rand_unitary(rng, n)
    return u @ np.diag(w) @ u.conj().T


def identity_map(n: int) -> CPMap:
    alg = FiniteDimAlgebra([n])
    arr = np.zeros((n, n, n, n), complex)
    for j in range(n):
        for k in range(n):
            arr[j, k, j, k] = 1.0
    return CPMap(alg, alg, {(0, 0): arr})


def cpmap_from_block_choi(
    block_sizes: list[int], codomain_n: int, chois: list[np.ndarray]
) -> CPMap:
    """Assemble a map from per-block Choi matrices (d_i N x d_i N, PSD)."""
    dom = FiniteDimAlgebra(block_sizes)
    cod = FiniteDimAlgebra([codomain_n])
    images = {}
    for i, d in enumerate(block_sizes):
        arr = np.zeros((d, d, codomain_n, codomain_n), complex)
        C = chois[i]
        for j in range(d):
            for k in range(d):
                arr[j, k] = C[j * codomain_n : (j + 1) * codomain_n, k * codomain_n : (k + 1) * codomain_n]
        images[(i, 0)] = arr
    return CPMap(dom, cod, images)


def rand_cp_contraction(
    rng: np.random.Generator, block_sizes: list[int], codomain_n: int
) -> CPMap:
    """Random completely positive contraction with ||phi(1)|| = 1."""
    chois = []
    for d in block_sizes:
        g = rand_complex(rng, (d * codomain_n, d * codomain_n))
        chois.append(g @ g.conj().T)
    phi = cpmap_from_block_choi(block_sizes, codomain_n, chois)
    nrm = phi.apply_one().norm()
    images = {key: arr / nrm for key, arr in phi.images.items()}
    return CPMap(phi.domain, phi.codomain, images)


def rand_order_zero(
    rng: np.random.Generator,
    block_sizes: list[int],
    mult: int,
    spectrum_range: tuple[float, float] = (0.2, 1.0),
) -> CPMap:
    """Random order-zero map: a unitary conjugate of x -> x (x) D per block.

    Blocks land in orthogonal corners of the codomain, which has size
    sum(d_i * mult).
    """
    total = sum(d * mult for d in block_sizes)
    dom = FiniteDimAlgebra(block_sizes)
    cod = FiniteDimAlgebra([total])
    u = rand_unitary(rng, total)
    images = {}
    offset = 0
    for i, d in enumerate(block_sizes):
        diag = rng.uniform(*spectrum_range, size=mult)
        diag[rng.integers(0, mult)] = spectrum_range[1]  # keep the block norm at the top
        arr = np.zeros((d, d, total, total), complex)
        for j in range(d):
            for k in range(d):
                e = np.zeros((d, d))
                e[j, k] = 1.0
                small = np.kron(e, np.diag(diag))
                big = np.zeros((total, total), complex)
                big[offset : offset + d * mult, offset : offset + d * mult] = small
                arr[j, k] = u @ big @ u.conj().T
        images[(i, 0)] = arr
        offset += d * mult
    phi = rand_rescale_to_contraction(CPMap(dom, cod, images))
    return phi


def near_order_zero(rng: np.random.Generator, block_sizes: list[int], copies: int, noise: float) -> CPMap:
    """(1 - noise) phi + noise psi: phi the direct sum of ``copies`` random order-zero
    maps into equal codomain blocks, psi a random c.p. contraction into the first.

    With ``noise`` zero the map is order zero; small noise puts the order-zero
    defects near the certification thresholds.
    """
    parts = [rand_order_zero(rng, block_sizes, int(rng.integers(1, 3))) for _ in range(copies)]
    cod = FiniteDimAlgebra([p.codomain.block_sizes[0] for p in parts])
    psi = rand_cp_contraction(rng, block_sizes, cod.block_sizes[0])
    images = {}
    for c, p in enumerate(parts):
        for i in range(len(block_sizes)):
            arr = (1 - noise) * p.images[(i, 0)]
            images[(i, c)] = arr + noise * psi.images[(i, 0)] if c == 0 and noise else arr
    return CPMap(parts[0].domain, cod, images)


def rand_rescale_to_contraction(phi: CPMap) -> CPMap:
    nrm = phi.apply_one().norm()
    if nrm <= 1.0:
        return phi
    images = {key: arr / nrm for key, arr in phi.images.items()}
    return CPMap(phi.domain, phi.codomain, images)


def interval_chain_cover(space: FiniteMetricSpace) -> Cover:
    xs = space.coords[:, 0]
    return Cover(
        [
            frozenset(np.flatnonzero((xs >= -1e-9) & (xs <= 0.4 + 1e-9)).tolist()),
            frozenset(np.flatnonzero((xs >= 0.3 - 1e-9) & (xs <= 0.7 + 1e-9)).tolist()),
            frozenset(np.flatnonzero((xs >= 0.6 - 1e-9) & (xs <= 1.0 + 1e-9)).tolist()),
        ]
    )


def three_arcs_cover(npts: int) -> Cover:
    """Pairwise-intersecting arcs on a circle grid with empty triple intersection."""
    third = npts // 3
    pad = max(npts // 20, 2)
    return Cover(
        [
            frozenset(range(0, third + pad)),
            frozenset(range(third, 2 * third + pad)),
            frozenset(list(range(2 * third, npts)) + list(range(0, pad))),
        ]
    )


def matrix_path_approximation(overlap: float = 1e-6):
    """Two-block approximation whose extraction exercises the matrix machinery.

    Four far-apart points; the first block of F = M_2 + M_2 sees the first two
    points through slightly non-orthogonal projections, so the spectral
    thresholds produce overlapping projections that the family
    orthogonalization has to repair.
    """
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    space = FiniteMetricSpace.from_coords(pts)
    cover = Cover([frozenset({0, 1}), frozenset({2, 3})])
    a = np.arcsin(overlap)
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    P = np.diag([1.0, 0.0]).astype(complex)
    Q = R @ np.diag([0.0, 1.0]) @ R.T
    s = 1.0 / np.linalg.norm(P + Q, 2)
    B0 = R @ np.diag([1.0, 0.0]) @ R.T
    B1 = np.diag([0.0, 1.0]).astype(complex)

    F = FiniteDimAlgebra([2, 2])
    fun = function_algebra(space)
    psi_images = {
        (0, 0): (s * P).reshape(1, 1, 2, 2),
        (1, 0): (s * Q).reshape(1, 1, 2, 2),
        (2, 1): np.diag([1.0, 0.0]).astype(complex).reshape(1, 1, 2, 2),
        (3, 1): np.diag([0.0, 1.0]).astype(complex).reshape(1, 1, 2, 2),
    }
    psi = CPMap(fun, F, psi_images)
    arr0 = np.zeros((2, 2, 1, 1), complex)
    arr1 = np.zeros((2, 2, 1, 1), complex)
    for j in range(2):
        for k in range(2):
            arr0[j, k, 0, 0] = B0[k, j]
            arr1[j, k, 0, 0] = B1[k, j]
    arr2 = np.zeros((2, 2, 1, 1), complex)
    arr2[0, 0, 0, 0] = 1.0
    arr3 = np.zeros((2, 2, 1, 1), complex)
    arr3[1, 1, 0, 0] = 1.0
    phi = CPMap(
        F,
        fun,
        {(0, 0): arr0, (0, 1): arr1, (1, 2): arr2, (1, 3): arr3},
        codomain_space=space,
    )
    approx = CPApproximation(space, 1, F, psi, phi)
    return space, cover, approx


def with_scaled_psi_image(approx: CPApproximation, scale: float) -> CPApproximation:
    """The approximation with psi's (0, 0) image multiplied by ``scale``."""
    psi = approx.psi
    images = {**psi.images, (0, 0): psi.images[0, 0] * scale}
    psi = CPMap(psi.domain, psi.codomain, images, psi.codomain_space)
    return dataclasses.replace(approx, psi=psi)
