"""Exact maximum-clique search, branch and bound with a greedy coloring bound.

Vertices are 0..n-1; adjacency is a symmetric boolean matrix, in which
diagonal entries do not count as edges.  Desk-scale graphs only (hundreds
of vertices); the search is single-threaded and deterministic.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def _to_masks(adj: np.ndarray) -> list[int]:
    cleaned = adj.copy()
    np.fill_diagonal(cleaned, False)
    packed = np.packbits(cleaned, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _greedy_color_order(cand: int, masks: list[int]) -> list[tuple[int, int]]:
    """Color the candidate set greedily; return (vertex, color) sorted by color."""
    order: list[tuple[int, int]] = []
    color = 0
    remaining = cand
    while remaining:
        color += 1
        avail = remaining
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append((v, color))
            remaining &= ~(1 << v)
            avail &= ~(1 << v)
            avail &= ~masks[v]
    return order


def max_clique(adj: np.ndarray) -> list[int]:
    """Return one maximum clique of the graph as a sorted vertex list."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    if n == 0:
        return []
    if adj.shape != (n, n):
        raise ValueError("adjacency matrix must be square")
    # order vertices by degree descending for better pruning
    degs = adj.sum(axis=1)
    perm = sorted(range(n), key=lambda v: (-degs[v], v))
    pmask = _to_masks(adj[np.ix_(perm, perm)])

    best: list[int] = []

    def expand(cand: int, current: list[int]) -> None:
        nonlocal best
        if not cand:
            if len(current) > len(best):
                best = current.copy()
            return
        colored = _greedy_color_order(cand, pmask)
        # highest colors first; prune when even the color bound cannot win
        for v, c in reversed(colored):
            if len(current) + c <= len(best):
                return
            current.append(v)
            expand(cand & pmask[v], current)
            current.pop()
            cand &= ~(1 << v)

    expand((1 << n) - 1, [])
    return sorted(perm[i] for i in best)


def max_clique_brute(adj: np.ndarray) -> int:
    """Exhaustive oracle, for graphs of at most ~16 vertices (tests only)."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            if all(adj[a, b] for a, b in combinations(sub, 2)):
                return size
    return 0
