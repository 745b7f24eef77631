"""Exact maximum-clique search: bit-parallel branch and bound.

Vertices are 0..n-1; adjacency is a symmetric boolean matrix, in which
diagonal entries do not count as edges.  Desk-scale graphs only (hundreds
of vertices); the search is single-threaded and deterministic.

Vertex sets are Python ints used as bitmasks.  At each node the candidate
set is split greedily into colour classes, each an independent set built as
one bitmask; a clique takes at most one vertex per class, so the number of
classes bounds it (Tomita et al., MCS 2010; San Segundo et al., BBMC 2011).
Before branching on a vertex whose colour clears that bound, unit
propagation runs from its neighbourhood over the classes coloured below the
bound: a class left with one allowed vertex forces it, and the allowed set
shrinks to that vertex's neighbourhood.  When a class is left with none,
the vertex and the classes that emptying depends on hold no clique larger
than the number of those classes.  The vertex is then not branched on (it
stays a candidate) and those classes are locked for the rest of the node,
so the refutations found there stay disjoint (the infra-chromatic, or
MaxSAT-style, bound: Li & Quan, MaxCLQ 2010; San Segundo et al., BBMCX
2015).
"""

from __future__ import annotations

import numpy as np


def _to_masks(adj: np.ndarray) -> list[int]:
    cleaned = adj.copy()
    np.fill_diagonal(cleaned, False)
    packed = np.packbits(cleaned, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _color_classes(cand: int, masks: list[int]) -> list[int]:
    """Greedy colouring of ``cand``: class c (colour c + 1) takes the lowest
    vertex left, drops its neighbours, and repeats until nothing is left."""
    classes = []
    while cand:
        avail = cand
        cls = 0
        while avail:
            low = avail & -avail
            cls |= low
            avail &= ~(masks[low.bit_length() - 1] | low)
        classes.append(cls)
        cand &= ~cls
    return classes


def _refutation(
    allowed: int, classes: list[int], free: list[int], masks: list[int]
) -> list[int] | None:
    """Unit propagation from ``allowed`` (a vertex's neighbourhood) over the
    classes indexed by ``free``.

    Returns None when propagation stops without emptying a class.  Otherwise
    returns the emptied class and the forced classes it depends on: walking
    the forcings back, a forced class is needed when it removed a vertex of
    the emptied class or of a class already needed.
    """
    steps = [allowed]  # the allowed set after each forcing
    forced: list[tuple[int, int]] = []  # (class, forced vertex bit) per forcing
    while free:
        rest = []
        for i in free:
            m = classes[i] & allowed
            if not m:
                touched = [i]
                pending = classes[i]
                for j in range(len(forced), 0, -1):
                    if pending & (steps[j - 1] ^ steps[j]):
                        c, u = forced[j - 1]
                        touched.append(c)
                        pending |= classes[c] ^ u
                return touched
            if m & (m - 1):
                rest.append(i)
            else:
                allowed &= masks[m.bit_length() - 1]
                forced.append((i, m))
                steps.append(allowed)
        if len(rest) == len(free):
            return None
        free = rest
    return None


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
    current: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best
        if not cand:
            if len(current) > len(best):
                best = current.copy()
            return
        classes = _color_classes(cand, pmask)
        locked: set[int] = set()
        # highest colours first, within a class highest vertex first
        for colour in range(len(classes), 0, -1):
            cls = classes[colour - 1]
            while cls:
                v = cls.bit_length() - 1
                cls ^= 1 << v
                # a clique that beats best takes kmin vertices of cand, one
                # from each of kmin distinct classes
                kmin = len(best) - len(current) + 1
                if colour < kmin:
                    return
                free = [i for i in range(kmin - 1) if i not in locked]
                touched = _refutation(pmask[v], classes, free, pmask)
                if touched is not None:
                    # v stays a candidate for the branches still to come
                    locked.update(touched)
                    continue
                current.append(v)
                expand(cand & pmask[v])
                current.pop()
                cand ^= 1 << v

    expand((1 << n) - 1)
    return sorted(perm[i] for i in best)
