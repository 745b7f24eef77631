"""Exact maximum-clique search: bit-parallel branch and bound.

Vertices are 0..n-1; adjacency is one neighbour bitmask per vertex, or a
symmetric boolean matrix in which diagonal entries do not count as edges.
Desk-scale graphs only (hundreds of vertices); the search is
single-threaded and deterministic.

Vertex sets are Python ints used as bitmasks.  The search starts from the
clique of one greedy dive (take the highest-degree candidate left, keep its
neighbours, repeat) and replaces it only with a strictly larger clique, so
the bounds below prune from the root.  At each node the candidate set is
split greedily into colour classes, each an independent set built as one
bitmask; a clique takes at most one vertex per class, so the number of
classes bounds it (Tomita et al., MCS 2010; San Segundo et al., BBMC 2011).
Each class starts at the uncoloured candidate with the most neighbours among
the candidates, as MaxCliqueDyn re-sorts by degree (Konc & Janežič, 2007):
on a dense graph a class is then an edge of the complement matched at its
fewest-neighbours end first (Karp & Sipser, 1981), so fewer classes result.
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
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def mask_indices(mask: int) -> list[int]:
    """Positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def forward_path_bound(masks: list[int]) -> int:
    """Vertices on the longest path that steps only to higher neighbours: an
    upper bound on the clique number, as a clique in ascending order is such a path."""
    ends: list[int] = []  # ends[i]: the vertices seen whose longest such path has i + 1
    for v in range(len(masks) - 1, -1, -1):
        top = len(ends)
        while top and not masks[v] & ends[top - 1]:
            top -= 1
        if top == len(ends):
            ends.append(0)
        ends[top] |= 1 << v
    return len(ends)


def _color_classes(cand: int, masks: list[int]) -> list[int]:
    """Greedy colouring of ``cand``: class c (colour c + 1) starts at the
    uncoloured vertex with the most neighbours in ``cand`` (the lowest on
    ties), then takes the lowest vertex left, drops its neighbours, and
    repeats until nothing is left."""
    verts = []
    rest = cand
    while rest:
        low = rest & -rest
        verts.append(low.bit_length() - 1)
        rest ^= low
    classes = []
    # a stable sort: equal degrees keep the ascending vertex order
    for v in sorted(verts, key=lambda u: (masks[u] & cand).bit_count(), reverse=True):
        cls = 1 << v
        if not cand & cls:
            continue
        avail = cand & ~(masks[v] | cls)
        while avail:
            low = avail & -avail
            cls |= low
            avail &= ~(masks[low.bit_length() - 1] | low)
        classes.append(cls)
        cand &= ~cls
        if not cand:
            break
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
    """Return one maximum clique of the graph as a sorted vertex list; the
    search of :func:`max_clique_of_masks` on the rows of ``adj``."""
    adj = np.array(adj, dtype=bool)
    n = adj.shape[0]
    if n == 0:
        return []
    if adj.shape != (n, n):
        raise ValueError("adjacency matrix must be square")
    np.fill_diagonal(adj, False)  # self-loops are no edges
    return max_clique_of_masks(_to_masks(adj))


def max_clique_of_masks(masks: list[int]) -> list[int]:
    """One maximum clique, as a sorted vertex list, of the graph whose neighbour
    bitmasks (symmetric, without each vertex's own bit) are ``masks``.
    The search is depth-first over an explicit stack of frames, one per node
    on the current path: its candidate set, colour classes, locked classes,
    and the colour and class members still to branch on.  So it needs no
    Python recursion, however large the clique."""
    n = len(masks)
    if n == 0:
        return []
    # a stable sort on descending degree, for better pruning; relabel only if it moves a vertex
    perm = sorted(range(n), key=lambda v: -masks[v].bit_count())
    pmask = masks
    if perm != list(range(n)):
        pos = sorted(range(n), key=perm.__getitem__)  # the inverse of perm
        pmask = [sum(1 << pos[u] for u in mask_indices(masks[v])) for v in perm]

    def frame(cand: int) -> list:
        classes = _color_classes(cand, pmask)
        return [cand, classes, set(), len(classes), classes[-1]]

    # the incumbent: one greedy dive, taking the highest-degree candidate left
    best: list[int] = []
    cand = (1 << n) - 1
    while cand:
        best.append((cand & -cand).bit_length() - 1)
        cand &= pmask[best[-1]]
    size = len(best)  # a clique is kept only when it has more vertices than this
    current: list[int] = []
    stack = [frame((1 << n) - 1)]
    while stack:
        top = stack[-1]
        cand, classes, locked, colour, cls = top
        # highest colours first, within a class highest vertex first
        while True:
            if not cls:
                colour -= 1
                if colour == 0:
                    break
                cls = classes[colour - 1]
                continue
            v = cls.bit_length() - 1
            cls ^= 1 << v
            # a clique that beats size takes kmin vertices of cand, one from
            # each of kmin distinct classes
            kmin = size - len(current) + 1
            if colour < kmin:
                colour = 0
                break
            free = [i for i in range(kmin - 1) if i not in locked]
            touched = _refutation(pmask[v], classes, free, pmask)
            if touched is None:
                break
            # v stays a candidate for the branches still to come
            locked.update(touched)
        if colour == 0:  # this node is done: back to its parent
            stack.pop()
            if stack:
                stack[-1][0] ^= 1 << current.pop()
            continue
        top[3], top[4] = colour, cls
        current.append(v)
        child = cand & pmask[v]
        if child:
            stack.append(frame(child))
            continue
        if len(current) > size:
            best = current.copy()
            size = len(best)
        top[0] ^= 1 << current.pop()
    return sorted(perm[i] for i in best)
