"""Finite metric models, covers, nerves, and the strict-order refinement.

A space is a finite point set with an explicit metric; covers are families of
point-index sets.  The order of a cover counts overlaps at points, the strict
order counts pairwise-intersecting subfamilies (a clique number), and the
refinement construction pushes any cover below its order through the
barycentric subdivision of its nerve, realized combinatorially by weight
level sets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .cliques import max_clique


@dataclass
class FiniteMetricSpace:
    """Finite point set with a symmetric, zero-diagonal distance matrix."""

    metric: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.metric, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("metric must be a square matrix")
        if np.any(m < 0):
            raise ValueError("metric must be nonnegative")
        if np.any(np.diag(m) != 0):
            raise ValueError("metric must have zero diagonal")
        if np.any(m != m.T):
            raise ValueError("metric must be symmetric")
        self.metric = m
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=float)

    @property
    def npts(self) -> int:
        return self.metric.shape[0]

    def diameter(self) -> float:
        return float(self.metric.max()) if self.npts else 0.0

    def check_triangle(self) -> float:
        """Worst triangle-inequality violation; warns instead of raising."""
        d = self.metric
        worst = 0.0
        for k in range(self.npts):
            viol = d - (d[:, [k]] + d[[k], :])
            worst = max(worst, float(viol.max()))
        if worst > 1e-12:
            warnings.warn(f"triangle inequality violated by {worst:.3e}")
        return worst

    @classmethod
    def from_coords(cls, coords: np.ndarray) -> "FiniteMetricSpace":
        pts = np.asarray(coords, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        diff = pts[:, None, :] - pts[None, :, :]
        return cls(np.sqrt((diff**2).sum(axis=2)), pts)


def interval_grid(n: int, length: float = 1.0) -> FiniteMetricSpace:
    xs = np.linspace(0.0, length, n)
    return FiniteMetricSpace.from_coords(xs)


def circle_grid(n: int, circumference: float = 1.0) -> FiniteMetricSpace:
    s = np.arange(n) * (circumference / n)
    diff = np.abs(s[:, None] - s[None, :])
    metric = np.minimum(diff, circumference - diff)
    coords = np.stack(
        [np.cos(2 * np.pi * s / circumference), np.sin(2 * np.pi * s / circumference)], axis=1
    ) * (circumference / (2 * np.pi))
    return FiniteMetricSpace(metric, coords)


def torus_grid(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> FiniteMetricSpace:
    xs = np.arange(nx) * (lx / nx)
    ys = np.arange(ny) * (ly / ny)
    px, py = np.meshgrid(xs, ys, indexing="ij")
    px, py = px.reshape(-1), py.reshape(-1)
    dx = np.abs(px[:, None] - px[None, :])
    dx = np.minimum(dx, lx - dx)
    dy = np.abs(py[:, None] - py[None, :])
    dy = np.minimum(dy, ly - dy)
    return FiniteMetricSpace(np.hypot(dx, dy), np.stack([px, py], axis=1))


def disjoint_union(a: FiniteMetricSpace, b: FiniteMetricSpace, gap: float | None = None) -> FiniteMetricSpace:
    """Metric on the disjoint union; cross distances default to both diameters plus one."""
    if gap is None:
        gap = a.diameter() + b.diameter() + 1.0
    na, nb = a.npts, b.npts
    m = np.full((na + nb, na + nb), gap)
    m[:na, :na] = a.metric
    m[na:, na:] = b.metric
    np.fill_diagonal(m, 0.0)
    return FiniteMetricSpace(m)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

@dataclass
class Cover:
    members: list[frozenset[int]]
    labels: list[str] | None = None

    def __post_init__(self):
        self.members = [frozenset(m) for m in self.members]
        if self.labels is not None and len(self.labels) != len(self.members):
            raise ValueError("labels must match members")

    def __len__(self) -> int:
        return len(self.members)

    def is_covering(self, npts: int) -> bool:
        seen: set[int] = set()
        for m in self.members:
            seen |= m
        return seen >= set(range(npts))

    def masks(self) -> list[int]:
        out = []
        for m in self.members:
            mask = 0
            for p in m:
                mask |= 1 << p
            out.append(mask)
        return out


def point_member_masks(members: list[frozenset[int]]) -> dict[int, int]:
    """Map each point to the bitmask of the members that contain it."""
    masks: dict[int, int] = {}
    for idx, m in enumerate(members):
        bit = 1 << idx
        for p in m:
            masks[p] = masks.get(p, 0) | bit
    return masks


def mask_indices(mask: int) -> list[int]:
    """Positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cover_order(cover: Cover) -> int:
    """Largest number of members through a single point, minus one."""
    through = point_member_masks(cover.members).values()
    return max((mask.bit_count() for mask in through), default=0) - 1


def cover_order_brute(cover: Cover) -> int:
    """Subset-enumeration oracle (tests, at most ~12 members)."""
    best = 0
    masks = cover.masks()
    k = len(masks)
    for size in range(1, k + 1):
        for sub in combinations(range(k), size):
            inter = masks[sub[0]]
            for i in sub[1:]:
                inter &= masks[i]
                if not inter:
                    break
            if inter:
                best = max(best, size)
    return best - 1


def intersection_graph(cover: Cover) -> np.ndarray:
    """Boolean adjacency of the members, an edge where two members meet.

    A member's neighbours are the union, over its points, of the members
    through that point.  The graph records only whether two members meet and
    never counts their common points, so it is exact for overlaps of any size.
    """
    k = len(cover.members)
    through = point_member_masks(cover.members)
    nbytes = (k + 7) // 8
    rows = bytearray()
    for m in cover.members:
        meets = 0
        for p in m:
            meets |= through[p]
        rows += meets.to_bytes(nbytes, "little")
    packed = np.frombuffer(rows, dtype=np.uint8).reshape(k, nbytes)
    adj = np.unpackbits(packed, axis=1, count=k, bitorder="little").view(bool)
    np.fill_diagonal(adj, False)
    return adj


def cover_strict_order(cover: Cover) -> int:
    """Clique number of the intersection graph, minus one (exact)."""
    return max(len(max_clique(intersection_graph(cover))) - 1, 0)


def cover_strict_order_brute(cover: Cover) -> int:
    """Oracle: largest subfamily with no disjoint pair, minus one."""
    masks = cover.masks()
    k = len(masks)
    best = 1 if k else 0
    for size in range(2, k + 1):
        for sub in combinations(range(k), size):
            if all(masks[a] & masks[b] for a, b in combinations(sub, 2)):
                best = max(best, size)
    return max(best - 1, 0)


def refines(fine: Cover, coarse: Cover) -> tuple[bool, list[int | None]]:
    """Whether every member of ``fine`` sits inside some member of ``coarse``.

    The witness maps each fine member to the index of the first containing
    coarse member, or None where containment fails.  Candidates are the
    coarse members through every point of the fine member, intersected as
    bitmasks, so coarse members away from it are never visited.
    """
    through = point_member_masks(coarse.members)
    everything = (1 << len(coarse.members)) - 1
    witness: list[int | None] = []
    for m in fine.members:
        cand = everything
        for p in m:
            cand &= through.get(p, 0)
            if not cand:
                break
        witness.append((cand & -cand).bit_length() - 1 if cand else None)
    return all(w is not None for w in witness), witness


def ball_cover(
    space: FiniteMetricSpace, radius: float, centers: list[int] | None = None
) -> Cover:
    """Open metric balls, one per center (default: every point), deduplicated."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if centers is None:
        centers = list(range(space.npts))
    members: list[frozenset[int]] = []
    labels: list[str] = []
    seen: set[frozenset[int]] = set()
    for c in centers:
        ball = frozenset(np.flatnonzero(space.metric[c] < radius).tolist())
        if ball and ball not in seen:
            seen.add(ball)
            members.append(ball)
            labels.append(f"B({c},{radius:g})")
    return Cover(members, labels)


def greedy_net(space: FiniteMetricSpace, spacing: float) -> list[int]:
    """Deterministic greedy net: point joins when no chosen center is within spacing."""
    centers: list[int] = []
    for p in range(space.npts):
        if all(space.metric[p, c] >= spacing for c in centers):
            centers.append(p)
    return centers


def net_ball_cover(space: FiniteMetricSpace, radius: float) -> Cover:
    """Balls around a greedy net with spacing equal to the radius.

    Each point lies strictly within the radius of some net center, so the
    balls cover; the centers are pairwise at least one radius apart, which
    keeps the multiplicity, and with it the cover order, small.
    """
    return ball_cover(space, radius, centers=greedy_net(space, radius))


def member_diameter(space: FiniteMetricSpace, member: frozenset[int]) -> float:
    pts = sorted(member)
    if len(pts) < 2:
        return 0.0
    sub = space.metric[np.ix_(pts, pts)]
    return float(sub.max())


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

@dataclass
class SimplicialComplex:
    """Downward-closed family of nonempty vertex sets."""

    faces: set[frozenset[int]]
    vertex_labels: dict[int, str] | None = None

    def __post_init__(self):
        self.faces = {frozenset(f) for f in self.faces if f}
        for f in self.faces:
            for sub in combinations(sorted(f), len(f) - 1):
                if sub and frozenset(sub) not in self.faces:
                    raise ValueError(f"face family is not downward closed at {set(f)}")

    @property
    def vertices(self) -> set[int]:
        out: set[int] = set()
        for f in self.faces:
            out |= f
        return out

    def dimension(self) -> int:
        return max((len(f) - 1 for f in self.faces), default=-1)


def nerve(cover: Cover, max_faces: int = 1 << 20) -> SimplicialComplex:
    """Nerve of a cover: a face for every subfamily with a common point.

    On a finite model every face arises from the membership set of some
    point, so the nerve is the downward closure of those sets.
    """
    through = point_member_masks(cover.members).values()
    total = sum(1 << mask.bit_count() for mask in through)
    if total > max_faces:
        raise ValueError(f"nerve enumeration too large ({total} subsets)")
    faces: set[frozenset[int]] = set()
    for mask in through:
        items = mask_indices(mask)
        for size in range(1, len(items) + 1):
            for sub in combinations(items, size):
                faces.add(frozenset(sub))
    labels = {i: (cover.labels[i] if cover.labels else str(i)) for i in range(len(cover.members))}
    return SimplicialComplex(faces, labels)


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """Subdivision: one vertex per face, one face per chain of strict inclusions."""
    faces = sorted(k.faces, key=lambda f: (len(f), sorted(f)))
    index = {f: i for i, f in enumerate(faces)}
    by_size: dict[int, list[frozenset[int]]] = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)

    chains: set[frozenset[int]] = set()

    def extend(chain: list[frozenset[int]]) -> None:
        chains.add(frozenset(index[f] for f in chain))
        top = chain[-1]
        for size in range(len(top) + 1, max(by_size, default=0) + 1):
            for cand in by_size.get(size, []):
                if top < cand:
                    extend(chain + [cand])

    for f in faces:
        extend([f])
    labels = {index[f]: "{" + ",".join(map(str, sorted(f))) + "}" for f in faces}
    return SimplicialComplex(chains, labels)


# ---------------------------------------------------------------------------
# partitions of unity and the strict-order refinement
# ---------------------------------------------------------------------------

@dataclass
class PartitionOfUnity:
    cover: Cover
    weights: np.ndarray  # member x point, columns sum to one on covered points

    def modulus_of_continuity(self, space: FiniteMetricSpace, level: float) -> float:
        """Largest distance below which every weight varies by less than ``level``."""
        n = self.weights.shape[1]
        osc = np.zeros((n, n))
        for row in self.weights:  # member by member keeps memory linear in n^2
            np.maximum(osc, np.abs(row[:, None] - row[None, :]), out=osc)
        bad = osc >= level
        np.fill_diagonal(bad, False)
        if not bad.any():
            return space.diameter() + 1.0
        return float(space.metric[bad].min())


def partition_of_unity(space: FiniteMetricSpace, cover: Cover) -> PartitionOfUnity:
    """Distance-to-complement weights, normalized pointwise.

    The weight of a member at a point is the distance from the point to the
    member's complement (one when the complement is empty), then columns are
    normalized; a point no member sees positively is reported as uncovered.
    """
    n = space.npts
    k = len(cover.members)
    raw = np.zeros((k, n))
    allpts = set(range(n))
    for idx, m in enumerate(cover.members):
        comp = sorted(allpts - m)
        if not comp:
            raw[idx, :] = 1.0
            continue
        inside = sorted(m)
        raw[idx, inside] = space.metric[np.ix_(inside, comp)].min(axis=1)
    sums = raw.sum(axis=0)
    uncovered = np.flatnonzero(sums <= 0)
    if uncovered.size:
        raise ValueError(f"point {int(uncovered[0])} is not covered (or only degenerately)")
    return PartitionOfUnity(cover, raw / sums)


def _level_sets(column: np.ndarray, tol: float = 1e-12) -> list[frozenset[int]]:
    """Nested supports of a weight vector at its distinct positive values."""
    pos = np.flatnonzero(column > tol)
    if pos.size == 0:
        return []
    vals = sorted({float(column[p]) for p in pos}, reverse=True)
    merged: list[float] = []
    for v in vals:
        if not merged or merged[-1] - v > tol:
            merged.append(v)
    out = []
    for v in merged:
        out.append(frozenset(np.flatnonzero(column >= v - tol).tolist()))
    return out


def strict_refinement(space: FiniteMetricSpace, cover: Cover) -> Cover:
    """Refine a cover to strict order at most its order.

    Weight level sets assign to each point a chain of nerve faces; the member
    of the refinement indexed by a face collects the points whose chain
    contains it.  Members can only intersect when their faces are comparable,
    so pairwise-intersecting subfamilies are chains in the subdivided nerve
    and their size is bounded by the order plus one.
    """
    if not cover.is_covering(space.npts):
        raise ValueError("cover does not cover the space")
    pou = partition_of_unity(space, cover)
    member_sets: dict[frozenset[int], set[int]] = {}
    for x in range(space.npts):
        for s in _level_sets(pou.weights[:, x]):
            member_sets.setdefault(s, set()).add(x)
    faces = sorted(member_sets, key=lambda f: (len(f), sorted(f)))
    members = [frozenset(member_sets[f]) for f in faces]
    labels = ["{" + ",".join(map(str, sorted(f))) + "}" for f in faces]
    out = Cover(members, labels)

    if not out.is_covering(space.npts):
        raise AssertionError("refinement lost points")
    ok, _ = refines(out, cover)
    if not ok:
        raise AssertionError("refinement does not refine the input")
    if cover_strict_order(out) > cover_order(cover):
        raise AssertionError("refinement exceeded the order bound")
    return out
