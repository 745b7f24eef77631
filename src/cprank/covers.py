"""Finite metric models, covers, nerves, and the strict-order refinement.

A space is a finite point set with an explicit metric; covers are families of
point-index sets.  The order of a cover counts overlaps at points, the strict
order counts pairwise-intersecting subfamilies (a clique number), and the
refinement construction pushes any cover below its order through the
barycentric subdivision of its nerve, realized combinatorially by weight
level sets: one argsort of the partition of unity gives every point its chain
of nerve faces, each a mask of members.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass
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


def interval_grid(n: int) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_coords(np.linspace(0.0, 1.0, n))


def circle_grid(n: int, circumference: float = 1.0) -> FiniteMetricSpace:
    s = np.arange(n) * (circumference / n)
    diff = np.abs(s[:, None] - s[None, :])
    metric = np.minimum(diff, circumference - diff)
    coords = np.stack(
        [np.cos(2 * np.pi * s / circumference), np.sin(2 * np.pi * s / circumference)], axis=1
    ) * (circumference / (2 * np.pi))
    return FiniteMetricSpace(metric, coords)


def torus_grid(nx: int, ny: int) -> FiniteMetricSpace:
    px, py = np.meshgrid(np.arange(nx) * (1.0 / nx), np.arange(ny) * (1.0 / ny), indexing="ij")
    px, py = px.reshape(-1), py.reshape(-1)
    dx = np.abs(px[:, None] - px[None, :])
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.abs(py[:, None] - py[None, :])
    dy = np.minimum(dy, 1.0 - dy)
    return FiniteMetricSpace(np.hypot(dx, dy), np.stack([px, py], axis=1))


def disjoint_union(a: FiniteMetricSpace, b: FiniteMetricSpace) -> FiniteMetricSpace:
    """Metric on the disjoint union; cross distances are both diameters plus one."""
    na, nb = a.npts, b.npts
    m = np.full((na + nb, na + nb), a.diameter() + b.diameter() + 1.0)
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
        return not set(range(npts)).difference(*self.members)


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
    balls: dict[frozenset[int], str] = {}  # each ball labelled by its first center
    for c in centers:
        ball = frozenset(np.flatnonzero(space.metric[c] < radius).tolist())
        if ball:
            balls.setdefault(ball, f"B({c},{radius:g})")
    return Cover(list(balls), list(balls.values()))


def greedy_net(space: FiniteMetricSpace, spacing: float) -> list[int]:
    """Deterministic greedy net: point joins when no chosen center is within spacing."""
    centers: list[int] = []
    far = np.ones(space.npts, dtype=bool)  # the points at least spacing from every chosen center
    for p in range(space.npts):
        if far[p]:
            centers.append(p)
            far &= space.metric[p] >= spacing
    return centers


def net_ball_cover(space: FiniteMetricSpace, radius: float) -> Cover:
    """Balls around a greedy net with spacing equal to the radius.

    Each point lies strictly within the radius of some net center, so the
    balls cover; the centers are pairwise at least one radius apart, which
    keeps the multiplicity, and with it the cover order, small.
    """
    return ball_cover(space, radius, centers=greedy_net(space, radius))


def member_diameters(space: FiniteMetricSpace, members: list[frozenset[int]]) -> np.ndarray:
    """The diameter of each member, 0 without two points: one gather of the distances
    within the members of each size, so no array is larger than those distances."""
    out = np.zeros(len(members))
    by_size: dict[int, list[int]] = {}
    for n, m in enumerate(members):
        by_size.setdefault(len(m), []).append(n)
    for size, at in by_size.items():
        if size > 1:
            pts = np.array([list(members[n]) for n in at])
            out[at] = space.metric[pts[:, :, None], pts[:, None, :]].max(axis=(1, 2))
    return out


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
        return set().union(*self.faces)

    def dimension(self) -> int:
        return max((len(f) - 1 for f in self.faces), default=-1)


#: most subsets :func:`nerve` enumerates before it refuses a cover
MAX_NERVE_FACES = 1 << 20


def nerve(cover: Cover) -> SimplicialComplex:
    """Nerve of a cover: a face for every subfamily with a common point.

    On a finite model every face arises from the membership set of some
    point, so the nerve is the downward closure of those sets.
    """
    through = point_member_masks(cover.members).values()
    total = sum(1 << mask.bit_count() for mask in through)
    if total > MAX_NERVE_FACES:
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


def oscillation_scale(space: FiniteMetricSpace, rows: Iterable[np.ndarray], level: float) -> float | None:
    """Smallest distance between two points at which some row differs by at
    least ``level``, or None when no row does.

    Rows are folded in one at a time, so memory stays at n^2 whatever their number.
    """
    n = space.npts
    osc = np.zeros((n, n))
    for row in rows:
        np.maximum(osc, np.abs(row[:, None] - row[None, :]), out=osc)
    bad = osc >= level
    np.fill_diagonal(bad, False)
    return float(space.metric[bad].min()) if bad.any() else None


def partition_of_unity(space: FiniteMetricSpace, cover: Cover) -> PartitionOfUnity:
    """Distance-to-complement weights, normalized pointwise.

    The weight of a member at a point is the distance from the point to the
    member's complement (one when the complement is empty), then columns are
    normalized; a point no member sees positively is reported as uncovered.
    """
    n = space.npts
    raw = np.zeros((len(cover.members), n))
    for idx, m in enumerate(cover.members):
        if m and (min(m) < 0 or max(m) >= n):
            raise ValueError(f"member {idx} has a point outside 0..{n - 1}")
        inside = np.fromiter(m, dtype=np.intp, count=len(m))
        if inside.size == n:
            raw[idx, :] = 1.0
            continue
        to_complement = space.metric[inside]
        to_complement[:, inside] = np.inf
        raw[idx, inside] = to_complement.min(axis=1)
    sums = raw.sum(axis=0)
    uncovered = np.flatnonzero(sums <= 0)
    if uncovered.size:
        raise ValueError(f"point {int(uncovered[0])} is not covered (or only degenerately)")
    return PartitionOfUnity(cover, raw / sums)


#: weights closer than this count as one level in :func:`_level_faces`
LEVEL_TOL = 1e-12


def _level_faces(weights: np.ndarray) -> dict[int, list[int]]:
    """Points by member mask of each face in their chain of weight level sets.

    A point's faces are prefixes of its column in descending order: each
    distinct weight above ``LEVEL_TOL`` opens a level unless it lies within
    ``LEVEL_TOL`` of the level's representative, and the face of representative
    ``v`` holds every member of weight at least ``v - LEVEL_TOL``.
    """
    order = np.argsort(-weights, axis=0, kind="stable")
    depth = int((weights > 0).sum(axis=0).max(initial=0))  # faces lie in the positive support
    ranked = np.take_along_axis(weights, order[:depth], axis=0)
    faces: dict[int, list[int]] = {}
    for x, (vals, members) in enumerate(zip(ranked.T.tolist(), order[:depth].T.tolist())):
        mask, top, rep = 0, 0, None
        for v in vals:
            if v <= LEVEL_TOL:
                break
            if rep is None or rep - v > LEVEL_TOL:
                rep = v
                while top < depth and vals[top] >= v - LEVEL_TOL:
                    mask |= 1 << members[top]
                    top += 1
                faces.setdefault(mask, []).append(x)
    return faces


def strict_refinement(space: FiniteMetricSpace, cover: Cover) -> Cover:
    """Refine a cover to strict order at most its order.

    Weight level sets assign to each point a chain of nerve faces; the member
    of the refinement indexed by a face collects the points whose chain
    contains it.  Members can only intersect when their faces are comparable,
    so pairwise-intersecting subfamilies are chains in the subdivided nerve
    and their size is bounded by the order plus one.
    """
    return refine_with_strict_order(space, cover)[0]


def refine_with_strict_order(space: FiniteMetricSpace, cover: Cover) -> tuple[Cover, int]:
    """:func:`strict_refinement` and the exact strict order of the refined
    cover, found by its self-check's clique search."""
    if not cover.is_covering(space.npts):
        raise ValueError("cover does not cover the space")
    faces = _level_faces(partition_of_unity(space, cover).weights)
    keyed = sorted((mask.bit_count(), mask_indices(mask), mask) for mask in faces)
    members = [faces[mask] for _, _, mask in keyed]
    labels = ["{" + ",".join(map(str, vertices)) + "}" for _, vertices, _ in keyed]
    out = Cover(members, labels)

    if not out.is_covering(space.npts):
        raise AssertionError("refinement lost points")
    ok, _ = refines(out, cover)
    if not ok:
        raise AssertionError("refinement does not refine the input")
    strict = cover_strict_order(out)
    if strict > cover_order(cover):
        raise AssertionError("refinement exceeded the order bound")
    return out, strict
