"""The three workloads: seeded inputs, task chains and output checks.

A workload is a fixed list of instances.  Each instance is written to JSON
files at set-up; its task is the chain of ``cprank`` CLI calls a user makes
on it, and its check reads the files that chain wrote.  The program sees only
the generated files.

Instance shapes follow a fixed stratified design, so every seed asks for the
same amount of work; the seed draws what varies within a shape (point
labels, member order, small shifts of coarse covers, random matrices).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

Main = Callable[[list[str]], int]


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


@dataclass
class Instance:
    """One generated input and the facts its check needs."""

    name: str
    files: dict[str, str]  # file name -> JSON text written at set-up
    facts: dict[str, Any] = field(default_factory=dict)
    dir: Path | None = None

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def read(self, name: str) -> Any:
        with open(self.dir / name, encoding="utf-8") as fh:
            return json.load(fh)

    def write(self, name: str, text: str) -> None:
        with open(self.dir / name, "w", encoding="utf-8") as fh:
            fh.write(text)


def _call(main: Main, inst: Instance, group: str, action: str, src: str, dst: str) -> bool:
    return main([group, action, "--in", inst.path(src), "--out", inst.path(dst)]) == 0


# ---------------------------------------------------------------------------
# plain-JSON generators (the benchmark writes the documented schemas itself,
# so a change in cprank.jsonio cannot change the inputs)
# ---------------------------------------------------------------------------

def _grid_metric(kind: str, n: int, ny: int = 0) -> tuple[np.ndarray, float]:
    """Distance matrix and grid spacing of an interval, circle or torus grid."""
    if kind == "interval":
        xs = np.linspace(0.0, 1.0, n)
        return np.abs(xs[:, None] - xs[None, :]), 1.0 / (n - 1)
    if kind == "circle":
        s = np.arange(n) / n
        d = np.abs(s[:, None] - s[None, :])
        return np.minimum(d, 1.0 - d), 1.0 / n
    xs, ys = np.meshgrid(np.arange(n) / n, np.arange(ny) / ny, indexing="ij")
    px, py = xs.reshape(-1), ys.reshape(-1)
    dx = np.abs(px[:, None] - px[None, :])
    dy = np.abs(py[:, None] - py[None, :])
    return np.hypot(np.minimum(dx, 1.0 - dx), np.minimum(dy, 1.0 - dy)), 1.0 / max(n, ny)


def _relabel(metric: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Metric of the same space with point ``i`` renamed ``perm[i]``."""
    inv = np.argsort(perm)
    return metric[np.ix_(inv, inv)]


def _space_json(metric: np.ndarray, coords: np.ndarray | None = None) -> dict:
    if coords is not None:
        return {"coords": coords.tolist(), "metric": "euclidean"}
    return {"metric": metric.tolist()}


def _ball_members(metric: np.ndarray, radius: float) -> list[list[int]]:
    """Open balls around every point, deduplicated in centre order."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for row in metric:
        ball = tuple(np.flatnonzero(row < radius).tolist())
        if ball not in seen:
            seen.add(ball)
            out.append(list(ball))
    return out


def _complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix(m: np.ndarray) -> list:
    return [[_complex(z) for z in row] for row in m]


def _rand_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_rand_complex(rng, (n, n)))
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def _map_json(sizes: list[int], images: list[np.ndarray]) -> dict:
    """Map into M_N given per-block arrays ``images[i][j, k] = phi(e_jk)``."""
    n = images[0].shape[-1]
    units = []
    for i, arr in enumerate(images):
        for j in range(sizes[i]):
            for k in range(sizes[i]):
                if np.any(arr[j, k]):
                    units.append(
                        {"block": i, "row": j, "col": k, "value": {"blocks": [_matrix(arr[j, k])]}}
                    )
    return {
        "domain": {"block_sizes": list(sizes)},
        "codomain": {"matrix": n},
        "unit_images": units,
    }


def rand_unital_cp(rng: np.random.Generator, sizes: list[int], n: int) -> list[np.ndarray]:
    """Random unital c.p. map into M_n (so a contraction with an isometric
    Stinespring dilation): random PSD Choi matrices per block, compressed by
    phi(1)^(-1/2) on both sides."""
    images = []
    for d in sizes:
        g = _rand_complex(rng, (d * n, d * n))
        choi = g @ g.conj().T
        images.append(choi.reshape(d, n, d, n).transpose(0, 2, 1, 3).copy())
    w, v = np.linalg.eigh(sum(np.einsum("jjab->ab", arr) for arr in images))
    s = (v / np.sqrt(w)) @ v.conj().T
    return [np.einsum("ab,jkbc,cd->jkad", s, arr, s) for arr in images]


def rand_order_zero(
    rng: np.random.Generator, sizes: list[int], mult: int, low: float
) -> list[np.ndarray]:
    """Random order-zero map: a unitary conjugate of x -> x (x) D per block.

    Blocks land in orthogonal corners of M_N with N = sum(d_i * mult); the
    diagonal D has entries in [low, 1] and reaches 1.
    """
    total = sum(d * mult for d in sizes)
    u = _rand_unitary(rng, total)
    images = []
    offset = 0
    for d in sizes:
        diag = rng.uniform(low, 1.0, size=mult)
        diag[rng.integers(0, mult)] = 1.0
        arr = np.zeros((d, d, total, total), complex)
        for j in range(d):
            for k in range(d):
                e = np.zeros((d, d))
                e[j, k] = 1.0
                big = np.zeros((total, total), complex)
                big[offset : offset + d * mult, offset : offset + d * mult] = np.kron(e, np.diag(diag))
                arr[j, k] = u @ big @ u.conj().T
        images.append(arr)
        offset += d * mult
    return images


def two_cluster_hermitian(rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
    """Positive contraction with spectrum inside [0, eps] u [1 - eps, 1]."""
    w = np.concatenate(
        [rng.uniform(0.0, eps, size=n // 2), rng.uniform(1.0 - eps, 1.0, size=n - n // 2)]
    )
    u = _rand_unitary(rng, n)
    return u @ np.diag(w) @ u.conj().T


# ---------------------------------------------------------------------------
# independent references used by the checks
# ---------------------------------------------------------------------------

def clique_number(members: list[set[int]]) -> int:
    """Largest pairwise-intersecting subfamily, by networkx on Python sets."""
    import networkx as nx  # only the checks need it, so it stays out of set-up time

    g = nx.Graph()
    g.add_nodes_from(range(len(members)))
    by_point: dict[int, list[int]] = {}
    for idx, m in enumerate(members):
        for p in m:
            by_point.setdefault(p, []).append(idx)
    for owners in by_point.values():
        g.add_edges_from((a, b) for i, a in enumerate(owners) for b in owners[i + 1 :])
    if not members:
        return 0
    _, weight = nx.max_weight_clique(g, weight=None)
    return weight


def cover_order(members: list[set[int]]) -> int:
    counts: dict[int, int] = {}
    for m in members:
        for p in m:
            counts[p] = counts.get(p, 0) + 1
    return max(counts.values(), default=0) - 1


def refines(fine: list[set[int]], coarse: list[set[int]]) -> bool:
    return all(any(m <= big for big in coarse) for m in fine)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def unique_names(insts: list[Instance]) -> list[Instance]:
    """Suffix repeated instance names (a shape may appear more than once)."""
    seen: dict[str, int] = {}
    for inst in insts:
        seen[inst.name] = seen.get(inst.name, 0) + 1
        if seen[inst.name] > 1:
            inst.name += f"-{seen[inst.name]}"
    return insts


class Workload:
    name = ""

    def instances(self, rng: np.random.Generator, tiny: bool) -> list[Instance]:
        raise NotImplementedError

    def run(self, main: Main, inst: Instance) -> bool:
        """The task: every CLI call of the chain, in order; True if all exit 0."""
        raise NotImplementedError

    def check(self, inst: Instance) -> list[str]:
        """Problems found in the outputs the task wrote; empty when correct."""
        raise NotImplementedError

    outputs: tuple[str, ...] = ()


class Refine(Workload):
    """``cover strict-order``, ``cover refine``, ``cover check-refines``.

    Ball covers of interval and circle grids of 40-399 points and torus grids
    from 4x4 to 10x10, at radius 1.1-3.5 spacings (the distribution of
    acceptance criterion 6), on a fixed grid of shapes: a Latin square pairs
    each size stratum with one radius factor.  Above 280 points the list
    keeps two line shapes only, so that a pass stays short.  The seed relabels the points
    of interval and circle grids and shuffles the cover members; the work per
    instance then stays the same from seed to seed.  Torus instances keep the
    canonical labelling: the clique search on their dense cover graphs costs
    up to 3x more or less when the points are relabelled, which would make
    the run length depend on the seed.  Shapes whose clique search runs for
    many seconds (10x9 at 3.1 spacings takes about 20 s) are not in the list.
    """

    name = "refine"
    outputs = ("so.out.json", "rf.out.json", "cr.out.json")
    # (points, radius factor) for both an interval and a circle grid: one size
    # per stratum of 40 points, factors paired with sizes by a fixed
    # Latin-square order.  Above 280 points one grid each: a 1.4 s refinement
    # with about 1600 members (interval, 399 points, 3.5 spacings) and a
    # cheaper one.  One pass takes about 5 s, so a run repeats every task
    # several times.
    LINE_SHAPES = [(40, 2.9), (80, 1.4), (120, 3.4), (160, 2.0), (200, 1.1), (240, 2.6), (280, 1.7)]
    LARGE_LINE_SHAPES = [("circle", 320, 1.4), ("interval", 399, 3.5)]
    TORUS_SHAPES = [
        (4, 4, 1.1), (4, 7, 3.5), (5, 5, 2.3), (5, 9, 1.6), (6, 6, 3.5),
        (6, 10, 2.0), (7, 7, 1.3), (7, 4, 2.9), (8, 8, 2.5), (8, 10, 1.9),
        (9, 9, 3.5), (9, 6, 2.7), (10, 10, 3.5), (10, 5, 3.3), (10, 8, 1.2),
    ]
    # Clique numbers of fixed (unseeded) torus inputs that networkx needs many
    # seconds for; selftest.py re-derives them with networkx.
    KNOWN_OMEGA = {"torus10x10_r3.5": 41}
    TINY_LINE = [(25, 1.5), (36, 3.0)]
    TINY_TORUS = [(4, 4, 1.1), (4, 5, 2.3)]

    def instances(self, rng, tiny):
        out = []
        line = [(kind, n, f) for kind in ("interval", "circle")
                for n, f in (self.TINY_LINE if tiny else self.LINE_SHAPES)]
        for kind, n, factor in line + ([] if tiny else self.LARGE_LINE_SHAPES):
            metric, spacing = _grid_metric(kind, n)
            radius = spacing * factor
            perm = rng.permutation(n)
            metric = _relabel(metric, perm)
            coords = None
            if kind == "interval":
                coords = np.empty((n, 1))
                coords[perm, 0] = np.linspace(0.0, 1.0, n)
            out.append(self._instance(f"{kind}{n}_r{factor}", metric, coords, radius, rng))
        for nx_, ny_, factor in self.TINY_TORUS if tiny else self.TORUS_SHAPES:
            metric, spacing = _grid_metric("torus", nx_, ny_)
            out.append(self._instance(f"torus{nx_}x{ny_}_r{factor}", metric, None, spacing * factor, None))
        return unique_names(out)

    @staticmethod
    def _instance(name, metric, coords, radius, rng) -> Instance:
        members = _ball_members(metric, radius)
        if rng is not None:
            members = [members[i] for i in rng.permutation(len(members))]
        cover = {"members": members}
        space = _space_json(metric, coords)
        return Instance(
            name,
            {"so.json": dumps({"cover": cover}), "rf.json": dumps({"space": space, "cover": cover})},
            {"npts": metric.shape[0], "members": [set(m) for m in members], "cover": cover},
        )

    def run(self, main, inst):
        ok = _call(main, inst, "cover", "strict-order", "so.json", "so.out.json")
        ok = _call(main, inst, "cover", "refine", "rf.json", "rf.out.json") and ok
        refined = inst.read("rf.out.json")["cover"]
        inst.write("cr.json", dumps({"fine": refined, "coarse": inst.facts["cover"]}))
        return _call(main, inst, "cover", "check-refines", "cr.json", "cr.out.json") and ok

    def check(self, inst):
        bad = []
        coarse = inst.facts["members"]
        so, rf, cr = (inst.read(f) for f in self.outputs)
        fine = [set(m) for m in rf["cover"]["members"]]
        omega_in = self.KNOWN_OMEGA.get(inst.name) or clique_number(coarse)
        clique = so["clique"]
        if so["strict_order"] != omega_in - 1:
            bad.append(f"strict-order {so['strict_order']} != clique number - 1 = {omega_in - 1}")
        if len(clique) != so["strict_order"] + 1 or any(
            not (coarse[a] & coarse[b]) for i, a in enumerate(clique) for b in clique[i + 1 :]
        ):
            bad.append("strict-order clique is not a pairwise-intersecting family of that size")
        if rf["input_strict_order"] != omega_in - 1:
            bad.append(f"input_strict_order {rf['input_strict_order']} != {omega_in - 1}")
        if rf["input_order"] != cover_order(coarse):
            bad.append("input_order is not the cover order")
        if set().union(*fine) != set(range(inst.facts["npts"])):
            bad.append("refined cover does not cover the space")
        if not refines(fine, coarse):
            bad.append("refined cover does not refine its input")
        if rf["order"] != cover_order(fine):
            bad.append("order of the refined cover is wrong")
        if rf["strict_order"] > rf["input_order"]:
            bad.append("strict_order exceeds input_order")
        omega_out = clique_number(fine)
        if rf["strict_order"] != omega_out - 1:
            bad.append(f"refined strict_order {rf['strict_order']} != {omega_out - 1}")
        if cr["refines"] is not True or any(
            w is None or not fine[i] <= coarse[w] for i, w in enumerate(cr["witness"])
        ):
            bad.append("check-refines did not confirm the refinement with valid witnesses")
        return bad


class Roundtrip(Workload):
    """``approx build``, ``approx verify``, ``approx extract-cover``.

    The build targets are the extraction targets of a coarse cover (a chain
    of three intervals, or three arcs on a circle) at order n = 1 and the
    tolerance eta / (2 * #targets), as in acceptance criterion 8.  The
    seed relabels the points and shifts the coarse members slightly.  The
    two-block matrix-path instance has no build step: its approximation is
    given, and the task extracts a cover from it.
    """

    name = "roundtrip"
    outputs = ("b.out.json", "v.out.json", "e.out.json")
    # One pass takes about 3.5 s, so a run repeats every task several times.
    SIZES = [
        ("interval", 50), ("circle", 50), ("interval", 60), ("circle", 60),
        ("interval", 75), ("circle", 91),
    ]
    TINY_SIZES = [("interval", 25), ("circle", 24)]
    MATRIX_PATHS = 2

    def instances(self, rng, tiny):
        from cprank.approx import ExtractionConstants, extraction_targets
        from cprank.covers import Cover, FiniteMetricSpace

        eta = ExtractionConstants.for_order(1).eta
        out = []
        for kind, n in self.TINY_SIZES if tiny else self.SIZES:
            metric, _ = _grid_metric(kind, n)
            if kind == "interval":
                shift = float(rng.uniform(-0.02, 0.02))
                xs = np.linspace(0.0, 1.0, n)
                members = [
                    np.flatnonzero((xs >= lo + shift - 1e-9) & (xs <= hi + shift + 1e-9))
                    for lo, hi in ((-1.0, 0.4), (0.3, 0.7), (0.6, 2.0))
                ]
            else:
                third, pad = n // 3, max(n // 20, 2)
                rot = int(rng.integers(0, n))
                arcs = (range(0, third + pad), range(third, 2 * third + pad), range(2 * third, n + pad))
                members = [np.array([(p + rot) % n for p in arc]) for arc in arcs]
            perm = rng.permutation(n)
            metric = _relabel(metric, perm)
            members = [sorted(int(perm[p]) for p in m) for m in members]
            coords = None
            if kind == "interval":
                coords = np.empty((n, 1))
                coords[perm, 0] = np.linspace(0.0, 1.0, n)
            space = _space_json(metric, coords)
            cover = {"members": members}
            targets = extraction_targets(
                FiniteMetricSpace(metric), Cover([frozenset(m) for m in members]), 1
            )
            funcs = [[float(v) for v in f] for f in targets.target_functions()]
            eps = float(eta / (2 * len(funcs)))
            out.append(
                Instance(
                    f"{kind}{n}",
                    {"b.json": dumps({"space": space, "functions": funcs, "epsilon": eps})},
                    {
                        "npts": n,
                        "members": [set(m) for m in members],
                        "verify_tail": f',"functions":{dumps(funcs)},"epsilon":{eps!r}}}',
                        "extract_head": f'{{"space":{dumps(space)},"cover":{dumps(cover)},"n":1,"approximation":',
                    },
                )
            )
        for t in range(0 if tiny else self.MATRIX_PATHS):
            out.append(self._matrix_path(t, float(10 ** rng.uniform(-7, -5))))
        return unique_names(out)

    @staticmethod
    def _matrix_path(t: int, overlap: float) -> Instance:
        """Four far-apart points seen by F = M_2 + M_2 through almost-orthogonal
        projections, so the spectral thresholds overlap and the family
        orthogonalization has real work."""
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        a = math.asin(overlap)
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        p = np.diag([1.0, 0.0])
        q = rot @ np.diag([0.0, 1.0]) @ rot.T
        s = 1.0 / np.linalg.norm(p + q, 2)
        b0 = rot @ np.diag([1.0, 0.0]) @ rot.T
        b1 = np.diag([0.0, 1.0])

        def el(block: int, m: np.ndarray) -> dict:
            blocks = [np.zeros((2, 2)), np.zeros((2, 2))]
            blocks[block] = m
            return {"blocks": [_matrix(b.astype(complex)) for b in blocks]}

        psi_units = [
            {"block": x, "row": 0, "col": 0, "value": el(blk, m)}
            for x, blk, m in ((0, 0, s * p), (1, 0, s * q), (2, 1, np.diag([1.0, 0.0])), (3, 1, np.diag([0.0, 1.0])))
        ]
        space = {"coords": pts.tolist(), "metric": "euclidean"}
        fun = {"block_sizes": [1, 1, 1, 1]}
        phi_units = []
        for blk, pairs in ((0, ((0, b0), (1, b1))), (1, ((2, None), (3, None)))):
            for j in range(2):
                for k in range(2):
                    vals = [0.0] * 4
                    for x, b in pairs:
                        vals[x] = b[k, j] if b is not None else float(j == k == x - 2)
                    if any(vals):
                        value = {"blocks": [[[[float(v), 0.0]]] for v in vals]}
                        phi_units.append({"block": blk, "row": j, "col": k, "value": value})
        approx = {
            "F": {"block_sizes": [2, 2]},
            "psi": {"domain": fun, "codomain": {"algebra": {"block_sizes": [2, 2]}}, "unit_images": psi_units},
            "phi": {"domain": {"block_sizes": [2, 2]}, "codomain": {"space": space, "matdim": 1}, "unit_images": phi_units},
        }
        cover = {"members": [[0, 1], [2, 3]]}
        return Instance(
            f"matrix_path{t}",
            {"e.json": dumps({"space": space, "cover": cover, "n": 1, "approximation": approx})},
            {"npts": 4, "members": [{0, 1}, {2, 3}]},
        )

    def run(self, main, inst):
        if "b.json" not in inst.files:
            return _call(main, inst, "approx", "extract-cover", "e.json", "e.out.json")
        ok = _call(main, inst, "approx", "build", "b.json", "b.out.json")
        with open(inst.path("b.out.json"), encoding="utf-8") as fh:
            built = fh.read()
        # the build output carries the approximation fields at its top level;
        # the extra "report" and "seed" fields are ignored by the readers
        inst.write("v.json", '{"approximation":' + built + inst.facts["verify_tail"])
        ok = _call(main, inst, "approx", "verify", "v.json", "v.out.json") and ok
        inst.write("e.json", inst.facts["extract_head"] + built + "}")
        return _call(main, inst, "approx", "extract-cover", "e.json", "e.out.json") and ok

    def check(self, inst):
        bad = []
        if "b.json" in inst.files:
            v = inst.read("v.out.json")
            if not v["within"]:
                bad.append(f"verify: errors {max(v['errors']):.3e} not within epsilon")
            for side in ("psi", "phi"):
                if not (v[side]["cp"] and v[side]["contractive"]):
                    bad.append(f"verify: {side} is not a c.p. contraction")
        e = inst.read("e.out.json")
        failed = [s["step"] for s in e["steps"] if not s["ok"]]
        if failed:
            bad.append(f"extract-cover steps not ok: {failed}")
        if e["order"] > 1:
            bad.append(f"extracted order {e['order']} > n = 1")
        W = [set(m) for m in e["W"]["members"]]
        if not e["refines"] or not refines(W, inst.facts["members"]):
            bad.append("extracted cover does not refine the coarse cover")
        if set().union(*W) != set(range(inst.facts["npts"])):
            bad.append("extracted cover does not cover the space")
        return bad


class Maps(Workload):
    """``cpmap choi``, ``stinespring``, ``order-bounds`` on a random unital
    c.p. map; ``order-zero``, ``decompose``, ``repair`` (order-zero-map) on
    a random order-zero map; ``repair`` (almost-projection) on a two-cluster
    hermitian.  Domains have 1-3 blocks of size 2-8; the block structures
    are fixed, the seed draws the matrices.
    """

    name = "maps"
    outputs = ("choi.out.json", "st.out.json", "ob.out.json", "oz.out.json",
               "dec.out.json", "rz.out.json", "rp.out.json")
    # (domain block sizes, c.p. codomain size, order-zero multiplicity).  One
    # pass takes about 3 s, so a run repeats every task several times.
    SHAPES = [
        ([2], 3, 2), ([3], 4, 2), ([4], 3, 2), ([5], 2, 1), ([6], 2, 1), ([8], 2, 1),
        ([2, 2], 4, 2), ([3, 2], 3, 2), ([3, 3], 2, 1), ([4, 2], 3, 1), ([5, 2], 2, 1),
        ([2, 2, 2], 2, 2), ([3, 2, 2], 3, 1), ([2, 3, 4], 2, 1), ([3, 3, 3], 2, 1), ([4, 3, 2], 2, 1),
        ([5, 2, 2], 2, 1),
    ]
    TINY_SHAPES = [([2], 2, 2), ([2, 2], 2, 1)]
    STEPS = (
        ("choi", "cp", "choi"), ("stinespring", "cp", "st"), ("order-bounds", "cp", "ob"),
        ("order-zero", "oz", "oz"), ("decompose", "oz", "dec"), ("repair", "rz", "rz"),
        ("repair", "rp", "rp"),
    )

    def instances(self, rng, tiny):
        out = []
        for sizes, n, mult in self.TINY_SHAPES if tiny else self.SHAPES:
            cp = _map_json(sizes, rand_unital_cp(rng, sizes, n))
            oz_images = rand_order_zero(rng, sizes, mult, low=0.8)
            one = sum(np.einsum("jjab->ab", arr) for arr in oz_images)
            defect = float(np.linalg.norm(one @ one - one, 2))
            oz = _map_json(sizes, oz_images)
            eps = float(rng.uniform(0.1, 0.2))
            h = [two_cluster_hermitian(rng, d, eps) for d in sizes]
            files = {
                "cp.json": dumps({"map": cp}),
                "oz.json": dumps({"map": oz}),
                "rz.json": dumps({"kind": "order-zero-map", "map": oz, "gamma": min(defect * 1.05 + 1e-9, 0.24)}),
                "rp.json": dumps({
                    "kind": "almost-projection",
                    "algebra": {"block_sizes": sizes},
                    "element": {"blocks": [_matrix(b) for b in h]},
                    "epsilon": eps,
                }),
            }
            out.append(Instance("x".join(map(str, sizes)) + f"_n{n}_m{mult}", files))
        return unique_names(out)

    def run(self, main, inst):
        ok = True
        for action, src, dst in self.STEPS:
            ok = _call(main, inst, "cpmap", action, f"{src}.json", f"{dst}.out.json") and ok
        return ok

    def check(self, inst):
        bad = []
        choi, st, ob, oz, dec, rz, rp = (inst.read(f) for f in self.outputs)
        if not choi["psd"]:
            bad.append("choi: c.p. contraction reported not PSD")
        if not st["isometry"]:
            bad.append("stinespring: V is not an isometry")
        if not ob["lower"] <= ob["upper"]:
            bad.append(f"order-bounds: lower {ob['lower']} > upper {ob['upper']}")
        if not oz["order_zero"]:
            bad.append(f"order-zero: not certified: {oz['witnesses'][:2]}")
        if not dec["reconstruction_defect"] <= 1e-9:
            bad.append(f"decompose: reconstruction defect {dec['reconstruction_defect']:.3e}")
        if not rz["hom_defect"] <= 1e-9:
            bad.append(f"repair: homomorphism defect {rz['hom_defect']:.3e}")
        if not rz["norm_measured"] <= rz["norm_bound"]:
            bad.append("repair: perturbation above 12 gamma + 2 sqrt(gamma)")
        if not rp["distance"] < rp["bound"]:
            bad.append(f"repair: almost-projection distance {rp['distance']:.3e} >= {rp['bound']:.3e}")
        return bad


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Refine(), Roundtrip(), Maps())}
