"""Completely positive approximations of function systems, both directions.

Forward: build a triple (F, psi, phi) with abelian F from evaluations and a
subordinate partition, with the approximation error controlled by the
oscillation of the targets over the cover used.  Backward: extract from a
good enough approximation an open cover of controlled order that refines a
given one, following the constant schedule C, beta, alpha, theta, eta and
verifying every named inequality along the way.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgebraElement, Check, FiniteDimAlgebra, eigh_canonical
from .covers import (
    Cover,
    FiniteMetricSpace,
    cover_order,
    disjoint_union,
    mask_indices,
    member_diameter,
    net_ball_cover,
    oscillation_scale,
    partition_of_unity,
    point_member_masks,
    refine_with_strict_order,
    refines,
    strict_refinement,
)
from .cpmaps import (
    CPMap,
    OrderBounds,
    certify_order_zero,
    strict_order_abelian,
    strict_order_bounds,
    tensor_with_identity,
)
from .projections import alpha_for, orthogonalize_family

#: closed-comparison slack for strict thresholds on computed doubles
SNAP = 1e-12


class StepFailure(RuntimeError):
    """A named inequality of the extraction pipeline failed."""

    def __init__(self, step: str, message: str, data: dict | None = None):
        super().__init__(f"{step}: {message}")
        self.step = step
        self.data = data or {}


def _above(values: np.ndarray, threshold: float) -> np.ndarray:
    return values > threshold - SNAP


# ---------------------------------------------------------------------------
# function systems over a finite model
# ---------------------------------------------------------------------------

def function_algebra(space: FiniteMetricSpace, matdim: int = 1) -> FiniteDimAlgebra:
    """The block algebra of matrix-valued functions on a finite point set."""
    return _equal_blocks(space.npts, matdim)


@lru_cache(maxsize=32)
def _equal_blocks(count: int, r: int) -> FiniteDimAlgebra:
    return FiniteDimAlgebra((r,) * count)


def _function_rows(space: FiniteMetricSpace, values, matdim: int) -> np.ndarray:
    """A batch of functions as one complex ``(B, npts)`` or ``(B, npts, m, m)`` array."""
    vals = np.asarray(values, dtype=complex)
    tail = (space.npts,) if matdim == 1 else (space.npts, matdim, matdim)
    if vals.shape[1:] != tail:
        raise ValueError(f"functions have shape {vals.shape}, expected (count,) + {tail}")
    return vals


def _function_batch(space: FiniteMetricSpace, values, matdim: int) -> AlgebraElement:
    """A batch of functions as one element of the function algebra, its point
    slots first and the batch after them, as :meth:`CPMap.apply` takes it."""
    vals = _function_rows(space, values, matdim)
    stack = vals.reshape(vals.shape[:2] + (matdim, matdim)).swapaxes(0, 1).copy()
    return AlgebraElement.from_stacks(function_algebra(space, matdim), [stack])


def _batch_values(elem: AlgebraElement) -> np.ndarray:
    """Pointwise values of a batch of function-algebra elements, one row each."""
    (vals,) = elem.stacks
    rows = vals.swapaxes(0, 1)
    return rows[:, :, 0, 0] if rows.shape[-1] == 1 else rows


# ---------------------------------------------------------------------------
# the approximation triple
# ---------------------------------------------------------------------------

@dataclass
class BuildReport:
    base_cover: Cover
    base_order: int
    cover: Cover
    radius: float
    errors: list[float]
    phi_strict_order: int


@dataclass
class CPApproximation:
    """A triple (F, psi, phi) through a finite-dimensional algebra.

    ``psi`` maps functions on the space into F, ``phi`` maps F back to
    functions.  ``evaluation_points`` are the points psi evaluates at, kept
    for serialisation; every value is computed through psi and phi.
    """

    space: FiniteMetricSpace
    matdim: int
    F: FiniteDimAlgebra
    psi: CPMap
    phi: CPMap
    evaluation_points: list[int] | None = None
    report: BuildReport | None = None

    @property
    def weights(self) -> np.ndarray | None:
        """phi as scalar weight functions, one row per block of an abelian F."""
        if self.matdim != 1 or not self.F.is_abelian():
            return None
        rows = _values_of(self.phi, [(l, np.eye(1)) for l in range(self.F.num_blocks)])
        return np.ascontiguousarray(_real(rows))

    def compose_values(self, values: np.ndarray) -> np.ndarray:
        """Pointwise values of phi(psi(f)) for a batch of functions, stacked as
        ``(B, npts)`` or ``(B, npts, m, m)``."""
        return self._through_F(values)[1]

    def _through_F(self, values: np.ndarray) -> tuple[AlgebraElement, np.ndarray]:
        """psi of a batch of functions, and the pointwise values of phi of it:
        one psi and one phi apply for the whole batch."""
        image = self.psi.apply(_function_batch(self.space, values, self.matdim))
        return image, _batch_values(self.phi.apply(image))

    def errors_on(self, funcs) -> list[float]:
        """sup-norm errors ||phi psi (f) - f||, one per function of the batch."""
        vals = _function_rows(self.space, funcs, self.matdim)
        diff = self.compose_values(vals) - vals
        if self.matdim == 1:
            return np.abs(diff).max(axis=1).tolist()
        return np.linalg.svd(diff, compute_uv=False).max(axis=(1, 2)).tolist()

    def error_on(self, values: np.ndarray) -> float:
        """sup-norm error ||phi psi (f) - f|| of one function."""
        return self.errors_on([values])[0]


def _prune_to_exclusive(
    members: list[frozenset[int]], labels: list[str]
) -> tuple[list[frozenset[int]], list[str], list[int]]:
    """Drop duplicate members, then members without a point of their own.

    A point is a member's own when that member is the only one through it.
    Returns the kept members and labels with each member's lowest own point.
    """
    first: dict[frozenset[int], str] = {}
    for m, l in zip(members, labels):
        first.setdefault(m, l)
    mem, lab = list(first), list(first.values())
    while True:
        own: dict[int, int] = {}
        for p, mask in point_member_masks(mem).items():
            if mask.bit_count() == 1:
                idx = mask.bit_length() - 1
                own[idx] = min(p, own.get(idx, p))
        drop = next((idx for idx in range(len(mem)) if idx not in own), None)
        if drop is None:
            return mem, lab, [own[idx] for idx in range(len(mem))]
        del mem[drop], lab[drop]


def build_cp_approx(
    space: FiniteMetricSpace,
    a_list: list[np.ndarray],
    eps: float,
    base_radius: float | None = None,
) -> CPApproximation:
    """Approximation through an abelian algebra: evaluations against a partition.

    Picks a ball scale at which every target oscillates by less than 2/3 of
    the tolerance, refines the net ball cover to low strict order, prunes it
    so each member owns an exclusive point, and wires up evaluations at those
    points against the subordinate partition of unity.  On a compact finite
    model the partition sums to one everywhere, so the error is bounded by
    the oscillation.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if space.npts == 0:
        raise ValueError("empty space")
    funcs = [np.asarray(f, dtype=complex).reshape(-1) for f in a_list]
    for f in funcs:
        if f.shape != (space.npts,):
            raise ValueError("function length does not match the space")

    if base_radius is None:
        dmin = oscillation_scale(space, funcs, (2.0 / 3.0) * eps)
        if dmin is None:
            radius = space.diameter() + 1.0
        elif dmin <= 0:
            raise ValueError("duplicate points carry conflicting values")
        else:
            radius = dmin / 2.0
    else:
        radius = base_radius

    base = net_ball_cover(space, radius)
    cover = strict_refinement(space, base)
    members, labels, exclusive = _prune_to_exclusive(
        list(cover.members), list(cover.labels or [str(i) for i in range(len(cover))])
    )
    cover = Cover(members, labels)
    if not cover.is_covering(space.npts):
        raise AssertionError("pruning lost coverage")

    pou = partition_of_unity(space, cover)
    weights = pou.weights
    s = len(cover.members)
    F = FiniteDimAlgebra((1,) * s)
    fun_alg_unit = np.ones((1, 1, 1, 1), dtype=complex)

    psi_images = {(exclusive[l], l): fun_alg_unit for l in range(s)}
    psi = CPMap(function_algebra(space), F, psi_images)
    phi_images = {(int(l), int(x)): weights[l, x] * fun_alg_unit for l, x in np.argwhere(weights > 0)}
    phi = CPMap(F, function_algebra(space), phi_images, codomain_space=space, codomain_matdim=1)

    approx = CPApproximation(space, 1, F, psi, phi, exclusive)
    errors = approx.errors_on(funcs)
    if base_radius is None and any(e > eps for e in errors):
        raise AssertionError(f"builder exceeded its tolerance: errors {errors}")

    order = strict_order_abelian(phi)
    approx.report = BuildReport(base, cover_order(base), cover, radius, errors, order)
    return approx


@dataclass
class VerifyReport:
    errors: list[float]
    within: bool
    psi_cp: bool
    psi_contractive: bool
    psi_norm: float
    phi_cp: bool
    phi_contractive: bool
    phi_norm: float
    phi_order: OrderBounds


def verify_cp_approx(approx: CPApproximation, a_list: list[np.ndarray], eps: float) -> VerifyReport:
    """Errors on the given functions plus the structural verdicts for psi and phi."""
    errors = approx.errors_on(a_list)
    psi_norm = approx.psi.apply_one().norm()
    phi_norm = approx.phi.apply_one().norm()
    return VerifyReport(
        errors,
        all(e <= eps for e in errors),
        approx.psi.is_completely_positive(),
        psi_norm <= 1.0 + 1e-9,
        psi_norm,
        approx.phi.is_completely_positive(),
        phi_norm <= 1.0 + 1e-9,
        phi_norm,
        strict_order_bounds(approx.phi),
    )


def tensor_approx(approx: CPApproximation, r: int) -> CPApproximation:
    """Approximation of matrix-valued functions by tensoring both maps with M_r.

    Strict order is unchanged: it cannot grow under tensoring, and a clique
    witness survives by fixing one minimal projection of the matrix factor.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not approx.F.is_abelian():
        raise ValueError("tensoring is implemented over abelian approximations")
    if r == 1:
        return approx
    psi = tensor_with_identity(approx.psi, r)
    phi = tensor_with_identity(approx.phi, r)
    return CPApproximation(
        approx.space, approx.matdim * r, phi.domain, psi, phi, approx.evaluation_points, approx.report
    )


def direct_sum_approx(a: CPApproximation, b: CPApproximation) -> CPApproximation:
    """Combine approximations on the disjoint union of the underlying spaces."""
    if a.matdim != b.matdim:
        raise ValueError("summands must share the matrix dimension")
    space = disjoint_union(a.space, b.space)
    m = a.matdim
    na = a.space.npts
    sa = a.F.num_blocks
    F = FiniteDimAlgebra(tuple(a.F.block_sizes) + tuple(b.F.block_sizes))
    fun_alg = function_algebra(space, m)

    psi_images = dict(a.psi.images)
    psi_images.update({(x + na, l + sa): arr for (x, l), arr in b.psi.images.items()})
    psi = CPMap(fun_alg, F, psi_images)

    phi_images = dict(a.phi.images)
    phi_images.update({(l + sa, x + na): arr for (l, x), arr in b.phi.images.items()})
    phi = CPMap(F, fun_alg, phi_images, codomain_space=space, codomain_matdim=m)

    eval_pts = None
    if a.evaluation_points is not None and b.evaluation_points is not None:
        eval_pts = list(a.evaluation_points) + [x + na for x in b.evaluation_points]
    return CPApproximation(space, m, F, psi, phi, eval_pts)


# ---------------------------------------------------------------------------
# the cover extraction pipeline
# ---------------------------------------------------------------------------

@dataclass
class ExtractionConstants:
    n: int
    C: float
    beta: float
    alpha: float
    theta: float
    eta: float

    @classmethod
    def for_order(cls, n: int) -> "ExtractionConstants":
        C = 1.0 / (2.0 * (n + 1))
        beta = C / 2.0
        alpha = alpha_for(n + 1, beta, order=n if n >= 1 else None)
        theta = 1.0 / alpha
        eta = (1.0 - theta) * C / 2.0
        return cls(n, C, beta, alpha, theta, eta)

    def verify_identities(self) -> dict[str, float]:
        out = {
            "eta/C": self.eta / self.C,
            "1/(n+2)": 1.0 / (self.n + 2),
            "beta": self.beta,
            "1/(4(n+1))": 1.0 / (4.0 * (self.n + 1)),
        }
        if out["eta/C"] > out["1/(n+2)"] + 1e-12:
            raise AssertionError("constant identity eta/C <= 1/(n+2) failed")
        if abs(out["beta"] - out["1/(4(n+1))"]) > 1e-15:
            raise AssertionError("constant identity beta = 1/(4(n+1)) failed")
        return out


@dataclass
class ExtractionTargets:
    """The internal fine cover, its partition, and the constants for a run."""

    constants: ExtractionConstants
    delta: float
    V: Cover
    weights: np.ndarray  # partition of unity subordinate to V

    def target_functions(self) -> list[np.ndarray]:
        return [self.weights[l] for l in range(self.weights.shape[0])]


def extraction_targets(space: FiniteMetricSpace, U: Cover, n: int) -> ExtractionTargets:
    """Derive the fine cover whose partition sums the approximation must track.

    The modulus of continuity of the coarse partition at level 1/|U| fixes
    delta; the fine cover keeps member diameters below delta/(3(n+1)).
    """
    if not U.is_covering(space.npts):
        raise ValueError("U does not cover the space")
    constants = ExtractionConstants.for_order(n)
    constants.verify_identities()
    fpou = partition_of_unity(space, U)
    delta = oscillation_scale(space, fpou.weights, 1.0 / len(U.members))
    if delta is None:
        delta = space.diameter() + 1.0
    diam_bound = delta / (3.0 * (n + 1))
    radius = 0.49 * diam_bound
    V = net_ball_cover(space, radius)
    worst = max(member_diameter(space, m) for m in V.members)
    if worst >= diam_bound:
        raise AssertionError(f"fine cover diameter {worst:.6g} reached the bound {diam_bound:.6g}")
    pou = partition_of_unity(space, V)
    return ExtractionTargets(constants, delta, V, pou.weights)


@dataclass
class ExtractionReport:
    constants: ExtractionConstants
    identities: dict[str, float]
    delta: float
    checks: list[Check]
    eta_checks: list[Check]
    linearity_certificate: float
    A_sets: list[frozenset[int]]
    classes: list[list[list[int]]]
    V_tilde: dict[tuple[int, int], frozenset[int]]
    p_deviations: dict[tuple[int, int], float]
    orthogonalization_nontrivial: bool
    W: Cover
    W_order: int


def _values_of(phi: CPMap, elems: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Pointwise values of phi on single-block domain elements ``(block,
    matrix)``, one row each, from one apply over the batch.  The values are
    complex; :func:`_real` checks a row is real where it is used."""
    stacks = phi.domain.zero_stacks((len(elems),))
    for b, (block, mat) in enumerate(elems):
        g, s = phi.domain.block_slots[block]
        stacks[g][s, b] = mat
    return _batch_values(phi.apply(AlgebraElement.from_stacks(phi.domain, stacks)))


def _real(vals: np.ndarray) -> np.ndarray:
    """Real parts of function values that must be real."""
    if np.abs(vals.imag).max(initial=0.0) > 1e-9:
        raise AssertionError("expected real function values")
    return vals.real


def _diam_failure_data(
    space: FiniteMetricSpace,
    targets: ExtractionTargets,
    psi: CPMap,
    j: int,
    pts: list[int],
    n: int,
) -> dict:
    """Reconstruct the separated-chain data behind a diameter violation.

    Picks points x_0..x_{n+1} pairwise at least 2 delta/(3(n+1)) apart inside
    the offending set, forms the index sets of fine members through each, and
    reports the block components of the summed partition functions together
    with the counting certificate they would violate.
    """
    sep = 2.0 * targets.delta / (3.0 * (n + 1))
    chosen: list[int] = []
    for p in pts:
        if all(space.metric[p, c] >= sep for c in chosen):
            chosen.append(p)
        if len(chosen) == n + 2:
            break
    through = point_member_masks(targets.V.members)
    lam_sets = [mask_indices(through[p]) for p in chosen]
    sums = [targets.weights[lset].sum(axis=0) if lset else np.zeros(space.npts) for lset in lam_sets]
    images = psi.apply(_function_batch(space, sums, 1)).blocks[j]
    return {
        "chain_points": chosen,
        "index_sets": lam_sets,
        "psi_j_norms": [float(np.linalg.norm(img, 2)) for img in images],
        "norm_floor": (n + 1) / (n + 2),
    }


def extract_cover(
    space: FiniteMetricSpace,
    U: Cover,
    n: int,
    approx: CPApproximation,
    targets: ExtractionTargets | None = None,
) -> tuple[Cover, ExtractionReport]:
    """Extract a cover of order at most n refining U from a c.p. approximation.

    The approximation must track the partition sums of the internal fine
    cover within eta (checked lazily on the index sets actually used), and
    every block of its algebra must have dichotomy order at most n.  The
    report carries the constants, the support sets, the equivalence classes,
    the projections before and after orthogonalization, and one named check
    per proof inequality; any failing inequality raises a StepFailure naming
    it.
    """
    if approx.matdim != 1:
        raise ValueError("extraction runs over scalar function systems")
    if targets is None:
        targets = extraction_targets(space, U, n)
    constants = targets.constants
    identities = constants.verify_identities()
    C, beta, alpha, theta, eta = (
        constants.C,
        constants.beta,
        constants.alpha,
        constants.theta,
        constants.eta,
    )
    phi, psi, F = approx.phi, approx.psi, approx.F
    checks: list[Check] = []
    eta_checks: list[Check] = []

    def require(check: Check, message: Callable[[], str], data: Callable[[], dict] | None = None) -> None:
        """Record a named check; a failing one raises its StepFailure, whose
        message and data are built only then."""
        (eta_checks if check.step == "eta" else checks).append(check)
        if not check:
            raise StepFailure(check.step, message(), data() if data else None)

    # strict-order admissibility, blockwise via the dichotomy
    for j, r in enumerate(F.block_sizes):
        if r == 1:
            continue
        block_ok = r - 1 <= n or certify_order_zero(phi.restrict_to_block(j)).ok
        require(
            Check("block-order", float(r - 1), float(n), block_ok, f"block {j}"),
            lambda: f"block {j} has size {r} > n+1 and is not order zero",
        )
    if F.is_abelian():
        order = strict_order_abelian(phi)
        require(
            Check("ord-phi", float(order), float(n), order <= n),
            lambda: f"strict order {order} exceeds n = {n}",
        )

    weights = targets.weights
    nlam = weights.shape[0]

    def eta_check(name: str, err: float) -> None:
        require(
            Check("eta", err, eta, err < eta, name),
            lambda: f"approximation error {err:.6g} on {name} is not below eta = {eta:.6g}",
        )

    # individual-member errors feed the linearity certificate; the full index
    # set is checked against eta in the same batch
    batch = np.vstack([weights, weights[list(range(nlam))].sum(axis=0)])
    errors = np.abs(approx.compose_values(batch) - batch).max(axis=1).tolist()
    individual = max(errors[:nlam])
    eta_check("full index set", errors[nlam])

    # support sets A_j and the equivalence classes over them
    m_blocks = F.num_blocks
    one_vals = _real(_values_of(phi, [(j, np.eye(r, dtype=complex)) for j, r in enumerate(F.block_sizes)]))
    A_sets = [frozenset(np.flatnonzero(_above(v, C)).tolist()) for v in one_vals]
    through = point_member_masks(targets.V.members)
    classes: list[list[list[int]]] = []
    for j in range(m_blocks):
        # members sharing a point of A_j are equivalent; chain through points,
        # joining the members at each point with every class (a member mask)
        # that meets them
        merged: list[int] = []
        for x in A_sets[j]:
            joined = through.get(x, 0)
            for c in merged:
                if c & joined:
                    joined |= c
            if joined:
                merged = [c for c in merged if not c & joined] + [joined]
        classes.append(sorted(mask_indices(c) for c in merged))

    # every class at once: the eta errors of its partition sum h, the psi
    # image of h that q is cut from, then phi(1_j - q) for (1); the classes
    # are then walked in order, as one at a time would meet them
    class_keys = [(j, i) for j in range(m_blocks) for i in range(len(classes[j]))]
    sums = np.reshape(
        [weights[classes[j][i]].sum(axis=0) for j, i in class_keys], (len(class_keys), space.npts)
    )
    images, composed = approx._through_F(sums)
    psi_blocks = images.blocks
    errors = np.abs(composed - sums).max(axis=1).tolist()
    # q is needed only up to the first class that fails eta
    reached = next((k for k, err in enumerate(errors) if err >= eta), len(class_keys))
    q_mats: dict[tuple[int, int], np.ndarray] = {}
    for k, (j, i) in enumerate(class_keys[:reached]):
        blk = psi_blocks[j][k]
        w, vecs = eigh_canonical((blk + blk.conj().T) / 2)
        q_mats[(j, i)] = (vecs * _above(w, theta).astype(float)) @ vecs.conj().T
    rests = _values_of(phi, [(j, np.eye(len(q), dtype=complex) - q) for (j, _), q in q_mats.items()])

    V_tilde: dict[tuple[int, int], frozenset[int]] = {}
    for k, (j, i) in enumerate(class_keys):
        vt = V_tilde[(j, i)] = frozenset().union(*(targets.V.members[l] for l in classes[j][i])) & A_sets[j]
        eta_check(f"class ({j},{i})", errors[k])

        # named inequality (1): phi(1_j - q)(x) < C/2 on the class support
        vals = _real(rests[k])
        sup = max((vals[x] for x in vt), default=0.0)
        require(
            Check("(1)", float(sup), C / 2.0, sup < C / 2.0, f"({j},{i})"),
            lambda: f"phi(1_{j} - q_{j}^{({i})}) reaches {sup:.6g} >= C/2 on its class support",
        )

    worst_lam = max((len(cls) for j in range(m_blocks) for cls in classes[j]), default=1)
    linearity = individual * max(worst_lam, nlam)

    # orthogonalize the q's blockwise
    p_mats: dict[tuple[int, int], np.ndarray] = {}
    p_devs: dict[tuple[int, int], float] = {}
    nontrivial = False
    for j in range(m_blocks):
        idxs = [i for i in range(len(classes[j])) if np.abs(q_mats[(j, i)]).max() > 1e-12]
        require(
            Check("class-count", float(len(idxs)), float(n + 1), len(idxs) <= n + 1, f"block {j}"),
            lambda: f"block {j} carries {len(idxs)} classes > n+1 = {n + 1}",
        )
        if not idxs:
            continue
        r = F.block_sizes[j]
        sub = FiniteDimAlgebra((r,), max_block=r)
        qs = [AlgebraElement(sub, [q_mats[(j, i)]]) for i in idxs]
        sup_norm = sum(qs[1:], qs[0]).norm()
        require(
            Check("sum-alpha", sup_norm, alpha, sup_norm <= alpha + SNAP, f"block {j}"),
            lambda: f"||sum_i q_{j}^(i)|| = {sup_norm:.8g} exceeds alpha = {alpha:.8g}",
        )
        fam = orthogonalize_family(qs, alpha)
        nontrivial = nontrivial or not fam.unchanged
        for pos, i in enumerate(idxs):
            p = fam.projections[pos].blocks[0]
            p_mats[(j, i)] = p
            dev = p_devs[(j, i)] = fam.deviations[pos]
            require(
                Check("beta", dev, beta, dev <= beta + 1e-9, f"({j},{i})"),
                lambda: f"||p - q|| = {dev:.6g} exceeds beta = {beta:.6g}",
            )

    # the covering members W and the remaining named inequalities
    members: list[frozenset[int]] = []
    labels: list[str] = []
    keys: list[tuple[int, int]] = []
    # phi(p) and phi(1_j - p) of every class in one batch
    p_items = [(j, p) for (j, _), p in p_mats.items()]
    p_vals = _values_of(phi, p_items + [(j, np.eye(len(p), dtype=complex) - p) for j, p in p_items])
    for k, ((j, i), p) in enumerate(p_mats.items()):
        vals = _real(p_vals[k])
        w_set = frozenset(np.flatnonzero(_above(vals, C)).tolist())
        rest_vals = _real(p_vals[len(p_mats) + k])
        vt = V_tilde[(j, i)]
        sup = max((rest_vals[x] for x in vt), default=0.0)
        require(
            Check("(*)", float(sup), C, sup < C, f"({j},{i})"),
            lambda: f"phi(1_{j} - p_{j}^{({i})}) reaches {sup:.6g} >= C",
        )
        require(
            Check("W-inside-V", float(len(w_set - vt)), 0.0, w_set <= vt, f"({j},{i})"),
            lambda: f"W_{j}^{({i})} leaves its class support at {sorted(w_set - vt)[:4]}",
        )
        diam = member_diameter(space, vt)
        require(
            Check("diam", diam, targets.delta, diam < targets.delta, f"({j},{i})"),
            lambda: f"diam of the class support ({j},{i}) is {diam:.6g} >= delta = {targets.delta:.6g}",
            lambda: _diam_failure_data(space, targets, psi, j, sorted(vt), n),
        )
        if w_set:
            members.append(w_set)
            labels.append(f"W[{j},{i}]")
            keys.append((j, i))

    W = Cover(members, labels)
    missing = set(range(space.npts)).difference(*W.members)
    require(
        Check("covering", float(len(missing)), 0.0, not missing),
        lambda: f"points {sorted(missing)[:6]} lie in no W member",
    )

    order_W = cover_order(W)
    require(
        Check("order", float(order_W), float(n), order_W <= n), lambda: f"cover order {order_W} exceeds n = {n}"
    )

    # each W member lies inside its class support (W-inside-V), so supports
    # that refine U make W refine U
    _, support_witness = refines(Cover([V_tilde[key] for key in keys]), U)
    for key, target in zip(keys, support_witness):
        require(
            Check("refines", 0.0 if target is not None else 1.0, 0.0, target is not None, str(key)),
            lambda: f"class support {key} fits in no member of U",
        )

    report = ExtractionReport(
        constants,
        identities,
        targets.delta,
        checks,
        eta_checks,
        linearity,
        A_sets,
        classes,
        V_tilde,
        p_devs,
        nontrivial,
        W,
        order_W,
    )
    return W, report


# ---------------------------------------------------------------------------
# scale-probed estimates for commutative systems
# ---------------------------------------------------------------------------

@dataclass
class ScaleEvidence:
    scale: float
    net_size: int
    base_order: int
    refined_strict_order: int
    builder_order: int | None


def estimate_cpr_commutative(
    space: FiniteMetricSpace,
    scales: list[float],
    probes: list[np.ndarray] | None = None,
) -> tuple[int, list[ScaleEvidence]]:
    """Strict order achievable by refined net covers at each probed scale.

    For every scale, the net ball cover is refined and its exact strict order
    recorded; the reported value is the largest of these, an upper bound for
    the strict order achievable at every probed scale.  Builder strict orders
    at matching scales are reported as a cross-check.  The value says nothing
    about other scales; finite models are zero-dimensional in the limit.
    """
    if not scales or any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    evidence = []
    values = []
    for scale in scales:
        base = net_ball_cover(space, scale)
        _, so = refine_with_strict_order(space, base)
        builder_order = None
        if probes:
            builder_order = build_cp_approx(space, probes, eps=1.0, base_radius=scale).report.phi_strict_order
        evidence.append(ScaleEvidence(scale, len(base.members), cover_order(base), so, builder_order))
        values.append(so)
    return max(values), evidence
