"""Adaptive quadrature over a large disk with small disks excised.

The domain ``B_R \\ union_l B_eps(c_l)`` is split exactly into

* a polar patch around each excised disk: an annulus from the excision
  radius out to a support radius, meshed in (radius, angle) cells, and
* a background over all of ``B_R`` in polar coordinates about the origin,

glued by a radial partition of unity: around each excision a cutoff
equals 1 out to a plateau radius (which covers the excised disk) and falls
to 0 at the support radius.  The patch integrates ``cutoff * f``; the
background integrates ``(1 - sum of cutoffs) * f``, which vanishes
identically on every excised disk, so no cell ever straddles a domain
boundary and the geometry is exact.

The exactness rests only on the two weights summing to 1, not on how
smooth the cutoff is; the smoothness sets the cost.  The cutoff falls
along the C5 smoothstep polynomial of degree 11.  A C-inf ``exp(-1/t)``
blend has derivatives that grow faster than factorially near both ends of
its ramp, and the background's polar cells about the origin, which do
not line up with the holes, needed many small cells to resolve them; the
polynomial has modest derivatives and only C5 kinks at the plateau and
support circles, and reaches the same error target with about half the
cells (Adler-Moser n=3 at the default spec: 10,116 -> 4,524).

Callers name the centres, ``eps`` and ``R``; each hole's cutoff follows
here from its room, the distance to the nearest other centre or to the
truncation circle (counted at ``2 (R - |c|)``).  The plateau is ``1.05
eps`` and the support ``0.49 room`` (``0.495 room`` when eps crowds it),
the widest ramp that keeps the supports disjoint and inside ``B_R``.

Starting cells are eight angular panels per ring.  A patch's rings double
from ``eps`` to its support; the background's break at every ``|c|`` and
``|c| +- support`` and double beyond the outermost support.  A background
panel that meets a hole's support is bisected in angle down to the hole's
angular radius ``asin(support / |c|)``, so both Gauss rules see its dip;
45-degree panels let a small hole slip between their nodes unseen.

Every cell is a rectangle in (r, theta) carrying the polar Jacobian.
Cells are estimated with two independent Gauss-Legendre product rules
(7x7 and 11x11); their difference drives global greedy refinement in
rounds, each splitting the eight worst cells into four, until the summed
error estimate meets the target or the cell budget runs out.  That sum is
kept exact as Shewchuk's partials (the recipe behind ``math.fsum``), new
cells' errors added and split cells' subtracted.  Refinement order is
fixed and every reduction is correctly rounded, so results are bit-for-bit
reproducible.

Cells are estimated in batches from one region, with one call of ``f`` on
all the batch's nodes: the starting cells one ring (the angular panels of
one radial interval) at a time, and the children of a round region by
region, in region order and then pop order, so one call takes at most 32
cells (5,440 nodes).  Every node and per-cell sum is formed exactly as for
a single cell, so batching changes no cell's bits.  It changes which cells
are split: a round splits its eight cells before it sees their children,
so it can split a cell that one split at a time would have left alone,
most where the error sits in one deep chain of cells, such as a pole
inside ``B_R``.  No round splits a cell that would take the cells past the
budget, so an exhausted run stops within three cells of it.  The
background weight loops over the holes with work and temporaries linear in
the nodes: the supports are disjoint, so each node has at most one nonzero
cutoff, and ``1 - cutoff`` of that hole equals the sequential ``1 - sum of
cutoffs``, whose other terms are exact zeros.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureResult", "integrate_excised_disk"]

_NODES_LOW, _WEIGHTS_LOW = np.polynomial.legendre.leggauss(7)
_NODES_HIGH, _WEIGHTS_HIGH = np.polynomial.legendre.leggauss(11)
# one table of 1-D nodes and weights for both rules: the 7 low, then the 11 high
_NODES = np.concatenate([_NODES_LOW, _NODES_HIGH])
_WEIGHTS = np.concatenate([_WEIGHTS_LOW, _WEIGHTS_HIGH])
_LOW, _HIGH = slice(0, len(_NODES_LOW)), slice(len(_NODES_LOW), None)

_MIN_REL_CELL = 1e-9
# Largest truncation radius, with a wide margin: from 2**512 on the polar cell
# weights r dr dtheta leave the floating-point range.
_MAX_RADIUS = 2.0**340
# cells split per refinement round; their children, at most 32 cells and 5,440
# nodes, go to f in one call per region
_BATCH = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Excision radius, truncation radius, and work limits for one integral."""

    epsilon: float
    cutoff_radius: float
    target_abs_error: float = 1e-5
    max_cells: int = 2_000_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive and finite")
        if not (math.isfinite(self.cutoff_radius) and self.cutoff_radius > 0.0):
            raise ValueError("cutoff_radius must be positive and finite")
        if not (math.isfinite(self.target_abs_error) and self.target_abs_error > 0.0):
            raise ValueError("target_abs_error must be positive and finite")
        if self.max_cells < 1:
            raise ValueError("max_cells must be at least 1")


@dataclass(frozen=True)
class QuadratureResult:
    """Value with an absolute error estimate and work accounting.

    ``tail_correction`` is the analytic far-field contribution already
    included in ``value``.  ``converged`` is False when the cell budget ran
    out before the error target was met.
    """

    value: float
    abs_error_estimate: float
    tail_correction: float
    cells_used: int
    converged: bool = True

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0.0:
            raise ValueError("abs_error_estimate must be nonnegative")
        if self.cells_used < 0:
            raise ValueError("cells_used must be nonnegative")


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C5 step of degree 11: 0 for t <= 0, 1 for t >= 1, and between
    ``s(t) = t^6 (462 - 1980 t + 3465 t^2 - 3080 t^3 + 1386 t^4 - 252 t^5)``.

    Evaluated in its Bernstein form ``sum_{k=6}^{11} C(11, k) u^k v^(11-k)``
    with ``v = 1 - u``, whose terms are all positive, at ``u`` the distance
    to the nearer end, and reflected through ``s(t) = 1 - s(1 - t)`` past
    ``t = 1/2`` (where ``1 - t`` is exact): both ends keep their relative
    accuracy and ``s(1/2) = 1/2`` exactly.
    """
    t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
    u = np.minimum(t, 1.0 - t)
    v = 1.0 - u
    r = u / v
    w = u * v
    w2 = w * w
    s = w2 * w2 * w * u * (((((r + 11.0) * r + 55.0) * r + 165.0) * r + 330.0) * r + 462.0)
    return np.where(t > 0.5, 1.0 - s, s)


def _cutoff(r: np.ndarray, plateau: float, support: float) -> np.ndarray:
    """Radial partition-of-unity weight: 1 inside the plateau, 0 past the support."""
    return 1.0 - _smooth_step((r - plateau) / (support - plateau))


_Cell = tuple[float, float, float, float]
# hole centres, plateaus and supports
_Holes = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class _Region:
    """One piece of the partition: a patch (radial cutoff about its centre)
    or the background (complement of all hole cutoffs)."""

    center: complex
    plateau: float | None = None
    support: float | None = None
    holes: _Holes | None = None


def _hole_weight(zs: np.ndarray, holes: _Holes) -> np.ndarray:
    """Background weight ``1 - sum of hole cutoffs`` at the points ``zs``.

    The supports are disjoint, so each point lies inside at most one of
    them; every other cutoff is exactly 0.0 there.  A point is selected by
    ``|z - c|^2 < support^2`` and its distance taken with ``np.abs`` only
    then.  Where the squared test and ``|z - c| < support`` disagree, a few
    ulps from the support, the cutoff is exactly 0.0 and the weight 1.0
    either way.
    """
    w = np.ones(zs.shape)
    dx = np.empty(zs.shape)
    dy = np.empty(zs.shape)
    for c, plateau, support in zip(*(a.tolist() for a in holes)):
        np.subtract(zs.real, c.real, out=dx)
        np.subtract(zs.imag, c.imag, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        near = np.flatnonzero(dx < support * support)
        if near.size:
            dist = np.abs(zs[near] - c)
            w[near] = 1.0 - _cutoff(dist, plateau, support)
    return w


def _cell_estimates(
    f: Callable[[np.ndarray], np.ndarray],
    region: _Region,
    cells: Sequence[_Cell],
) -> tuple[list[complex], list[float]]:
    """High-order values and two-rule error estimates for (r, theta) cells of
    one region, from a single call of ``f`` on all their nodes."""
    r0, r1, t0, t1 = np.array(cells, dtype=np.float64).T
    rh = 0.5 * (r1 - r0)
    th = 0.5 * (t1 - t0)
    # the nodes of both rules along each side of every cell, low rule first
    r = (0.5 * (r0 + r1))[:, None] + rh[:, None] * _NODES
    t = (0.5 * (t0 + t1))[:, None] + th[:, None] * _NODES
    rotor = np.exp(1j * t)
    z_low = region.center + r[:, _LOW, None] * rotor[:, None, _LOW]
    z_high = region.center + r[:, _HIGH, None] * rotor[:, None, _HIGH]
    n_low = z_low.size
    zs = np.concatenate([z_low.ravel(), z_high.ravel()])

    vals = np.asarray(f(zs))
    wr = _WEIGHTS * r
    if region.holes is None:
        wr *= _cutoff(r, region.plateau, region.support)
    else:
        vals = vals * _hole_weight(zs, region.holes)
    wr *= rh[:, None]
    v_low = vals[:n_low].reshape(z_low.shape)
    v_high = vals[n_low:].reshape(z_high.shape)
    wt = _WEIGHTS * th[:, None]
    i_low = np.einsum("ci,cj,cij->c", wr[:, _LOW], wt[:, _LOW], v_low)
    i_high = np.einsum("ci,cj,cij->c", wr[:, _HIGH], wt[:, _HIGH], v_high)
    diff = i_high - i_low
    # np.hypot rounds like Python's abs of a complex; np.abs can differ from
    # both in the last bit
    return i_high.tolist(), np.hypot(diff.real, diff.imag).tolist()


def _geometric_edges(inner: float, outer: float) -> list[float]:
    """Radial breakpoints from inner to outer, doubling each time."""
    edges = [inner]
    r = inner
    while r * 2.0 < outer * 0.999:
        r *= 2.0
        edges.append(r)
    edges.append(outer)
    return edges


def _polar_cells(
    index: int, radial_edges: Sequence[float], boxes: Sequence[tuple[float, ...]] = ()
) -> list[tuple[int, _Cell]]:
    """Starting cells of region ``index``, ordered ring by ring: every radial
    interval split into eight equal angular panels, each aligned to ``boxes``."""
    dt = 0.25 * math.pi
    return [
        (index, piece)
        for a, b in zip(radial_edges[:-1], radial_edges[1:])
        for i in range(8)
        for piece in _aligned((a, b, i * dt, (i + 1) * dt), boxes)
    ]


def _aligned(cell: _Cell, boxes: Sequence[tuple[float, ...]]) -> list[_Cell]:
    """``cell`` bisected in angle, pieces in angular order, until no piece that
    meets a hole's polar box is wider than the hole's angular radius; a box is
    ``(|c|, arg c, support, asin(support / |c|))``."""
    r0, r1, t0, t1 = cell
    tm = 0.5 * (t0 + t1)
    for modulus, phase, support, half in boxes:
        if (
            half < t1 - t0
            and modulus - support < r1
            and r0 < modulus + support
            and abs(math.remainder(phase - tm, 2.0 * math.pi)) < 0.5 * (t1 - t0) + half
        ):
            return _aligned((r0, r1, t0, tm), boxes) + _aligned((r0, r1, tm, t1), boxes)
    return [cell]


def _background_cells(
    index: int, patches: Sequence[_Region], cutoff_radius: float
) -> list[tuple[int, _Cell]]:
    marks = {0.0, cutoff_radius}
    for p in patches:
        for r in (abs(p.center) - p.support, abs(p.center), abs(p.center) + p.support):
            if 0.0 < r < cutoff_radius:
                marks.add(r)
    near = max((abs(p.center) + p.support for p in patches), default=0.0)
    start = near if near > 0.0 else cutoff_radius / 64.0
    for r in _geometric_edges(start, cutoff_radius):
        if 0.0 < r < cutoff_radius:
            marks.add(r)
    radial = sorted(marks)
    # drop breakpoints that crowd each other
    cleaned = [radial[0]]
    for r in radial[1:]:
        if r - cleaned[-1] > 1e-12 * r:
            cleaned.append(r)
    cleaned[-1] = cutoff_radius
    # a hole whose support reaches the origin splits nothing
    boxes = [(abs(p.center), cmath.phase(p.center), p.support) for p in patches]
    boxes = [(c, phase, s, math.asin(s / c)) for c, phase, s in boxes if s < c]
    return _polar_cells(index, cleaned, boxes)


def _add(partials: list[float], x: float) -> None:
    """Add ``x`` exactly to Shewchuk's nonoverlapping ``partials`` (the ``msum`` recipe).
    A non-finite ``x`` leaves ``[nan]`` for good, not a NaN partial per later call."""
    if not (math.isfinite(x) and (not partials or math.isfinite(partials[-1]))):
        partials[:] = [math.nan]
        return
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    regions: Sequence[_Region],
    first_cells: Sequence[tuple[int, _Cell]],
    target_abs_error: float,
    max_cells: int,
) -> tuple[complex, float, int, bool]:
    if len(first_cells) > max_cells:
        # the starting mesh alone exceeds the budget: estimate nothing rather
        # than claim an error bar for work beyond it
        return 0j, math.inf, 0, False
    heap: list[tuple[float, int, int, _Cell, complex]] = []
    frozen: list[complex] = []
    # the exact error total of the heap and frozen cells
    partials: list[float] = []
    seq = 0

    def push(region_idx: int, cells: Sequence[_Cell]) -> None:
        nonlocal seq
        values, errs = _cell_estimates(f, regions[region_idx], cells)
        for cell, value, err in zip(cells, values, errs):
            heapq.heappush(heap, (-err, seq, region_idx, cell, value))
            seq += 1
            _add(partials, err)

    # one batch per ring: a whole region at once would hold its full node set
    # (and f's per-node temporaries) in memory
    for (region_idx, _), ring in itertools.groupby(
        first_cells, key=lambda item: (item[0], item[1][:2])
    ):
        push(region_idx, [cell for _, cell in ring])

    # a non-finite cell error never leaves the total, so no split can bring it
    # to the target; a run stopped by the budget ends above the target
    while heap and target_abs_error < math.fsum(partials) < math.inf and seq + 4 <= max_cells:
        # one round: the worst cells, at most _BATCH of them and no more than
        # the budget can split; their children by region, in pop order
        room = (max_cells - seq) // 4
        children: dict[int, list[_Cell]] = {}
        taken = 0
        for _ in range(_BATCH):
            if not heap or taken == room:
                break
            neg_err, _, region_idx, cell, value = heapq.heappop(heap)
            r0, r1, t0, t1 = cell
            if (r1 - r0) <= _MIN_REL_CELL * (1.0 + r1) or (t1 - t0) <= _MIN_REL_CELL:
                # too small to split usefully; its error estimate stays in the total
                frozen.append(value)
                continue
            _add(partials, neg_err)
            rm = 0.5 * (r0 + r1)
            tm = 0.5 * (t0 + t1)
            children.setdefault(region_idx, []).extend(
                [(r0, rm, t0, tm), (r0, rm, tm, t1), (rm, r1, t0, tm), (rm, r1, tm, t1)]
            )
            taken += 1
        for region_idx in sorted(children):
            push(region_idx, children[region_idx])

    # math.fsum is correctly rounded, so the order of the values is irrelevant
    values = [h[-1] for h in heap] + frozen
    value = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    error = math.fsum(partials)
    return value, error, seq, error <= target_abs_error


class _Misfit(ValueError):
    """The holes do not fit the disk.  ``args`` are a message template and
    its lengths, so a caller that scaled them can restate them."""

    def __str__(self) -> str:
        template, *lengths = self.args
        return template.format(*lengths)


def integrate_excised_disk(
    f: Callable[[np.ndarray], np.ndarray],
    centers: Sequence[complex],
    epsilon: float,
    cutoff_radius: float,
    target_abs_error: float,
    max_cells: int,
) -> tuple[complex, float, int, bool]:
    """Integrate ``f`` over ``B_cutoff_radius`` minus the ``epsilon``-disks
    about ``centers``, which the caller keeps disjoint.

    ``f`` receives a 1-D array of complex points and must return an array of
    values (real or complex).  Returns ``(value, error_estimate, cells_used,
    converged)``.  ``cutoff_radius`` may not exceed ``2**340``, and every hole
    needs room for its cutoff (see the module docstring), or a
    :class:`_Misfit` names the lengths.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not cutoff_radius <= _MAX_RADIUS:
        message = "cutoff radius {:.6g} is out of floating-point range (at most {:.6g})"
        raise _Misfit(message, cutoff_radius, _MAX_RADIUS)
    centers = np.array(centers, dtype=np.complex128)
    moduli = np.hypot(centers.real, centers.imag)
    for i, m in enumerate(moduli.tolist()):
        if not m < cutoff_radius:
            message = f"excision {i} of radius {{}}, {{}} from the centre, does not fit"
            raise _Misfit(message + " inside the cutoff radius {}", epsilon, m, cutoff_radius)
    # room: distance to the nearest other centre or, at twice the distance to
    # it, to the truncation circle; np.hypot rounds like Python's complex abs
    diff = centers[:, None] - centers[None, :]
    room = np.hypot(diff.real, diff.imag)
    np.fill_diagonal(room, 2.0 * (cutoff_radius - moduli))
    room = room.min(axis=1, initial=math.inf)
    plateaus = np.full(room.shape, 1.05 * epsilon)
    supports = 0.49 * room
    crowded = plateaus >= 0.98 * supports
    supports[crowded] = 0.495 * room[crowded]
    tight = np.flatnonzero(plateaus >= 0.98 * supports)
    if len(tight):
        i = tight[0]
        message = f"excision radius {{}} leaves no room for the cutoff around point {i}"
        message += " (room {}, to the nearest other point or twice to the cutoff radius {})"
        raise _Misfit(message, epsilon, float(room[i]), cutoff_radius)
    holes = centers, plateaus, supports
    patches = [_Region(c, p, s) for c, p, s in zip(*(a.tolist() for a in holes))]
    cells: list[tuple[int, _Cell]] = []
    for idx, p in enumerate(patches):
        cells.extend(_polar_cells(idx, _geometric_edges(epsilon, p.support)))
    cells.extend(_background_cells(len(patches), patches, cutoff_radius))
    regions = patches + [_Region(center=0j, holes=holes)]
    return _adaptive(f, regions, cells, target_abs_error, max_cells)
