"""Adaptive quadrature over a large disk with small disks excised.

The domain ``B_R \\ union_l B_eps(c_l)`` is split exactly into

* a polar patch around each excised disk: an annulus from the excision
  radius out to a support radius, meshed in (radius, angle) cells, and
* a background over all of ``B_R`` in polar coordinates about the origin,

glued by a smooth radial partition of unity: around each excision a C-inf
cutoff equals 1 out to a plateau radius (which covers the excised disk)
and falls to 0 at the support radius.  The patch integrates
``cutoff * f``; the background integrates ``(1 - sum of cutoffs) * f``,
which vanishes identically on every excised disk, so no cell ever
straddles a domain boundary and the geometry is exact.

Every cell is a rectangle in (r, theta) carrying the polar Jacobian.
Cells are estimated with two independent Gauss-Legendre product rules
(7x7 and 11x11); their difference drives global greedy refinement,
splitting the worst cell into four until the summed error estimate meets
the target or the cell budget runs out.  Refinement order and the final
compensated reduction are fixed, so results are bit-for-bit reproducible.

Cells are estimated in batches from one region, with one call of ``f`` on
all the batch's nodes: the four children of a split together, and the
starting cells one ring (the angular panels of one radial interval) at a
time.  Batching changes no bits: every node and per-cell sum is formed
exactly as for a single cell, and the children enter the refinement queue
one by one in a fixed order.  The background weight needs no loop over
holes: the supports are disjoint, so each node has at most one nonzero
cutoff, and ``1 - cutoff`` of that hole equals the sequential
``1 - sum of cutoffs``, whose other terms are exact zeros.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "DiskExcision",
    "integrate_excised_disk",
    "integrate_disk",
]

_NODES_LOW, _WEIGHTS_LOW = np.polynomial.legendre.leggauss(7)
_NODES_HIGH, _WEIGHTS_HIGH = np.polynomial.legendre.leggauss(11)

_MIN_REL_CELL = 1e-9
_RESYNC_EVERY = 64


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


@dataclass(frozen=True)
class DiskExcision:
    """An excised disk with the radii of its partition-of-unity cutoff.

    The cutoff is identically 1 for ``r <= plateau`` (which must cover the
    excised ``radius``) and identically 0 for ``r >= support``.
    """

    center: complex
    radius: float
    plateau: float
    support: float

    def __post_init__(self) -> None:
        if not 0.0 < self.radius <= self.plateau < self.support:
            raise ValueError(
                "need 0 < radius <= plateau < support for a usable excision"
            )


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp-bump blend between."""
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t >= 1.0, 1.0, 0.0)
    inner = (t > 0.0) & (t < 1.0)
    if inner.any():
        ti = t[inner]
        with np.errstate(under="ignore"):
            e0 = np.exp(-1.0 / ti)
            e1 = np.exp(-1.0 / (1.0 - ti))
        out[inner] = e0 / (e0 + e1)
    return out


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
    them; every other cutoff is exactly 0.0 there.
    """
    centers, plateaus, supports = holes
    dist = np.abs(zs[:, None] - centers)
    node, hole = np.nonzero(dist < supports)
    w = np.ones(len(zs))
    w[node] = 1.0 - _cutoff(dist[node, hole], plateaus[hole], supports[hole])
    return w


def _cell_estimates(
    f: Callable[[np.ndarray], np.ndarray],
    region: _Region,
    cells: Sequence[_Cell],
) -> tuple[list[complex], list[float]]:
    """High-order values and two-rule error estimates for (r, theta) cells of
    one region, from a single call of ``f`` on all their nodes."""
    r0, r1, t0, t1 = np.array(cells, dtype=np.float64).T
    rm, rh = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)

    r_low = rm[:, None] + rh[:, None] * _NODES_LOW
    r_high = rm[:, None] + rh[:, None] * _NODES_HIGH
    t_low = tm[:, None] + th[:, None] * _NODES_LOW
    t_high = tm[:, None] + th[:, None] * _NODES_HIGH

    z_low = region.center + r_low[:, :, None] * np.exp(1j * t_low)[:, None, :]
    z_high = region.center + r_high[:, :, None] * np.exp(1j * t_high)[:, None, :]
    n_low = z_low.size
    zs = np.concatenate([z_low.ravel(), z_high.ravel()])

    vals = np.asarray(f(zs), dtype=np.complex128)
    if region.holes is not None:
        vals = vals * _hole_weight(zs, region.holes)
    v_low = vals[:n_low].reshape(z_low.shape)
    v_high = vals[n_low:].reshape(z_high.shape)

    wr_low = _WEIGHTS_LOW * r_low
    wr_high = _WEIGHTS_HIGH * r_high
    if region.plateau is not None:
        wr_low = wr_low * _cutoff(r_low, region.plateau, region.support)
        wr_high = wr_high * _cutoff(r_high, region.plateau, region.support)
    wr_low = wr_low * rh[:, None]
    wr_high = wr_high * rh[:, None]
    i_low = np.einsum("ci,cj,cij->c", wr_low, _WEIGHTS_LOW * th[:, None], v_low)
    i_high = np.einsum("ci,cj,cij->c", wr_high, _WEIGHTS_HIGH * th[:, None], v_high)
    values = i_high.tolist()
    # Python's complex abs, not np.abs: numpy's modulus can differ from it in
    # the last bit
    return values, [abs(hi - lo) for hi, lo in zip(values, i_low.tolist())]


def _geometric_edges(inner: float, outer: float, ratio: float = 2.0) -> list[float]:
    """Radial breakpoints from inner to outer with roughly geometric growth."""
    edges = [inner]
    r = inner
    while r * ratio < outer * 0.999:
        r *= ratio
        edges.append(r)
    edges.append(outer)
    return edges


def _polar_cells(
    index: int, radial_edges: Sequence[float], angular_panels: int = 8
) -> list[tuple[int, _Cell]]:
    """Starting cells of region ``index``: every radial interval split into
    equal angular panels, ordered ring by ring."""
    dt = 2.0 * math.pi / angular_panels
    return [
        (index, (a, b, i * dt, (i + 1) * dt))
        for a, b in zip(radial_edges[:-1], radial_edges[1:])
        for i in range(angular_panels)
    ]


def _background_cells(
    index: int, excisions: Sequence[DiskExcision], cutoff_radius: float
) -> list[tuple[int, _Cell]]:
    marks = {0.0, cutoff_radius}
    for exc in excisions:
        for r in (
            abs(exc.center) - exc.support,
            abs(exc.center),
            abs(exc.center) + exc.support,
        ):
            if 0.0 < r < cutoff_radius:
                marks.add(r)
    near = max((abs(e.center) + e.support for e in excisions), default=0.0)
    start = near if near > 0.0 else cutoff_radius / 64.0
    for r in _geometric_edges(max(start, cutoff_radius / 4096.0), cutoff_radius):
        if 0.0 < r < cutoff_radius:
            marks.add(r)
    radial = sorted(marks)
    # drop breakpoints that crowd each other
    cleaned = [radial[0]]
    for r in radial[1:]:
        if r - cleaned[-1] > 1e-12 * cutoff_radius:
            cleaned.append(r)
    cleaned[-1] = cutoff_radius
    return _polar_cells(index, cleaned)


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
    frozen: list[tuple[int, complex, float]] = []
    seq = 0
    cells_used = 0
    running_err = 0.0

    def push(region_idx: int, cells: Sequence[_Cell]) -> None:
        nonlocal seq, cells_used, running_err
        values, errs = _cell_estimates(f, regions[region_idx], cells)
        for cell, value, err in zip(cells, values, errs):
            heapq.heappush(heap, (-err, seq, region_idx, cell, value))
            seq += 1
            cells_used += 1
            running_err += err

    def exact_err() -> float:
        return math.fsum(-h[0] for h in heap) + math.fsum(e for _, _, e in frozen)

    # one batch per ring: a whole region at once would hold its full node set
    # (and f's per-node temporaries) in memory
    for (region_idx, _), ring in itertools.groupby(
        first_cells, key=lambda item: (item[0], item[1][:2])
    ):
        push(region_idx, [cell for _, cell in ring])

    budget_ok = True
    pops = 0
    while True:
        if running_err <= target_abs_error:
            # confirm against drift of the incremental total before stopping
            running_err = exact_err()
            if running_err <= target_abs_error:
                break
        if not heap:
            break
        if cells_used + 4 > max_cells:
            budget_ok = False
            break
        neg_err, s, region_idx, cell, value = heapq.heappop(heap)
        err = -neg_err
        r0, r1, t0, t1 = cell
        if (r1 - r0) <= _MIN_REL_CELL * (1.0 + r1) or (t1 - t0) <= _MIN_REL_CELL:
            # too small to split usefully; its error estimate stays in the total
            frozen.append((s, value, err))
            continue
        running_err -= err
        rm = 0.5 * (r0 + r1)
        tm = 0.5 * (t0 + t1)
        push(
            region_idx,
            [(r0, rm, t0, tm), (r0, rm, tm, t1), (rm, r1, t0, tm), (rm, r1, tm, t1)],
        )
        pops += 1
        if pops % _RESYNC_EVERY == 0:
            running_err = exact_err()

    entries = [(s, v, -ne) for ne, s, _, _, v in heap]
    entries.extend(frozen)
    entries.sort(key=lambda item: item[0])
    value = complex(
        math.fsum(v.real for _, v, _ in entries),
        math.fsum(v.imag for _, v, _ in entries),
    )
    error = math.fsum(e for _, _, e in entries)
    converged = budget_ok and error <= target_abs_error
    return value, error, cells_used, converged


def integrate_excised_disk(
    f: Callable[[np.ndarray], np.ndarray],
    excisions: Sequence[DiskExcision],
    cutoff_radius: float,
    target_abs_error: float,
    max_cells: int,
) -> tuple[complex, float, int, bool]:
    """Integrate ``f`` over ``B_cutoff_radius`` minus the excised disks.

    ``f`` receives a 1-D array of complex points and must return an array of
    values (real or complex).  Returns ``(value, error_estimate, cells_used,
    converged)``.
    """
    for exc in excisions:
        if abs(exc.center) + exc.support >= cutoff_radius:
            raise ValueError(
                f"excision at {exc.center} with support {exc.support} does not "
                f"fit inside the cutoff radius {cutoff_radius}"
            )
    for i in range(len(excisions)):
        for j in range(i + 1, len(excisions)):
            gap = abs(excisions[i].center - excisions[j].center)
            if excisions[i].support + excisions[j].support >= gap:
                raise ValueError(
                    f"excisions {i} and {j} overlap: supports "
                    f"{excisions[i].support} + {excisions[j].support} >= {gap}"
                )

    regions = [
        _Region(center=e.center, plateau=e.plateau, support=e.support)
        for e in excisions
    ]
    holes = None
    if excisions:
        holes = (
            np.array([e.center for e in excisions], dtype=np.complex128),
            np.array([e.plateau for e in excisions]),
            np.array([e.support for e in excisions]),
        )
    regions.append(_Region(center=0j, holes=holes))
    cells: list[tuple[int, _Cell]] = []
    for idx, exc in enumerate(excisions):
        # the support always lies past the plateau (DiskExcision checks it)
        radial = _geometric_edges(exc.radius, exc.plateau) + [exc.support]
        cells.extend(_polar_cells(idx, radial))
    cells.extend(_background_cells(len(regions) - 1, excisions, cutoff_radius))
    return _adaptive(f, regions, cells, target_abs_error, max_cells)


def _integrate_annuli(
    f: Callable[[np.ndarray], np.ndarray],
    centers: Sequence[complex],
    inner: float,
    outer: float,
    target_abs_error: float,
    max_cells: int,
) -> tuple[complex, float, int, bool]:
    """Integrate ``f`` over the annuli ``inner < |z - c| < outer`` about every
    centre, in one adaptive run with a polar region per centre.

    The caller keeps the annuli disjoint; no partition of unity is involved.
    """
    regions = [_Region(center=complex(c)) for c in centers]
    radial = _geometric_edges(inner, outer)
    cells = [cell for idx in range(len(regions)) for cell in _polar_cells(idx, radial)]
    return _adaptive(f, regions, cells, target_abs_error, max_cells)


def integrate_disk(
    f: Callable[[np.ndarray], np.ndarray],
    center: complex,
    radius: float,
    target_abs_error: float,
    max_cells: int = 100_000,
) -> tuple[complex, float, int, bool]:
    """Integrate a smooth ``f`` over the full disk ``B_radius(center)``."""
    region = _Region(center=complex(center))
    cells = _polar_cells(0, [0.0, 0.5 * radius, radius], angular_panels=4)
    return _adaptive(f, [region], cells, target_abs_error, max_cells)
