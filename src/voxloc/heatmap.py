"""Gaussian target heatmaps, argmax decoding, and the weighted-MSE loss."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from voxloc.volume import Volume3, _from_block

__all__ = [
    "HeatmapSpec",
    "TargetPoint",
    "gaussian_heatmap",
    "argmax_position",
    "wmse",
]


@dataclass(frozen=True)
class HeatmapSpec:
    """Shape of the Gaussian target encoding.

    The map is isotropic in millimetres, unnormalized with peak value
    ``peak`` at the center, and truncated: values strictly below
    ``cutoff`` are stored as exactly 0, so the support is the closed ball
    of radius ``sigma_mm * sqrt(2 ln(peak / cutoff))``.
    """

    sigma_mm: float = 1.5
    cutoff: float = 0.05
    peak: float = 1.0

    def __post_init__(self):
        if self.sigma_mm <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma_mm}")
        two_var = 2.0 * self.sigma_mm * self.sigma_mm  # the heatmap's denominator; ** would raise on overflow
        if two_var < sys.float_info.min or not math.isfinite(two_var):
            raise ValueError(f"sigma {self.sigma_mm} mm is too small or too large: 2*sigma^2 is {two_var}")
        if not 0.0 <= self.cutoff < self.peak:
            raise ValueError(f"cutoff must lie in [0, peak), got {self.cutoff}")

    @property
    def support_radius_mm(self) -> float:
        if self.cutoff == 0.0:
            return math.inf
        return self.sigma_mm * math.sqrt(2.0 * math.log(self.peak / self.cutoff))


@dataclass(frozen=True)
class TargetPoint:
    """A target position in voxel coordinates, optionally tagged with a side."""

    position: tuple[float, float, float]
    side: str | None = None

    def __post_init__(self):
        pos = tuple(float(x) for x in self.position)
        if len(pos) != 3 or not all(math.isfinite(x) for x in pos):
            raise ValueError(f"position must be three finite reals, got {self.position}")
        if self.side not in (None, "left", "right"):
            raise ValueError(f"side must be 'left', 'right' or None, got {self.side!r}")
        object.__setattr__(self, "position", pos)

    @property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.position, dtype=np.float64)


def gaussian_heatmap(spec: HeatmapSpec, center: TargetPoint, dims, spacing) -> Volume3:
    """Truncated Gaussian heatmap around a (possibly sub-voxel) center.

    ``value(v) = peak * exp(-||v - c||^2_mm / (2 sigma^2))`` with distances
    taken in millimetres; values below the cutoff are exactly 0. The peak
    is exactly ``spec.peak`` when the center lies on a voxel. A center
    inside the grid whose map would be all zero (a sigma far below the
    voxel size) is an error, so a heatmap never silently encodes nothing.
    The map holds only the block it writes: the cutoff ball's bounding
    box, clipped to the grid, which is its ``support``. The box may have
    a rim of zeros, and it is empty for a center far off the grid.
    """
    dims = tuple(int(d) for d in dims)
    spacing = tuple(float(s) for s in spacing)
    if any(d < 1 for d in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    if any(s <= 0 for s in spacing):
        raise ValueError(f"spacing must be positive, got {spacing}")
    c = center.as_array
    r_mm = spec.support_radius_mm
    lo = [0, 0, 0]
    hi = list(dims)
    if math.isfinite(r_mm):
        for a in range(3):
            lo[a] = min(dims[a], max(0, int(math.floor((c[a] * spacing[a] - r_mm) / spacing[a]))))
            hi[a] = min(dims[a], int(math.ceil((c[a] * spacing[a] + r_mm) / spacing[a])) + 1)
    box = tuple(slice(lo[a], max(lo[a], hi[a])) for a in range(3))
    # squared mm distance decomposes per axis on the regular grid
    d2 = [
        ((np.arange(lo[a], hi[a], dtype=np.float64) - c[a]) * spacing[a]) ** 2
        for a in range(3)
    ]
    dist2 = d2[0][:, None, None] + d2[1][None, :, None] + d2[2][None, None, :]
    with np.errstate(over="ignore"):  # a sigma near its floor saturates the quotient to -inf: exp gives 0
        block = spec.peak * np.exp(-dist2 / (2.0 * spec.sigma_mm**2))
    block[block < spec.cutoff] = 0.0
    if not block.any() and all(0.0 <= c[a] <= dims[a] - 1 for a in range(3)):
        raise ValueError(f"no voxel reaches the cutoff: sigma {spec.sigma_mm} mm is far below the voxel size")
    return _from_block(block, box, dims, spacing)


def argmax_position(h: Volume3) -> TargetPoint:
    """Integer voxel index of the maximum value.

    Ties break to the smallest linear index in x-fastest order. NaN
    voxels are ignored; an all-NaN volume is invalid data. The scan
    covers only the box the heatmap holds, its ``support``, when that box
    holds a value above 0.
    """
    # A positive maximum of the box is the volume's maximum, since every
    # voxel outside is 0, and the box's own x-fastest scan visits its voxels
    # in the grid's linear order, so the tie-break holds. A NaN in the box
    # (argmax stops there), a box of values <= 0 (only zeros, say) and an
    # empty box scan the grid.
    if h.block.size:
        flat = h.block.ravel(order="F")
        idx = int(np.argmax(flat))
        if flat[idx] > 0:
            pos = np.unravel_index(idx, h.block.shape, order="F")
            return TargetPoint(tuple(float(s.start + p) for s, p in zip(h.support, pos)))
    flat = h.ravel_linear()
    idx = int(np.argmax(flat))
    if np.isnan(flat[idx]):  # argmax stops at the first NaN; only then skip NaNs
        if np.all(np.isnan(flat)):
            raise ValueError("argmax of an all-NaN volume")
        idx = int(np.nanargmax(flat))
    pos = np.unravel_index(idx, h.dims, order="F")
    return TargetPoint(tuple(float(p) for p in pos))


def wmse(pred: Volume3, gt: Volume3, fg_weight: float = 100.0) -> tuple[float, Volume3]:
    """Foreground-weighted mean squared error and its gradient wrt pred.

    ``loss = (1/V) sum w_i (pred_i - gt_i)^2`` with ``w_i = fg_weight``
    where ``gt_i > 0`` and 1 elsewhere; ``grad_i = (2/V) w_i (pred_i - gt_i)``.
    Weighting is binary on the ground-truth support, not proportional to it.
    """
    if pred.dims != gt.dims:
        raise ValueError(f"dim mismatch: {pred.dims} vs {gt.dims}")
    if fg_weight < 1.0:
        raise ValueError(f"fg_weight must be >= 1, got {fg_weight}")
    p = pred.data.astype(np.float64, copy=False)
    g = gt.data.astype(np.float64, copy=False)
    w = np.where(g > 0.0, float(fg_weight), 1.0)
    diff = p - g
    volume = p.size
    loss = float(np.sum(w * diff * diff) / volume)
    grad = (2.0 / volume) * w * diff
    return loss, Volume3(grad, pred.spacing)
