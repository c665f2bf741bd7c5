"""Two-stage localization: coarse segmentation, crop, fine localization.

Stage 1 asks the segmenter for probability maps on the ``COARSE_DIMS``
grid; the pipeline builds no coarse copy of the scan, so a segmenter
that reads the scan's values resamples it itself. It then binarizes
each foreground channel, keeps the largest 26-connected component and
takes the center of the bounding box that the component's
nearest-neighbour copy on the native grid would have.
That box is read from the coarse component and the per-axis index
maps, so no native-grid mask is built. Stage 2 crops a
``CROP_EXTENT`` block around each center and runs the localizer in one
frame for both sides: the left crop is mirrored along axis 0 so it
shares the right-side orientation. ``SideResult`` owns that crop frame.
Its ``local_crop`` is what the localizer sees, and ``place`` maps any
localizer-frame heatmap to a whole-volume target: mirror back on the
left, argmax, add the crop's low corner, clip to the grid. The
pipeline's own target and every sampled target go through that rule.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field
from typing import Any

import numpy as np
from scipy import ndimage

from voxloc.heatmap import TargetPoint, argmax_position
from voxloc.predictors import Localizer, Segmenter
from voxloc.volume import Volume3, VoxelBox, _from_block, _nearest_index, crop_box, flip_lr, support_box

__all__ = [
    "EmptyComponentError",
    "PipelineFailureError",
    "COARSE_DIMS",
    "CROP_EXTENT",
    "PipelineConfig",
    "SideResult",
    "PipelineResult",
    "run_pipeline",
]

SIDES = ("left", "right")


class EmptyComponentError(Exception):
    """A segmentation channel contained no foreground voxels."""


class PipelineFailureError(Exception):
    """Both sides failed; the pipeline has no output."""


#: Grid of the stage-1 probability maps.
COARSE_DIMS = (80, 80, 80)
#: Size in voxels of each stage-2 crop.
CROP_EXTENT = (64, 64, 64)
# stage-1 components are 26-connected: voxels touching at a face, edge or corner
_NEIGHBOURS = ndimage.generate_binary_structure(3, 3)


@dataclass(frozen=True)
class PipelineConfig:
    """Wiring for one pipeline instance."""

    segmenter: Segmenter
    localizer: Localizer


def _mirror(side: str, v: Volume3) -> Volume3:
    # native <-> localizer frame; mirroring is its own inverse
    return flip_lr(v) if side == "left" else v


@dataclass(frozen=True)
class SideResult:
    """Stage-2 output for one side, built from the localizer-frame heatmap.

    ``local_crop`` is the crop in the localizer frame (mirrored on the
    left) and ``state`` is the localizer's ``prepare(local_crop)``, kept
    so that an mcdo pass over the crop need not prepare it again;
    ``crop``, ``heatmap`` and ``target`` are in the native orientation.
    ``grid`` is the dims of the whole volume.
    """

    side: str
    box: VoxelBox
    grid: tuple[int, int, int]
    crop: Volume3
    local_crop: Volume3
    state: Any = field(repr=False)
    local_heatmap: InitVar[Volume3]
    heatmap: Volume3 = field(init=False)
    target: TargetPoint = field(init=False)

    def __post_init__(self, local_heatmap: Volume3):
        object.__setattr__(self, "heatmap", _mirror(self.side, local_heatmap))
        object.__setattr__(self, "target", self._place_native(self.heatmap))

    def place(self, local_heatmap: Volume3) -> TargetPoint:
        """Whole-volume target of a heatmap predicted on ``local_crop``."""
        return self._place_native(_mirror(self.side, local_heatmap))

    def _place_native(self, heatmap: Volume3) -> TargetPoint:
        peak = argmax_position(heatmap).as_array
        whole = np.asarray(self.box.low, dtype=np.float64) + peak
        whole = np.clip(whole, 0.0, np.asarray(self.grid) - 1.0)
        return TargetPoint(tuple(whole), side=self.side)


@dataclass(frozen=True)
class PipelineResult:
    sides: dict[str, SideResult]
    failed_sides: tuple[str, ...]
    timings_ms: dict[str, float]

    @property
    def targets(self) -> dict[str, TargetPoint]:
        return {side: res.target for side, res in self.sides.items()}

    def to_json(self) -> dict:
        return {
            "targets": {s: list(r.target.position) for s, r in self.sides.items()},
            "boxes": {
                s: {"center": list(r.box.center), "extent": list(r.box.extent)}
                for s, r in self.sides.items()
            },
            "failed_sides": list(self.failed_sides),
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
        }


def _largest_component(foreground: np.ndarray, spacing) -> Volume3:
    """Keep only the largest 26-connected component of a boolean foreground grid.

    Size ties break to the component whose smallest linear index
    (x-fastest order) is smallest. Labelling covers only the box around
    the foreground; x-fastest order inside that box is the whole grid's
    order restricted to it, so the tie-break is the same.
    """
    box = support_box(foreground)
    if box is None:
        raise EmptyComponentError("mask has no foreground voxels")
    binary = foreground[box]
    labels, n = ndimage.label(binary, structure=_NEIGHBOURS)
    if n == 1:
        return _from_block(binary.astype(np.float64), box, foreground.shape, spacing)
    counts = np.bincount(labels.ravel())
    counts[0] = 0
    best_count = counts.max()
    candidates = np.flatnonzero(counts == best_count)
    if len(candidates) == 1:
        chosen = candidates[0]
    else:
        flat = labels.ravel(order="F")
        first_seen, first_index = np.unique(flat, return_index=True)
        by_label = dict(zip(first_seen.tolist(), first_index.tolist()))
        chosen = min(candidates, key=lambda lab: by_label[lab])
    return _from_block((labels == chosen).astype(np.float64), box, foreground.shape, spacing)


def _native_center(component: Volume3, dims) -> tuple[int, int, int]:
    """Center of the foreground box of ``downsample_to(component, dims, "nearest")`` without the native mask.

    The center is the per-axis floor((min index + max index) / 2) of the
    voxels above 0.5. Native voxel ``(q0, q1, q2)`` copies coarse voxel
    ``(m0[q0], m1[q1], m2[q2])``, with ``m_a`` from ``_nearest_index``.
    Only native voxels whose maps all land in the box the component
    holds can be set, so the box is read from the gather of just those.
    """
    if not component.block.size:
        raise EmptyComponentError("mask has no foreground voxels")
    box, values = component.support, component.block
    native, coarse = [], []
    for axis, span in enumerate(box):
        m = _nearest_index(component.dims[axis], dims[axis])
        q = np.flatnonzero((m >= span.start) & (m < span.stop))
        native.append(q)
        coarse.append(m[q] - span.start)
    block = values[np.ix_(*coarse)] > 0.5
    if not block.any():
        raise EmptyComponentError("mask has no foreground voxels on the native grid")
    center = []
    for axis, q in enumerate(native):
        hits = q[block.any(axis=tuple(a for a in range(3) if a != axis))]
        center.append(int((hits[0] + hits[-1]) // 2))
    return tuple(center)


def _coarse_centers(cfg: PipelineConfig, image: Volume3, timings: dict) -> dict[str, tuple[int, int, int]]:
    t0 = time.perf_counter()
    _, left_prob, right_prob = cfg.segmenter.predict(image, COARSE_DIMS)
    timings["segment"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    centers: dict[str, tuple[int, int, int]] = {}
    for side, prob in (("left", left_prob), ("right", right_prob)):
        try:
            component = _largest_component(prob.data >= 0.5, prob.spacing)
        except EmptyComponentError:
            continue
        centers[side] = _native_center(component, image.dims)
    timings["components"] = (time.perf_counter() - t0) * 1e3

    # orientation guard: the left structure has the smaller axis-0 center
    if len(centers) == 2 and centers["left"][0] > centers["right"][0]:
        centers = {"left": centers["right"], "right": centers["left"]}
    return centers


def run_pipeline(cfg: PipelineConfig, image: Volume3) -> PipelineResult:
    """Full two-stage pass over one scan.

    Per-side stage-1 failures are reported in ``failed_sides``; only when
    both sides fail does the call raise.
    """
    timings: dict[str, float] = {}
    total0 = time.perf_counter()
    centers = _coarse_centers(cfg, image, timings)
    if not centers:
        raise PipelineFailureError("segmentation produced no usable component on either side")

    sides: dict[str, SideResult] = {}
    timings["crop"] = 0.0
    timings["localize"] = 0.0
    for side, center in centers.items():
        t0 = time.perf_counter()
        box = VoxelBox(center=center, extent=CROP_EXTENT)
        crop = crop_box(image, box)
        timings["crop"] += (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        local_crop = _mirror(side, crop)
        state = cfg.localizer.prepare(local_crop)
        heat = cfg.localizer.sample(state, False, 0)
        sides[side] = SideResult(side, box, image.dims, crop, local_crop, state, heat)
        timings["localize"] += (time.perf_counter() - t0) * 1e3

    timings["total"] = (time.perf_counter() - total0) * 1e3
    failed = tuple(side for side in SIDES if side not in sides)
    return PipelineResult(sides=sides, failed_sides=failed, timings_ms=timings)
