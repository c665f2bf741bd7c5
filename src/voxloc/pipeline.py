"""Two-stage localization: coarse segmentation, crop, fine localization.

Stage 1 works on a downsampled copy of the scan: segment, binarize each
foreground channel, keep the largest connected component, resample the
masks back to the native grid and take each component's bounding-box
center. Stage 2 crops a fixed-extent block around each center, flips the
left crop so both sides share the right-side orientation, runs the
localizer, flips the left heatmap back, and maps each argmax into
whole-volume voxel coordinates by adding the crop's low corner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from voxloc.heatmap import TargetPoint, argmax_position
from voxloc.predictors import Localizer, Segmenter
from voxloc.volume import Volume3, VoxelBox, crop_box, downsample_to, flip_lr

__all__ = [
    "EmptyComponentError",
    "PipelineFailureError",
    "PipelineConfig",
    "SideResult",
    "PipelineResult",
    "largest_connected_component",
    "bounding_box_center",
    "run_pipeline",
]

SIDES = ("left", "right")


class EmptyComponentError(Exception):
    """A segmentation channel contained no foreground voxels."""


class PipelineFailureError(Exception):
    """Both sides failed; the pipeline has no output."""


@dataclass(frozen=True)
class PipelineConfig:
    """Wiring and fixed geometry for one pipeline instance."""

    segmenter: Segmenter
    localizer: Localizer
    coarse_dims: tuple[int, int, int] = (80, 80, 80)
    crop_extent: tuple[int, int, int] = (64, 64, 64)
    connectivity: int = 26

    def __post_init__(self):
        coarse = tuple(int(d) for d in self.coarse_dims)
        extent = tuple(int(e) for e in self.crop_extent)
        if len(coarse) != 3 or any(d < 1 for d in coarse):
            raise ValueError(f"coarse dims must be positive, got {self.coarse_dims}")
        if len(extent) != 3 or any(e < 1 for e in extent):
            raise ValueError(f"crop extent must be positive, got {self.crop_extent}")
        if self.connectivity not in (6, 26):
            raise ValueError(f"connectivity must be 6 or 26, got {self.connectivity}")
        object.__setattr__(self, "coarse_dims", coarse)
        object.__setattr__(self, "crop_extent", extent)


@dataclass(frozen=True)
class SideResult:
    """Stage-2 output for one side, heatmap in the original orientation."""

    side: str
    box: VoxelBox
    crop: Volume3
    heatmap: Volume3
    target: TargetPoint


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


def largest_connected_component(mask: Volume3, connectivity: int = 26) -> Volume3:
    """Keep only the largest foreground component.

    Size ties break to the component whose smallest linear index
    (x-fastest order) is smallest.
    """
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    binary = mask.data > 0.5
    if not binary.any():
        raise EmptyComponentError("mask has no foreground voxels")
    structure = ndimage.generate_binary_structure(3, 1 if connectivity == 6 else 3)
    labels, n = ndimage.label(binary, structure=structure)
    if n == 1:
        return mask.with_data(binary.astype(np.float64))
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
    return mask.with_data((labels == chosen).astype(np.float64))


def bounding_box_center(mask: Volume3) -> tuple[int, int, int]:
    """Per-axis floor((min index + max index) / 2) of the foreground."""
    binary = mask.data > 0.5
    if not binary.any():
        raise EmptyComponentError("mask has no foreground voxels")
    center = []
    for axis in range(3):
        hits = np.flatnonzero(binary.any(axis=tuple(a for a in range(3) if a != axis)))
        center.append(int((hits[0] + hits[-1]) // 2))
    return tuple(center)


def _coarse_centers(cfg: PipelineConfig, image: Volume3, timings: dict) -> dict[str, tuple[int, int, int]]:
    t0 = time.perf_counter()
    coarse = downsample_to(image, cfg.coarse_dims, interpolation="trilinear")
    timings["downsample"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    _, left_prob, right_prob = cfg.segmenter.predict(coarse)
    timings["segment"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    centers: dict[str, tuple[int, int, int]] = {}
    for side, prob in (("left", left_prob), ("right", right_prob)):
        try:
            component = largest_connected_component(
                prob.with_data((prob.data >= 0.5).astype(np.float64)), cfg.connectivity
            )
        except EmptyComponentError:
            continue
        full = downsample_to(component, image.dims, interpolation="nearest")
        centers[side] = bounding_box_center(full)
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

    dims = np.asarray(image.dims)
    sides: dict[str, SideResult] = {}
    timings["crop"] = 0.0
    timings["localize"] = 0.0
    for side, center in centers.items():
        t0 = time.perf_counter()
        box = VoxelBox(center=center, extent=cfg.crop_extent)
        crop = crop_box(image, box)
        timings["crop"] += (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        crop_in = flip_lr(crop) if side == "left" else crop
        heat = cfg.localizer.predict(crop_in, stochastic=False)
        heat_native = flip_lr(heat) if side == "left" else heat
        peak = argmax_position(heat_native).as_array
        whole = np.asarray(box.low, dtype=np.float64) + peak
        whole = np.clip(whole, 0.0, dims - 1.0)
        timings["localize"] += (time.perf_counter() - t0) * 1e3

        sides[side] = SideResult(
            side=side,
            box=box,
            crop=crop,
            heatmap=heat_native,
            target=TargetPoint(tuple(whole), side=side),
        )

    timings["total"] = (time.perf_counter() - total0) * 1e3
    failed = tuple(side for side in SIDES if side not in sides)
    return PipelineResult(sides=sides, failed_sides=failed, timings_ms=timings)
