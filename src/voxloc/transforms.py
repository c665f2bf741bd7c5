"""Invertible spatial and intensity transforms with prior-driven samplers.

A sampled augmentation is a pair ``(RigidTransform, IntensityCurve)``:
a rotation about the volume center plus a continuous voxel translation,
and a monotone cubic Bezier curve remapping intensities on [0, 1]. Both
are invertible, which is what lets test-time augmentation pull a
prediction made in augmented space back into the original frame.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from voxloc.volume import Volume3, _from_block, support_box

__all__ = [
    "RigidTransform",
    "IntensityCurve",
    "TransformPriors",
    "intensity_apply",
    "intensity_apply_inverse",
    "rigid_apply",
    "sample_transform",
]

log = logging.getLogger(__name__)

#: Number of parameter samples in the intensity lookup table.
LUT_SAMPLES = 1000


def rotation_matrix(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit axis and an angle in degrees."""
    k = np.asarray(axis, dtype=np.float64)
    theta = np.deg2rad(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return c * np.eye(3) + s * kx + (1.0 - c) * np.outer(k, k)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation about a pivot plus a continuous translation, in voxel units.

    The forward coordinate map is ``p -> R (p - pivot) + pivot + translation``.
    ``pivot=None`` means "volume center", resolved to ``(dims - 1) / 2`` when
    the transform is applied to a concrete volume.
    """

    axis: tuple[float, float, float]
    angle_deg: float
    translation: tuple[float, float, float]
    pivot: tuple[float, float, float] | None = None

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=np.float64)
        if ax.shape != (3,):
            raise ValueError(f"axis must have three components, got {self.axis}")
        norm = float(np.linalg.norm(ax))
        if norm < 1e-12:
            raise ValueError("rotation axis must be nonzero")
        object.__setattr__(self, "axis", tuple(ax / norm))
        object.__setattr__(self, "angle_deg", float(self.angle_deg))
        t = tuple(float(x) for x in self.translation)
        if len(t) != 3:
            raise ValueError(f"translation must have three components, got {self.translation}")
        object.__setattr__(self, "translation", t)
        if self.pivot is not None:
            object.__setattr__(self, "pivot", tuple(float(x) for x in self.pivot))

    def resolve_pivot(self, dims) -> np.ndarray:
        if self.pivot is not None:
            return np.asarray(self.pivot, dtype=np.float64)
        return (np.asarray(dims, dtype=np.float64) - 1.0) / 2.0

    def map_points(self, points: np.ndarray, dims=None) -> np.ndarray:
        """Forward map of an (N, 3) array of voxel coordinates."""
        if self.pivot is None and dims is None:
            raise ValueError("pivot is unresolved; pass dims for a center pivot")
        pivot = self.resolve_pivot(dims)
        rot = rotation_matrix(self.axis, self.angle_deg)
        pts = np.asarray(points, dtype=np.float64)
        return (pts - pivot) @ rot.T + pivot + np.asarray(self.translation)

    def invert(self) -> "RigidTransform":
        """Transform whose coordinate map undoes this one (same pivot)."""
        rot_inv = rotation_matrix(self.axis, -self.angle_deg)
        t_inv = -(rot_inv @ np.asarray(self.translation, dtype=np.float64))
        return RigidTransform(self.axis, -self.angle_deg, tuple(t_inv), self.pivot)


def rigid_apply(tf: RigidTransform, v: Volume3, interpolation: str = "trilinear") -> Volume3:
    """Resample a volume under a rigid transform.

    Output voxel ``q`` reads the input at
    ``R^-1 (q - pivot - translation) + pivot``; out-of-bounds reads clamp
    to the nearest edge voxel. Images and heatmaps use trilinear
    interpolation, masks should use nearest.

    The cost follows the input's ``support``, the box it holds. When that
    box is smaller than the grid and every voxel of it on a face of the
    grid is zero, only the output block the box can reach is resampled,
    and the output holds that block (every other voxel is exactly 0)
    without filling the grid. Any other input (any volume built by
    ``Volume3``, an empty one, or one with a nonzero value on a face)
    takes the full-grid warp, because clamped edge reads can then carry
    that value anywhere. Its output is held on ``support_box`` of
    the warped values, so a heatmap near a face stays a small block for
    the passes after it, at the cost of six face reads for a dense
    image. Both paths give the same bits.
    """
    if interpolation not in ("trilinear", "nearest"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    pivot = tf.resolve_pivot(v.dims)
    rot_inv = rotation_matrix(tf.axis, -tf.angle_deg)
    offset = pivot - rot_inv @ (pivot + np.asarray(tf.translation))
    order = 1 if interpolation == "trilinear" else 0
    data = v.data.astype(np.float64, copy=False)
    block = _mapped_block(tf, v)
    if block is None:
        out = ndimage.affine_transform(data, rot_inv, offset=offset, order=order, mode="nearest")
        held = support_box(out) or (slice(0, 0),) * 3
        return _from_block(out[held].astype(v.data.dtype, copy=False), held, v.dims, v.spacing)
    # affine_transform's source coordinates, summed in its order (offset first), on the block only
    q = np.mgrid[block].astype(np.float64)
    coords = np.stack(
        [offset[k] + rot_inv[k, 0] * q[0] + rot_inv[k, 1] * q[1] + rot_inv[k, 2] * q[2] for k in range(3)]
    )
    values = ndimage.map_coordinates(data, coords, order=order, mode="nearest")
    return _from_block(values.astype(v.data.dtype, copy=False), block, v.dims, v.spacing)


def _mapped_block(tf: RigidTransform, v: Volume3) -> tuple[slice, slice, slice] | None:
    """Output block that can read the values ``v`` holds under ``tf``, or None for the full grid.

    A read clamped to the grid returns a face voxel, and a read inside it
    returns +0.0 outside the held box. So when the box's voxels on faces
    of the grid are all zero, an output voxel is nonzero only if its
    source point lies within 1 of the box on every axis (the
    interpolation stencil), which puts it within sqrt(3) < 2 of the box's
    forward image. The forward image of the box's 8 corners, rounded
    outward and padded by 1 voxel, covers that. (scipy sums a stencil
    from +0.0, so reads of -0.0 give +0.0 as they do outside the block.)
    None when ``v``'s block is empty or fills its whole grid, or holds a
    nonzero value on a face.
    """
    box, held, dims = v.support, v.block, v.dims
    if not held.size or box == tuple(slice(0, n) for n in dims):
        return None
    on_faces = [held[(slice(None),) * a + (0,)] for a, s in enumerate(box) if s.start == 0]
    on_faces += [held[(slice(None),) * a + (-1,)] for a, s in enumerate(box) if s.stop == dims[a]]
    if any(face.any() for face in on_faces):
        return None
    ends = np.array([[s.start, s.stop - 1] for s in box], dtype=np.float64)
    corners = np.stack(np.meshgrid(*ends, indexing="ij"), axis=-1).reshape(-1, 3)
    mapped = tf.map_points(corners, dims=dims)
    low = np.clip(np.floor(mapped.min(axis=0)) - 1, 0, dims)
    high = np.clip(np.ceil(mapped.max(axis=0)) + 2, 0, dims)
    return tuple(slice(int(lo), int(hi)) for lo, hi in zip(low, high))


# ---------------------------------------------------------------------------
# monotone Bezier intensity curves
# ---------------------------------------------------------------------------


def _strictify(x: np.ndarray, y: np.ndarray):
    # Reduce a non-decreasing table to strictly increasing x. Runs of equal
    # x keep their first row, except the final run keeps its last row so the
    # (1, 1) endpoint always survives.
    keep = np.concatenate([[True], np.diff(x) > 0])
    idx = np.flatnonzero(keep)
    if x[idx[-1]] == x[-1]:
        idx[-1] = len(x) - 1
    return x[idx], y[idx]


@dataclass(frozen=True)
class IntensityCurve:
    """Monotone intensity map [0,1] -> [0,1] from a cubic Bezier curve.

    The curve through ``(0,0), p1, p2, (1,1)`` is tabulated at
    ``LUT_SAMPLES`` uniform parameter values; applying the curve means
    reading y at a given x from the table with linear interpolation, and
    the inverse map is the same table with axes swapped. With all control
    points inside the unit square both tabulated coordinates come out
    non-decreasing; a defensive sort plus duplicate collapse guarantees a
    strictly increasing lookup axis regardless.
    """

    p1: tuple[float, float]
    p2: tuple[float, float]
    lut_x: np.ndarray = field(init=False, repr=False)
    lut_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p1 = tuple(float(c) for c in self.p1)
        p2 = tuple(float(c) for c in self.p2)
        for p in (p1, p2):
            if len(p) != 2 or not all(0.0 <= c <= 1.0 for c in p):
                raise ValueError(f"control points must lie in [0,1]^2, got {p1}, {p2}")
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        t = np.linspace(0.0, 1.0, LUT_SAMPLES)
        points = _bezier_points(p1, p2, t)
        x, y = points[:, 0], points[:, 1]
        if np.any(np.diff(x) < 0):  # pragma: no cover - unreachable for unit-square controls
            order = np.argsort(x, kind="stable")
            x, y = x[order], y[order]
        object.__setattr__(self, "lut_x", x)
        object.__setattr__(self, "lut_y", y)
        self.lut_x.setflags(write=False)
        self.lut_y.setflags(write=False)

    @classmethod
    def identity(cls) -> "IntensityCurve":
        return cls((1.0 / 3.0, 1.0 / 3.0), (2.0 / 3.0, 2.0 / 3.0))


def _bezier_points(p1, p2, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)[:, None]
    p0 = np.array([0.0, 0.0])
    p3 = np.array([1.0, 1.0])
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    u = 1.0 - t
    return u**3 * p0 + 3.0 * u**2 * t * p1 + 3.0 * u * t**2 * p2 + t**3 * p3


def _remap(v: Volume3, x: np.ndarray, y: np.ndarray, caller: str) -> Volume3:
    # piecewise-linear lookup of each voxel's value on the (x -> y) table
    data = v.data.astype(np.float64, copy=False)
    n_clamped = int(np.count_nonzero((data < 0.0) | (data > 1.0)))
    if n_clamped:
        log.warning("%s: clamped %d voxels outside [0,1]", caller, n_clamped)
        data = np.clip(data, 0.0, 1.0)
    x, y = _strictify(x, y)
    out = np.interp(data.ravel(), x, y).reshape(v.dims)
    return Volume3(out.astype(v.data.dtype, copy=False), v.spacing)


def intensity_apply(curve: IntensityCurve, v: Volume3) -> Volume3:
    """Map voxel intensities through the curve (input read on the x axis)."""
    return _remap(v, curve.lut_x, curve.lut_y, "intensity_apply")


def intensity_apply_inverse(curve: IntensityCurve, v: Volume3) -> Volume3:
    """Map voxel intensities through the inverse curve (table axes swapped)."""
    return _remap(v, curve.lut_y, curve.lut_x, "intensity_apply_inverse")


# ---------------------------------------------------------------------------
# priors and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformPriors:
    """Uniform priors for augmentation sampling.

    Degenerate (zero-width) ranges are allowed and give deterministic
    parameters; ``curve_control_range=(c, c)`` puts both Bezier control
    points on the diagonal, which is exactly the identity intensity map.
    """

    s_range: tuple[float, float] = (-10.0, 10.0)
    r_range: tuple[float, float] = (-20.0, 20.0)
    curve_control_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        for name, (lo, hi) in (
            ("s_range", self.s_range),
            ("r_range", self.r_range),
            ("curve_control_range", self.curve_control_range),
        ):
            if not -np.inf < lo <= hi < np.inf:  # a NaN end fails every comparison
                raise ValueError(f"{name} must be finite and nonempty: ({lo}, {hi})")
        c0, c1 = self.curve_control_range
        if c0 < 0.0 or c1 > 1.0:
            raise ValueError("curve control range must lie inside [0,1]")


def sample_axis(rng: np.random.Generator) -> np.ndarray:
    """Unit vector uniform on the sphere (normalized Gaussian draw)."""
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:  # pragma: no cover - vanishing probability
        axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis)


def sample_transform(priors: TransformPriors, seed: int) -> tuple[RigidTransform, IntensityCurve]:
    """Draw one augmentation pair; deterministic given the seed.

    Translation components are U(s0, s1) voxels, the angle is U(r0, r1)
    degrees about an axis uniform on the unit sphere, and the two curve
    control points are uniform in the configured square, reordered so the
    first has the smaller x.
    """
    rng = np.random.default_rng(seed)
    translation = rng.uniform(priors.s_range[0], priors.s_range[1], size=3)
    angle = float(rng.uniform(priors.r_range[0], priors.r_range[1]))
    axis = sample_axis(rng)
    c0, c1 = priors.curve_control_range
    p1 = rng.uniform(c0, c1, size=2)
    p2 = rng.uniform(c0, c1, size=2)
    if p1[0] > p2[0]:
        p1, p2 = p2, p1
    tf = RigidTransform(tuple(axis), angle, tuple(translation))
    curve = IntensityCurve(tuple(p1), tuple(p2))
    return tf, curve
