"""3-D scalar volumes on a regular anisotropic grid.

Conventions used throughout the package:

* ``data[i, j, k]`` indexes axes ``(0, 1, 2)``; axis 0 runs anatomical
  left to right in every volume. Files record this as the header tag
  ``AXIS0_CONVENTION`` (``"LR"``), and reading rejects any other tag.
* Voxel ``(i, j, k)`` has its physical center at
  ``(i * spacing[0], j * spacing[1], k * spacing[2])`` millimetres.
* The linear (file) order is x-fastest: element ``(i, j, k)`` sits at
  linear index ``i + dims[0] * (j + dims[1] * k)``, i.e. Fortran order
  of the ``(i, j, k)`` array. A volume read from a file keeps that
  order: its ``data`` is Fortran-ordered, the payload read in place.
  Generated masks are x-fastest too, and writing an x-fastest float32
  grid makes no copy: the file takes the array's own buffer.
* Out-of-bounds reads clamp to the nearest edge voxel during
  resampling; cropping instead pads with 0.0.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

__all__ = [
    "Volume3",
    "VoxelBox",
    "rescale_intensity",
    "downsample_to",
    "crop_box",
    "flip_lr",
    "support_box",
    "write_volume",
    "read_volume",
    "open_planes",
]

#: Axis-0 orientation tag stored in volume headers.
AXIS0_CONVENTION = "LR"


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity masks
        return os.cpu_count() or 1


class _Grid:
    """``Volume3.data``, a non-data descriptor: the first read builds the
    grid (the block itself when it fills the grid, else +0.0 with the block
    written in) and stores it in the instance ``__dict__``, so later reads
    are plain dict hits. The grid derives from the read-only block alone,
    so threads that read it first at the same time each store an equal
    grid; no lock is taken."""

    def __get__(self, v, owner=None):
        if v is None:
            return self
        grid = v.block
        if grid.shape != v.dims:
            grid = np.zeros(v.dims, dtype=v.block.dtype)
            grid[v.support] = v.block
            grid.setflags(write=False)
        v.__dict__["data"] = grid
        return grid


class Volume3:
    """An immutable scalar volume with voxel spacing in mm.

    Attributes:
        data: 3-D float array, shape equal to ``dims``, read-only. It is
            Fortran-ordered for a volume from :func:`read_volume`.
        spacing: per-axis voxel spacing in mm, all entries finite and > 0.
        dims: the grid shape.
        block: the held values, a read-only float array shaped like
            ``support``.
        support: the box of ``dims`` that ``block`` sits on, never None.
            The volume is +0.0 outside it; inside, the block may hold
            zeros too, so it is not the nonzero box. An empty block
            keeps the (empty) box it was given.

    Every volume holds a read-only block on a box of its ``dims`` grid
    and is +0.0 outside it. The constructor's block is the whole grid;
    ``_from_block`` holds a smaller one. Both set ``block`` and
    ``support`` and scan nothing. ``data`` is built from the block on
    its first read and then kept. Attributes cannot be set or deleted.
    Volumes compare and hash by identity, and ``repr`` shows dims,
    spacing and box without building the grid.
    """

    def __init__(self, data: np.ndarray, spacing):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise ValueError(f"volume data must be 3-D, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        if any(n < 1 for n in arr.shape):
            raise ValueError(f"volume dims must be positive, got {arr.shape}")
        checked = tuple(float(s) for s in spacing)
        if len(checked) != 3 or not all(0 < s < np.inf for s in checked):
            raise ValueError(f"spacing must be three finite reals > 0, got {spacing}")
        arr = arr.copy() if not arr.flags.owndata or arr.base is not None else arr
        arr.setflags(write=False)
        self.__dict__.update(spacing=checked, dims=arr.shape, block=arr, support=tuple(slice(0, n) for n in arr.shape))

    def __setattr__(self, name, *value):
        raise AttributeError(f"Volume3 is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        box = ", ".join(f"{s.start}:{s.stop}" for s in self.support)
        return f"Volume3(dims={self.dims}, spacing={self.spacing}, box=[{box}])"

    data = _Grid()

    def ravel_linear(self) -> np.ndarray:
        """Values in x-fastest linear order (the file payload order)."""
        return self.data.ravel(order="F")


@dataclass(frozen=True)
class VoxelBox:
    """An axis-aligned box given by its center voxel and extent in voxels.

    The low corner is ``center - extent // 2`` per axis, so the center
    voxel of the cropped output is output voxel ``extent // 2``.
    """

    center: tuple[int, int, int]
    extent: tuple[int, int, int]

    def __post_init__(self):
        center = tuple(int(c) for c in self.center)
        extent = tuple(int(e) for e in self.extent)
        if len(center) != 3 or len(extent) != 3:
            raise ValueError("center and extent must have three components")
        if any(e < 1 for e in extent):
            raise ValueError(f"extent must be positive, got {extent}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "extent", extent)

    @property
    def low(self) -> tuple[int, int, int]:
        return tuple(c - e // 2 for c, e in zip(self.center, self.extent))


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def _positions(n_in: int, n_out: int) -> np.ndarray:
    # fractional input index sampled by each output voxel along one axis
    return np.arange(n_out, dtype=np.float64) * (n_in / n_out)


def _nearest_index(n_in: int, n_out: int) -> np.ndarray:
    """Input index that each output voxel reads along one axis under nearest resampling."""
    return np.clip(np.rint(_positions(n_in, n_out)).astype(np.int64), 0, n_in - 1)


def _interp_axis_linear(arr: np.ndarray, pos: np.ndarray, axis: int) -> np.ndarray:
    # Linear interpolation along one axis at fractional index positions,
    # accumulated in float64 whatever the input dtype (the promotion is
    # exact, so the bits equal those of a float64 copy of the input).
    # Positions are clamped first so out-of-range reads return the exact
    # edge voxel value (no arithmetic on the padded side).
    n = arr.shape[axis]
    pos = np.clip(pos, 0.0, float(n - 1))
    lo = np.floor(pos).astype(np.int64)
    np.minimum(lo, n - 1, out=lo)
    frac = pos - lo
    hi = np.minimum(lo + 1, n - 1)
    shape = [1, 1, 1]
    shape[axis] = pos.size
    w = frac.reshape(shape)
    out = np.multiply(np.take(arr, lo, axis=axis), 1.0 - w, dtype=np.float64)
    out += np.multiply(np.take(arr, hi, axis=axis), w, dtype=np.float64)
    return out


def downsample_to(v: Volume3, dims, interpolation: str = "trilinear") -> Volume3:
    """Resample onto exactly the requested grid, preserving physical extent.

    Output spacing is ``dims_in * spacing_in / dims_out`` per axis, and
    output voxel ``q`` samples the input at fractional index
    ``q * dims_in / dims_out``, so coarse-grid coordinates map back to the
    input grid by pure scaling. Works in both directions. Trilinear
    sampling computes in float64; nearest sampling copies input values.
    The output keeps the input's dtype.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"target dims must be three positive ints, got {dims}")
    if interpolation not in ("trilinear", "nearest"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    # Axis-separable resampling: the grid mapping is axis-aligned, so one
    # 1-D interpolation pass per axis reproduces full trilinear sampling.
    # np.take copies an input that is not C-contiguous into C order first,
    # so a Fortran-ordered grid is resampled through its C-contiguous
    # transpose, where axis a sits at position 2 - a. The passes still run
    # over axes 0, 1, 2 in that order, which the trilinear bits depend on.
    out = v.data
    flip = out.flags.f_contiguous and not out.flags.c_contiguous
    out = out.T if flip else out
    for axis in range(3):
        at = 2 - axis if flip else axis
        if interpolation == "trilinear":
            out = _interp_axis_linear(out, _positions(v.dims[axis], dims[axis]), at)
        else:
            out = np.take(out, _nearest_index(v.dims[axis], dims[axis]), axis=at)
    spacing = tuple(v.dims[a] * v.spacing[a] / dims[a] for a in range(3))
    out = out.T if flip else out
    return Volume3(out.astype(v.data.dtype, order="C", copy=False), spacing)


# ---------------------------------------------------------------------------
# intensity range, cropping, orientation
# ---------------------------------------------------------------------------


def rescale_intensity(v: Volume3) -> Volume3:
    """Affine rescale of the value range to [0, 1].

    A constant volume maps to all zeros (the degenerate range is treated
    as empty contrast rather than an error). One float64 grid is made:
    the shifted values, then divided in place.
    """
    data = v.data.astype(np.float64, copy=False)
    vmin = float(data.min())
    vmax = float(data.max())
    if vmax == vmin:
        out = np.zeros_like(data)
    else:
        out = data - vmin
        out /= vmax - vmin
    return Volume3(out.astype(v.data.dtype, copy=False), v.spacing)


def crop_box(v: Volume3, box: VoxelBox) -> Volume3:
    """Extract an axis-aligned box, padding out-of-bounds voxels with 0.0.

    Output voxel ``q`` is input voxel ``box.low + q``; spacing is
    preserved. Regions outside the input get 0.0 exactly (no edge
    clamping here, unlike resampling).
    """
    low = box.low
    out = np.zeros(box.extent, dtype=v.data.dtype)
    src = []
    dst = []
    for a in range(3):
        s0 = max(low[a], 0)
        s1 = min(low[a] + box.extent[a], v.dims[a])
        if s0 >= s1:
            return Volume3(out, v.spacing)
        src.append(slice(s0, s1))
        dst.append(slice(s0 - low[a], s1 - low[a]))
    block = v.data[tuple(src)]
    if v.data.flags.f_contiguous:
        # a read scan: gather the strided block in its own order first, so
        # the C-ordered write below transposes a compact block
        block = np.asfortranarray(block)
    out[tuple(dst)] = block
    return Volume3(out, v.spacing)


def flip_lr(v: Volume3) -> Volume3:
    """Mirror the volume along axis 0 (left-right). Involution, bitwise.

    Only the block and its box are mirrored; the block is a C-ordered copy.
    """
    n, box = v.dims[0], v.support
    mirrored = (slice(n - box[0].stop, n - box[0].start),) + box[1:]
    return _from_block(v.block[::-1].copy(), mirrored, v.dims, v.spacing)


def support_box(data: np.ndarray) -> tuple[slice, slice, slice] | None:
    """Slices of the smallest box holding every voxel that is not exactly 0.

    NaN and +-inf count as nonzero. An all-zero array has no box and gives
    None. An array with a nonzero voxel on each of its six faces gets the
    whole grid without a full pass, so dense images and heatmaps cost six
    face reads.
    """
    faces = ((slice(None),) * axis + (end,) for axis in range(3) for end in (0, -1))
    if all(data[face].any() for face in faces):
        return tuple(slice(0, n) for n in data.shape)
    box = []
    for axis in range(3):
        others = tuple(a for a in range(3) if a != axis)
        hit = np.flatnonzero((data != 0).any(axis=others))
        if hit.size == 0:
            return None
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
        data = data[(slice(None),) * axis + (box[-1],)]  # later axes scan only the slab found so far
    return tuple(box)


def _from_block(block: np.ndarray, box: tuple[slice, slice, slice], dims, spacing) -> Volume3:
    """A volume that holds float ``block`` on ``box`` and +0.0 elsewhere.

    The block becomes read-only and is not copied; it is the volume's
    ``block`` and ``box`` is its ``support``, even when both are empty.
    Nothing is scanned or filled here: ``data`` is built on first read.
    """
    block.setflags(write=False)
    v = object.__new__(Volume3)
    v.__dict__.update(spacing=tuple(float(s) for s in spacing), dims=tuple(dims), block=block, support=tuple(box))
    return v


# ---------------------------------------------------------------------------
# file format: JSON header + raw little-endian float32 payload
# ---------------------------------------------------------------------------

_HEADER_DTYPE = "f32"
_HEADER_ORDER = "x-fastest"


def _payload_path(header_path: Path) -> Path:
    return header_path.with_suffix(".raw")


def write_volume(v: Volume3, header_path: str | Path) -> None:
    """Write a volume as a two-file pair: JSON header plus raw payload.

    The header ``<name>.json`` records dims, spacing, dtype, linear order
    and the axis-0 orientation tag; the payload ``<name>.raw`` holds the
    voxel values as little-endian float32 in x-fastest order. An
    x-fastest (Fortran-ordered) ``<f4`` grid, such as a generated mask or
    a volume read from a file, is written from its own buffer with no
    copy; any other grid is transposed into one payload-sized buffer.
    """
    header_path = Path(header_path)
    header = {
        "dims": list(v.dims),
        "spacing": list(v.spacing),
        "dtype": _HEADER_DTYPE,
        "order": _HEADER_ORDER,
        "axis0": AXIS0_CONVENTION,
    }
    header_path.write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")
    # x-fastest is the (k, j, i) C-order array, i.e. the C order of data.T
    payload = v.data.T
    if not payload.flags.c_contiguous or payload.dtype != "<f4":
        # one 2-D transpose per j beats numpy's 3-D transposing copy
        payload = np.empty(v.dims[::-1], dtype="<f4")
        for j in range(v.dims[1]):
            payload[:, j, :] = v.data[:, j, :].T
    with open(_payload_path(header_path), "wb") as f:
        f.write(payload)


def _three(values, ok) -> bool:
    """True when ``values`` is a list of three items that each pass ``ok``."""
    return isinstance(values, list) and len(values) == 3 and all(ok(v) for v in values)


def _finite(x) -> bool:
    """True for a JSON number, not a bool, that converts to a finite float."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _read_header(header_path: Path) -> tuple[list[int], list]:
    """Checked ``(dims, spacing)`` of a volume header; ValueError naming the file otherwise."""
    header = json.loads(header_path.read_text())
    if not isinstance(header, dict):
        raise ValueError(f"volume header {header_path} is not a JSON object")
    dims, spacing = header.get("dims"), header.get("spacing")
    # type(), not isinstance(): JSON true and false would pass as the ints 1 and 0
    if not _three(dims, lambda d: type(d) is int and d >= 1):
        raise ValueError(f"dims must be three integers >= 1, got {dims!r} in {header_path}")
    if not _three(spacing, lambda s: _finite(s) and s > 0):
        raise ValueError(f"spacing must be three finite numbers > 0, got {spacing!r} in {header_path}")
    if header.get("dtype") != _HEADER_DTYPE:
        raise ValueError(f"unsupported dtype {header.get('dtype')!r} in {header_path}")
    if header.get("order") != _HEADER_ORDER:
        raise ValueError(f"unsupported linear order {header.get('order')!r} in {header_path}")
    if header.get("axis0") != AXIS0_CONVENTION:
        raise ValueError(f"unsupported axis-0 tag {header.get('axis0')!r} in {header_path}")
    return dims, spacing


def _length_mismatch(header_path: Path, expected: int, got: int) -> ValueError:
    return ValueError(f"payload length mismatch for {header_path}: expected {expected} bytes, got {got}")


def _open_payload(header_path: Path, dims) -> BinaryIO:
    """The payload file, opened once its size matches the header dims."""
    expected = math.prod(dims) * 4  # Python ints: header dims cannot wrap the count as int64 would
    f = open(_payload_path(header_path), "rb")
    got = os.fstat(f.fileno()).st_size
    if got != expected:
        f.close()
        raise _length_mismatch(header_path, expected, got)
    return f


def read_volume(header_path: str | Path) -> Volume3:
    """Read a volume written by :func:`write_volume`.

    The payload is read straight into the returned volume's ``data``,
    which is therefore Fortran-ordered (x-fastest, as in the file).

    Raises ValueError, naming the file, on a header that is not an object,
    dims that are not three JSON integers >= 1, spacing that is not three
    finite JSON numbers > 0, unknown header field values, or a payload
    length that does not match the header dims (checked before anything
    is allocated, and again on the bytes actually read).
    """
    header_path = Path(header_path)
    dims, spacing = _read_header(header_path)
    with _open_payload(header_path, dims) as f:
        # x-fastest is the Fortran order of (i, j, k): fill it through its C-contiguous transpose
        data = np.empty(dims, dtype="<f4", order="F")
        got = f.readinto(data.T)
    if got != data.nbytes:  # a short read: no unfilled np.empty memory reaches a volume
        raise _length_mismatch(header_path, data.nbytes, got)
    return Volume3(data, spacing)


@contextmanager
def open_planes(header_path: str | Path) -> Iterator[tuple[tuple[int, int, int], Callable[[int], np.ndarray]]]:
    """Open a volume file to read its axis-2 planes one at a time.

    Yields ``(dims, plane)``. ``plane(k)`` reads ``data[:, :, k]`` into
    one reused ``(dims[0], dims[1])`` float32 buffer and returns it, so
    each plane must be used before the next is read. The header and the
    payload size get the checks of :func:`read_volume`, with the same
    ValueErrors; a plane read that comes back short raises its
    ``payload length mismatch``, counting the bytes found up to there.
    """
    header_path = Path(header_path)
    dims, _ = _read_header(header_path)
    with _open_payload(header_path, dims) as f:
        buf = np.empty(dims[:2], dtype="<f4", order="F")

        def plane(k: int) -> np.ndarray:
            f.seek(k * buf.nbytes)
            got = f.readinto(buf.T)
            if got != buf.nbytes:
                raise _length_mismatch(header_path, math.prod(dims) * 4, k * buf.nbytes + got)
            return buf

        yield tuple(dims), plane
