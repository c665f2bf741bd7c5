"""Volume substrate: construction, resampling, cropping, flipping, file I/O."""

from __future__ import annotations

import json
import re
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxloc import volume as volume_module
from voxloc.heatmap import argmax_position
from voxloc.transforms import TransformPriors, rigid_apply, sample_transform
from voxloc.uncertainty import mean_variance
from voxloc.volume import (
    Volume3,
    VoxelBox,
    _from_block,
    crop_box,
    downsample_to,
    flip_lr,
    read_volume,
    rescale_intensity,
    support_box,
    write_volume,
)


def ramp_volume(dims, spacing, coeffs=(0.0, 1.0, 0.0, 0.0)):
    """Tri-affine field a + b*i + c*j + d*k on the index grid."""
    a, b, c, d = coeffs
    i, j, k = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    return Volume3(a + b * i + c * j + d * k, spacing)


def smooth_volume(dims=(48, 48, 48), spacing=(1.0, 1.0, 1.0)):
    """Band-limited smooth test content, near zero at the boundary."""
    i, j, k = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    c = [(n - 1) / 2.0 for n in dims]
    r2 = ((i - c[0]) ** 2 + (j - c[1]) ** 2 + (k - c[2]) ** 2) / (min(dims) / 4.0) ** 2
    return Volume3(np.exp(-r2), spacing)


class TestVolume3:
    def test_valid_construction(self):
        v = Volume3(np.zeros((4, 5, 6)), (1.0, 2.0, 3.0))
        assert v.dims == (4, 5, 6)
        assert v.spacing == (1.0, 2.0, 3.0)

    def test_data_is_read_only(self):
        v = Volume3(np.zeros((2, 2, 2)), (1, 1, 1))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_rejects_bad_spacing(self):
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="spacing"):
                Volume3(np.zeros((2, 2, 2)), (1.0, bad, 1.0))

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            Volume3(np.zeros((2, 2)), (1, 1, 1))

    def test_linear_order_is_x_fastest(self):
        # element (i,j,k) sits at linear index i + nx*(j + ny*k)
        v = ramp_volume((2, 3, 4), (1, 1, 1), coeffs=(0.0, 1.0, 2.0, 6.0))
        lin = v.ravel_linear()
        nx, ny, _ = v.dims
        for (i, j, k) in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 3)]:
            assert lin[i + nx * (j + ny * k)] == v.data[i, j, k]


class TestResampleIsotropic:
    # isotropic resampling is downsample_to onto the grid whose dims give
    # the target spacing

    def test_identity(self):
        rng = np.random.default_rng(0)
        v = Volume3(rng.random((6, 7, 8)), (1.0, 1.0, 1.0))
        out = downsample_to(v, v.dims)
        assert out.dims == v.dims
        assert out.spacing == (1.0, 1.0, 1.0)
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_constant_upsample(self):
        v = Volume3(np.full((4, 4, 4), 0.7), (2.0, 2.0, 2.0))
        out = downsample_to(v, (8, 8, 8))
        assert out.dims == (8, 8, 8)
        assert out.spacing == (1.0, 1.0, 1.0)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-12)

    def test_linear_ramp_analytic(self):
        # f(i) = i/7 along axis 0 at spacing 2mm; resampled to 1mm the value
        # at output index q (physical q mm) is (q/2)/7 while in bounds.
        dims = (8, 6, 6)
        i = np.arange(dims[0], dtype=np.float64) / 7.0
        data = np.broadcast_to(i[:, None, None], dims).copy()
        v = Volume3(data, (2.0, 1.0, 1.0))
        out = downsample_to(v, (16, 6, 6))
        assert out.dims == (16, 6, 6)
        assert out.spacing == (1.0, 1.0, 1.0)
        q = np.arange(15)  # q=15 samples index 7.5, clamped; interior only
        expected = (q / 2.0) / 7.0
        np.testing.assert_allclose(out.data[:15, 0, 0], expected, atol=1e-9)

    def test_tri_affine_exact(self):
        # trilinear interpolation reproduces tri-affine fields exactly
        v = ramp_volume((9, 8, 7), (1.5, 2.0, 1.0), coeffs=(0.3, 0.25, -0.5, 1.75))
        out = downsample_to(v, (14, 16, 7))
        i, j, k = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in out.dims), indexing="ij")
        # in-bounds sample points only (edges clamp)
        src = [i * 9.0 / 14.0, j * 8.0 / 16.0, k * 7.0 / 7.0]
        inb = (src[0] <= 8) & (src[1] <= 7) & (src[2] <= 6)
        expected = 0.3 + 0.25 * src[0] - 0.5 * src[1] + 1.75 * src[2]
        assert np.max(np.abs(out.data[inb] - expected[inb])) <= 1e-9

    def test_roundtrip_smooth(self):
        v = smooth_volume()
        coarse = downsample_to(v, (30, 30, 30))
        back = downsample_to(coarse, v.dims)
        assert np.max(np.abs(back.data - v.data)) <= 0.05


class TestRescaleIntensity:
    def test_hand_example(self):
        v = Volume3(np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1), (1, 1, 1))
        out = rescale_intensity(v)
        np.testing.assert_allclose(out.data.ravel(), [0.0, 0.5, 1.0])

    def test_already_unit_range(self):
        data = np.linspace(0.0, 1.0, 8).reshape(2, 2, 2)
        v = Volume3(data, (1, 1, 1))
        np.testing.assert_allclose(rescale_intensity(v).data, data, atol=1e-15)

    def test_constant_maps_to_zeros(self):
        v = Volume3(np.full((2, 2, 2), 5.0), (1, 1, 1))
        assert np.all(rescale_intensity(v).data == 0.0)

    def test_minmax_invariant(self):
        rng = np.random.default_rng(3)
        v = Volume3(rng.normal(size=(5, 5, 5)) * 40 - 3, (1, 1, 1))
        out = rescale_intensity(v)
        assert out.data.min() == 0.0
        assert out.data.max() == 1.0


class TestDownsampleTo:
    def test_same_dims_identity(self):
        rng = np.random.default_rng(1)
        v = Volume3(rng.random((12, 12, 12)), (1, 1, 1))
        out = downsample_to(v, (12, 12, 12))
        np.testing.assert_array_equal(out.data, v.data)

    def test_constant(self):
        v = Volume3(np.full((16, 16, 16), 0.25), (1, 1, 1))
        out = downsample_to(v, (8, 8, 8))
        assert out.dims == (8, 8, 8)
        assert out.spacing == (2.0, 2.0, 2.0)
        np.testing.assert_allclose(out.data, 0.25, atol=1e-12)

    def test_linear_ramp_analytic(self):
        # ramp f(i)=i/(n-1) along axis 0; output voxel q samples input index
        # q * n_in/n_out, giving q * (100/80) / 99 analytically.
        dims = (100, 4, 4)
        i = np.arange(dims[0], dtype=np.float64) / 99.0
        v = Volume3(np.broadcast_to(i[:, None, None], dims).copy(), (1.0, 1.0, 1.0))
        out = downsample_to(v, (80, 4, 4))
        q = np.arange(80, dtype=np.float64)
        expected = q * (100.0 / 80.0) / 99.0
        inb = q * 100.0 / 80.0 <= 99.0
        np.testing.assert_allclose(out.data[inb, 0, 0], expected[inb], atol=1e-9)

    def test_preserves_physical_extent(self):
        v = Volume3(np.zeros((100, 60, 40)), (1.0, 2.0, 3.0))
        out = downsample_to(v, (50, 30, 10))
        extent_in = tuple(d * s for d, s in zip(v.dims, v.spacing))
        extent_out = tuple(d * s for d, s in zip(out.dims, out.spacing))
        assert extent_in == extent_out

    def test_rejects_bad_dims(self):
        v = Volume3(np.zeros((4, 4, 4)), (1, 1, 1))
        with pytest.raises(ValueError):
            downsample_to(v, (0, 4, 4))
        with pytest.raises(ValueError):
            downsample_to(v, (4, -1, 4))

    def test_nearest_preserves_binarity(self):
        rng = np.random.default_rng(7)
        v = Volume3((rng.random((20, 20, 20)) > 0.5).astype(np.float64), (1, 1, 1))
        out = downsample_to(v, (9, 9, 9), interpolation="nearest")
        assert set(np.unique(out.data)) <= {0.0, 1.0}


def float64_first_downsample(v: Volume3, dims, interpolation: str) -> np.ndarray:
    """``downsample_to`` as first written: a float64 copy of the input, one pass per axis, cast back."""
    out = v.data.astype(np.float64)
    for axis in range(3):
        n = out.shape[axis]
        pos = np.arange(dims[axis], dtype=np.float64) * (v.dims[axis] / dims[axis])
        if interpolation == "nearest":
            out = np.take(out, np.clip(np.rint(pos).astype(np.int64), 0, n - 1), axis=axis)
            continue
        pos = np.clip(pos, 0.0, float(n - 1))
        lo = np.minimum(np.floor(pos).astype(np.int64), n - 1)
        hi = np.minimum(lo + 1, n - 1)
        w = (pos - lo).reshape([-1 if a == axis else 1 for a in range(3)])
        out = np.take(out, lo, axis=axis) * (1.0 - w) + np.take(out, hi, axis=axis) * w
    return out.astype(v.data.dtype)


class TestDownsampleBytes:
    """No float64 copy of the input: the output bits are those of casting to float64 first."""

    @settings(max_examples=200, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        interpolation=st.sampled_from(["trilinear", "nearest"]),
        shape=st.tuples(*[st.integers(1, 12)] * 3),
        dims=st.tuples(*[st.integers(1, 20)] * 3),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from("CF"),
    )
    def test_matches_float64_first_reference(self, dtype, interpolation, shape, dims, seed, order):
        rng = np.random.default_rng(seed)
        v = Volume3(np.array(rng.normal(size=shape) * 100.0, dtype=dtype, order=order), (1.0, 0.5, 2.0))
        assert v.data.flags[f"{order}_CONTIGUOUS"]
        out = downsample_to(v, dims, interpolation=interpolation)
        assert out.data.dtype == dtype and out.data.flags.c_contiguous
        assert out.data.tobytes() == float64_first_downsample(v, dims, interpolation).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    @pytest.mark.parametrize("dims", [(80, 80, 80), (160, 96, 128)], ids=["down", "up"])
    def test_stage1_sized_grids(self, dtype, interpolation, dims):
        grid = smooth_volume((128, 128, 128)).data
        reference = float64_first_downsample(Volume3(grid.astype(dtype), (1.0, 1.0, 1.0)), dims, interpolation)
        for order in "CF":  # F is how read_volume returns a grid
            v = Volume3(grid.astype(dtype, order=order), (1.0, 1.0, 1.0))
            out = downsample_to(v, dims, interpolation=interpolation)
            assert out.data.dtype == dtype and out.data.flags.c_contiguous
            assert out.data.tobytes() == reference.tobytes()


class TestCropBox:
    def test_center_block_exact_copy(self):
        rng = np.random.default_rng(2)
        v = Volume3(rng.random((128, 128, 128)), (1, 1, 1))
        out = crop_box(v, VoxelBox((64, 64, 64), (64, 64, 64)))
        np.testing.assert_array_equal(out.data, v.data[32:96, 32:96, 32:96])

    def test_pad_oracle(self):
        # index-arithmetic oracle: compare against an explicitly zero-padded copy
        rng = np.random.default_rng(4)
        v = Volume3(rng.random((8, 8, 8)), (1, 1, 1))
        padded = np.zeros((12, 12, 12))
        padded[2:10, 2:10, 2:10] = v.data
        out = crop_box(v, VoxelBox((0, 0, 0), (4, 4, 4)))
        np.testing.assert_array_equal(out.data, padded[0:4, 0:4, 0:4])

    def test_single_voxel(self):
        rng = np.random.default_rng(5)
        v = Volume3(rng.random((6, 6, 6)), (1, 1, 1))
        out = crop_box(v, VoxelBox((3, 4, 5), (1, 1, 1)))
        assert out.data[0, 0, 0] == v.data[3, 4, 5]

    def test_center_readback(self):
        # output voxel floor(extent/2) is exactly v[center]
        rng = np.random.default_rng(6)
        v = Volume3(rng.random((40, 40, 40)), (1, 1, 1))
        for center, extent in [((20, 20, 20), (64, 64, 64)), ((5, 30, 11), (7, 8, 9))]:
            out = crop_box(v, VoxelBox(center, extent))
            q = tuple(e // 2 for e in extent)
            assert out.data[q] == v.data[center]

    def test_fully_outside(self):
        v = Volume3(np.ones((4, 4, 4)), (1, 1, 1))
        out = crop_box(v, VoxelBox((100, 100, 100), (4, 4, 4)))
        assert np.all(out.data == 0.0)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError):
            VoxelBox((0, 0, 0), (0, 4, 4))


class TestSupportBox:
    def test_all_zero_has_no_box(self):
        assert support_box(np.zeros((4, 5, 6))) is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_as_nonzero(self, value):
        data = np.zeros((6, 6, 6))
        data[1, 2, 3] = value
        assert support_box(data) == (slice(1, 2), slice(2, 3), slice(3, 4))

    def test_single_voxel(self):
        data = np.zeros((7, 8, 9), dtype=np.float32)
        data[6, 0, 4] = 0.5
        assert support_box(data) == (slice(6, 7), slice(0, 1), slice(4, 5))

    def test_nonzero_on_every_face_gives_full_grid(self):
        data = np.zeros((5, 6, 7))
        for face in ((0, 3, 3), (-1, 3, 3), (2, 0, 3), (2, -1, 3), (2, 3, 0), (2, 3, -1)):
            data[face] = 1.0
        assert support_box(data) == (slice(0, 5), slice(0, 6), slice(0, 7))

    @settings(max_examples=200, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        shape=st.tuples(*[st.integers(1, 12)] * 3),
        points=st.lists(st.tuples(*[st.integers(0, 11)] * 3), max_size=5),
        value=st.floats(width=32).filter(lambda x: x != 0),
    )
    def test_matches_nonzero_extent(self, dtype, shape, points, value):
        data = np.zeros(shape, dtype=dtype)
        for point in points:
            data[tuple(i % n for i, n in zip(point, shape))] = value
        hits = np.nonzero(data)
        expected = tuple(slice(int(h.min()), int(h.max()) + 1) for h in hits) if hits[0].size else None
        assert support_box(data) == expected


class TestDenseVolumeSupport:
    """A dense volume holds its whole grid as its ``support``, set when it is built; no read scans for it."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda data: Volume3(data, (1, 1, 1)),
            lambda data: flip_lr(Volume3(data, (1, 1, 1))),
            lambda data: crop_box(Volume3(data, (1, 1, 1)), VoxelBox((4, 3, 5), (7, 6, 9))),
            lambda data: downsample_to(Volume3(data, (1, 1, 1)), (5, 4, 6), interpolation="nearest"),
        ],
        ids=["constructor", "flip-lr", "crop-box", "downsample"],
    )
    @pytest.mark.parametrize("points", [[], [(2, 1, 3)], [(0, 5, 1), (6, 2, 8)]], ids=["empty", "one", "two"])
    def test_support_is_whole_grid_set_at_construction(self, make, points):
        # each of these holds its whole grid, zeros included, so its support is the whole grid
        data = np.zeros((7, 6, 9))
        for p in points:
            data[p] = 0.5
        v = make(data)
        whole = tuple(slice(0, n) for n in v.dims)
        assert v.__dict__["support"] == whole  # set when built
        assert v.support is v.__dict__["support"]
        assert v.block is v.__dict__["block"]
        assert "data" not in v.__dict__  # reading the support and its values builds no grid
        assert v.block.tobytes() == v.data.tobytes()
        nonzero = support_box(v.data)
        assert nonzero is None or all(s.start >= w.start and s.stop <= w.stop for s, w in zip(nonzero, whole))

    def test_first_use_from_many_threads_agrees(self):
        # tta and hybrid sampler threads read one heatmap at once: every thread sees the support set
        # when it was built, and each first read of the grid stores an equal grid
        data = np.zeros((24, 20, 28))
        data[3:9, 15, 2:20] = 1.0
        box = (slice(1, 12), slice(14, 17), slice(2, 20))
        mirrored = (slice(12, 23),) + box[1:]
        expected = data[::-1].tobytes()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                for _ in range(40):
                    v = flip_lr(_from_block(data[box].copy(), box, data.shape, (1, 1, 1)))
                    reads = list(pool.map(lambda _: (v.support, v.data), range(12), timeout=30))
                    assert all(got == mirrored and grid.tobytes() == expected for got, grid in reads)
                    assert v.__dict__["data"].tobytes() == expected
        finally:
            sys.setswitchinterval(old)


@st.composite
def held_blocks(draw):
    """(block, box, dims) with boxes that may be empty or touch faces, and blocks of
    random values or only zeros, -0.0 or NaN."""
    dims = draw(st.tuples(*[st.integers(1, 9)] * 3))
    box = []
    for n in dims:
        lo = draw(st.integers(0, n))
        box.append(slice(lo, draw(st.integers(lo, n))))
    shape = tuple(s.stop - s.start for s in box)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["random", "zeros", "negative-zero", "nan", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = {
        "random": lambda: rng.normal(size=shape) * (rng.random(shape) < 0.6),
        "zeros": lambda: np.zeros(shape),
        "negative-zero": lambda: np.full(shape, -0.0),
        "nan": lambda: np.full(shape, np.nan),
        "mixed": lambda: rng.choice([0.0, -0.0, np.nan, 1.5, -2.0], size=shape),
    }[kind]().astype(dtype)
    return block, tuple(box), dims


def dense_twin(block, box, dims):
    data = np.zeros(dims, dtype=block.dtype)
    data[box] = block
    return Volume3(data, (1.0, 2.0, 0.5))


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


class TestBlockHeld:
    """A volume built by ``_from_block`` holds its block and behaves as its dense twin."""

    @settings(max_examples=300, deadline=None)
    @given(held=held_blocks(), seed=st.integers(0, 1000))
    def test_matches_dense_twin(self, held, seed):
        block, box, dims = held
        ref = dense_twin(block, box, dims)
        v = _from_block(block.copy(), box, dims, ref.spacing)
        assert isinstance(v, Volume3)
        assert (v.dims, v.spacing, v.support) == (ref.dims, ref.spacing, box)  # an empty block keeps its box
        assert ref.support == tuple(slice(0, n) for n in dims)
        assert "data" not in v.__dict__  # dims, spacing and support build no grid
        assert v.block.tobytes() == ref.data[box].tobytes()
        assert "data" not in v.__dict__
        assert v.data.dtype == ref.data.dtype
        assert v.data.tobytes() == ref.data.tobytes()
        assert not v.data.flags.writeable
        assert v.data is v.data  # built once, then kept

        v = _from_block(block.copy(), box, dims, ref.spacing)
        flipped = flip_lr(v)
        assert "data" not in flipped.__dict__
        mirrored = (slice(dims[0] - box[0].stop, dims[0] - box[0].start),) + box[1:]
        assert flipped.support == mirrored
        assert flipped.data.tobytes() == flip_lr(ref).data.tobytes()
        assert flip_lr(flipped).data.tobytes() == ref.data.tobytes()

        assert outcome(argmax_position, v) == outcome(argmax_position, ref)
        tf, _ = sample_transform(TransformPriors(), seed)
        assert rigid_apply(tf, v).data.tobytes() == rigid_apply(tf, ref).data.tobytes()
        for got, want in zip(mean_variance([v, flipped, v]), mean_variance([ref, flip_lr(ref), ref])):
            assert got.data.tobytes() == want.data.tobytes()

    def test_block_becomes_read_only(self):
        block = np.ones((2, 2, 2))
        v = _from_block(block, (slice(1, 3),) * 3, (4, 4, 4), (1, 1, 1))
        with pytest.raises(ValueError):
            block[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            v.data[1, 1, 1] = 2.0

    def test_first_data_read_from_many_threads_agrees(self):
        # each first read builds and stores an equal grid; no lock is needed
        block = np.arange(1.0, 1.0 + 6 * 5 * 7).reshape(6, 5, 7)
        box = (slice(3, 9), slice(10, 15), slice(0, 7))
        expected = dense_twin(block, box, (24, 20, 28)).data.tobytes()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                for _ in range(40):
                    v = _from_block(block.copy(), box, (24, 20, 28), (1, 1, 1))
                    reads = list(pool.map(lambda _: v.data, range(12), timeout=30))
                    assert all(r.tobytes() == expected and not r.flags.writeable for r in reads)
                    assert v.__dict__["data"].tobytes() == expected
        finally:
            sys.setswitchinterval(old)


def dense_volume():
    return Volume3(np.arange(60.0).reshape(3, 4, 5), (1.0, 2.0, 0.5))


def block_held_volume():
    return _from_block(np.ones((2, 3, 2)), (slice(1, 3), slice(4, 7), slice(0, 2)), (64, 64, 64), (1.0, 2.0, 0.5))


class TestPlainClass:
    """``Volume3`` compares and hashes by identity, has a repr that builds no grid, and cannot change."""

    @pytest.mark.parametrize("make", [dense_volume, block_held_volume], ids=["dense", "block-held"])
    def test_identity_equality_and_hash(self, make):
        a, b = make(), make()
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
        assert "data" not in a.__dict__ and "data" not in b.__dict__  # comparing and hashing read no grid

    @pytest.mark.parametrize(
        "make, box",
        [(dense_volume, "[0:3, 0:4, 0:5]"), (block_held_volume, "[1:3, 4:7, 0:2]")],
        ids=["dense", "block-held"],
    )
    def test_repr_builds_no_grid(self, make, box):
        v = make()
        text = repr(v)
        assert str(v.dims) in text and str(v.spacing) in text and box in text
        assert "data" not in v.__dict__
        assert v.data is v.__dict__["data"]  # the key the assert above reads is where the grid is kept

    @pytest.mark.parametrize("make", [dense_volume, block_held_volume], ids=["dense", "block-held"])
    @pytest.mark.parametrize("name", ["data", "spacing", "dims", "block", "support", "extra"])
    def test_attributes_cannot_be_set_or_deleted(self, make, name):
        v = make()
        before = dict(v.__dict__)
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
        assert v.__dict__ == before


class TestFlipLr:
    def test_involution_bitwise(self):
        rng = np.random.default_rng(8)
        v = Volume3(rng.random((9, 5, 7)), (1, 1, 1))
        np.testing.assert_array_equal(flip_lr(flip_lr(v)).data, v.data)

    def test_index_reflection(self):
        data = np.zeros((8, 8, 8))
        data[0, 3, 3] = 1.0
        out = flip_lr(Volume3(data, (1, 1, 1)))
        assert out.data[7, 3, 3] == 1.0
        assert out.data.sum() == 1.0

    def test_argmax_reflects(self):
        rng = np.random.default_rng(9)
        v = Volume3(rng.random((11, 6, 6)), (1, 1, 1))
        flipped = flip_lr(v)
        p = np.unravel_index(np.argmax(v.data), v.dims)
        q = np.unravel_index(np.argmax(flipped.data), v.dims)
        assert q == (v.dims[0] - 1 - p[0], p[1], p[2])

    def test_preserves_multiset(self):
        rng = np.random.default_rng(10)
        v = Volume3(rng.random((5, 6, 7)), (1, 1, 1))
        assert sorted(flip_lr(v).data.ravel()) == sorted(v.data.ravel())


class TestVolumeFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        v = Volume3(rng.random((6, 7, 8)).astype(np.float32), (1.0, 1.5, 2.0))
        path = tmp_path / "vol.json"
        write_volume(v, path)
        back = read_volume(path)
        assert back.dims == v.dims
        assert back.spacing == v.spacing
        np.testing.assert_array_equal(back.data, v.data)

    def test_payload_is_x_fastest(self, tmp_path):
        v = ramp_volume((2, 3, 2), (1, 1, 1), coeffs=(0.0, 1.0, 2.0, 6.0))
        path = tmp_path / "vol.json"
        write_volume(v, path)
        raw = np.frombuffer((tmp_path / "vol.raw").read_bytes(), dtype="<f4")
        np.testing.assert_array_equal(raw, v.data.ravel(order="F").astype(np.float32))

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(1, 9)] * 3),
        dtype=st.sampled_from([np.float32, np.float64, ">f8"]),
        seed=st.integers(0, 2**16),
    )
    def test_slab_transposes_match_fortran_order(self, shape, dtype, seed):
        data = np.random.default_rng(seed).normal(size=shape).astype(dtype)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vol.json"
            write_volume(Volume3(data, (1, 1, 1)), path)
            raw = (Path(tmp) / "vol.raw").read_bytes()
            back = read_volume(path)
        assert raw == data.astype("<f4").ravel(order="F").tobytes()
        expected = np.frombuffer(raw, dtype="<f4").reshape(shape, order="F")
        assert back.data.flags.f_contiguous and back.data.flags.owndata
        assert back.data.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_rejects_payload_length_mismatch(self, tmp_path):
        v = Volume3(np.zeros((4, 4, 4), dtype=np.float32), (1, 1, 1))
        path = tmp_path / "vol.json"
        write_volume(v, path)
        payload = tmp_path / "vol.raw"
        full = payload.read_bytes()
        for wrong in (full[:-4], full[:-1], full + b"\0"):
            payload.write_bytes(wrong)
            message = f"length mismatch for {re.escape(str(path))}: expected 256 bytes, got {len(wrong)}$"
            with pytest.raises(ValueError, match=message):
                read_volume(path)

    def test_rejects_short_read_of_a_payload_whose_size_matched(self, tmp_path, monkeypatch):
        # the file shrinks between the size check and the read: no unfilled memory may become a volume
        path = tmp_path / "vol.json"
        write_volume(Volume3(np.ones((4, 4, 4), dtype=np.float32), (1, 1, 1)), path)
        payload = tmp_path / "vol.raw"
        payload.write_bytes(payload.read_bytes()[:-4])
        monkeypatch.setattr(volume_module, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=256)))
        with pytest.raises(ValueError, match="length mismatch") as info:
            read_volume(path)
        assert str(path) in str(info.value) and "got 252" in str(info.value)

    def test_read_peaks_at_one_payload(self, tmp_path):
        # the payload goes straight into the volume's array: no bytes buffer, no transposing copy
        path = tmp_path / "vol.json"
        write_volume(Volume3(np.ones((64, 64, 64), dtype=np.float32), (1, 1, 1)), path)
        tracemalloc.start()
        try:
            read_volume(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 64**3 * 4

    def test_rejects_unknown_header_fields(self, tmp_path):
        v = Volume3(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))
        path = tmp_path / "vol.json"
        write_volume(v, path)
        header = json.loads(path.read_text())
        header["dtype"] = "f64"
        path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="dtype"):
            read_volume(path)

    @pytest.mark.parametrize(
        "header, field",
        [
            ({"dims": "444"}, "dims"),
            ({"dims": [4.7, 4, 4]}, "dims"),
            ({"dims": [4.0, 4, 4]}, "dims"),
            ({"dims": [True, 64, 1]}, "dims"),
            ({"dims": [-4, -4, 4]}, "dims"),
            ({"dims": [0, 4, 4]}, "dims"),
            ({"dims": [4, 4]}, "dims"),
            ({"dims": None}, "dims"),  # None drops the key
            ({"spacing": None}, "spacing"),
            ({"spacing": ["nan", 1, 1]}, "spacing"),
            ({"spacing": [float("nan"), 1, 1]}, "spacing"),
            ({"spacing": [float("inf"), 1, 1]}, "spacing"),
            ({"spacing": [True, 1, 1]}, "spacing"),
            ({"spacing": [1, 1]}, "spacing"),
            ([], "JSON object"),
        ],
        ids=[
            "dims-string", "dims-fraction", "dims-float", "dims-bool", "dims-negative", "dims-zero", "dims-two",
            "dims-missing", "spacing-missing", "spacing-string", "spacing-nan", "spacing-inf", "spacing-bool",
            "spacing-two", "header-list",
        ],
    )
    def test_rejects_malformed_header_shape(self, tmp_path, header, field):
        path = tmp_path / "vol.json"
        write_volume(Volume3(np.zeros((4, 4, 4), dtype=np.float32), (1, 1, 1)), path)
        if isinstance(header, dict):
            header = {**json.loads(path.read_text()), **header}
            header = {k: v for k, v in header.items() if v is not None}
        path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match=field) as info:
            read_volume(path)
        assert str(path) in str(info.value)

    def test_rejects_dims_whose_voxel_count_wraps_int64(self, tmp_path):
        # 2**32 * 2**32 wraps to 0 in int64, which an empty payload would match
        path = tmp_path / "vol.json"
        write_volume(Volume3(np.zeros((1, 1, 1), dtype=np.float32), (1, 1, 1)), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "dims": [2**32, 2**32, 1]}))
        (tmp_path / "vol.raw").write_bytes(b"")
        with pytest.raises(ValueError, match="length mismatch") as info:
            read_volume(path)
        assert str(path) in str(info.value)

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(12)
        v = Volume3(rng.random((5, 5, 5)).astype(np.float32), (1, 1, 1))
        write_volume(v, tmp_path / "a.json")
        write_volume(v, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()
