"""Rigid and intensity transforms: algebra, inverses, samplers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from voxloc.transforms import (
    IntensityCurve,
    RigidTransform,
    TransformPriors,
    _bezier_points,
    _mapped_block,
    intensity_apply,
    intensity_apply_inverse,
    rigid_apply,
    rotation_matrix,
    sample_axis,
    sample_transform,
)
from voxloc.heatmap import HeatmapSpec, TargetPoint, gaussian_heatmap
from voxloc.volume import Volume3, _from_block, support_box

#: priors that draw only the identity transform and curve
IDENTITY_PRIORS = TransformPriors(s_range=(0.0, 0.0), r_range=(0.0, 0.0), curve_control_range=(0.5, 0.5))


def compact_smooth_volume(dims=(64, 64, 64)):
    """Smooth content supported well inside the volume.

    The envelope reaches zero about 12 voxels from the center, so rigid
    roundtrips with translations up to the default priors never drag real
    content through the clamped boundary.
    """
    i, j, k = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    c = [(n - 1) / 2.0 for n in dims]
    r = np.sqrt((i - c[0]) ** 2 + (j - c[1]) ** 2 + (k - c[2]) ** 2)
    envelope = 0.5 * (1.0 + np.cos(np.clip(r / 12.0, 0.0, 1.0) * np.pi))
    bumps = 0.6 * np.exp(-((i - c[0] - 3) ** 2 + (j - c[1]) ** 2 + (k - c[2] + 2) ** 2) / 50.0)
    bumps += 0.4 * np.exp(-((i - c[0] + 4) ** 2 + (j - c[1] - 3) ** 2 + (k - c[2]) ** 2) / 30.0)
    return Volume3(envelope * (0.2 + bumps), (1.0, 1.0, 1.0))


def bezier_point(curve, t):
    """Exact cubic Bernstein point of the curve at parameter t, as the lookup table holds it."""
    x, y = _bezier_points(curve.p1, curve.p2, np.array([t]))[0]
    return (float(x), float(y))


class TestBezierEval:
    def test_identity_curve(self):
        curve = IntensityCurve.identity()
        for t in [0.0, 0.1, 0.37, 0.5, 0.99, 1.0]:
            x, y = bezier_point(curve, t)
            assert abs(x - t) <= 1e-12
            assert abs(y - t) <= 1e-12

    def test_endpoints(self):
        curve = IntensityCurve((0.3, 0.8), (0.7, 0.1))
        assert bezier_point(curve, 0.0) == (0.0, 0.0)
        assert bezier_point(curve, 1.0) == (1.0, 1.0)

    def test_hand_computed_point(self):
        # P1 = P2 = (0,1), t = 0.5:
        #   x = 3*(0.5)^2*0.5*0 + ... + 0.5^3 = 0.125
        #   y = 0.375 + 0.375 + 0.125 = 0.875
        curve = IntensityCurve((0.0, 1.0), (0.0, 1.0))
        x, y = bezier_point(curve, 0.5)
        assert abs(x - 0.125) <= 1e-12
        assert abs(y - 0.875) <= 1e-12

    def test_rejects_controls_outside_unit_square(self):
        with pytest.raises(ValueError):
            IntensityCurve((1.2, 0.5), (0.5, 0.5))
        with pytest.raises(ValueError):
            IntensityCurve((0.5, 0.5), (0.5, -0.1))


class TestIntensityCurve:
    def test_apply_reads_hand_computed_point(self):
        # the same Bernstein point as TestBezierEval, read through the lookup table
        curve = IntensityCurve((0.0, 1.0), (0.0, 1.0))
        out = intensity_apply(curve, Volume3(np.full((1, 1, 1), 0.125), (1, 1, 1)))
        assert abs(out.data[0, 0, 0] - 0.875) <= 1e-5

    def test_identity_apply_unchanged(self):
        rng = np.random.default_rng(0)
        v = Volume3(rng.random((8, 8, 8)), (1, 1, 1))
        out = intensity_apply(IntensityCurve.identity(), v)
        assert np.max(np.abs(out.data - v.data)) <= 1e-9

    def test_forward_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        v = Volume3(rng.random((10, 10, 10)), (1, 1, 1))
        for seed in range(8):
            _, curve = sample_transform(TransformPriors(), seed)
            back = intensity_apply_inverse(curve, intensity_apply(curve, v))
            assert np.max(np.abs(back.data - v.data)) <= 2e-3

    def test_extreme_curve_maps_known_point(self):
        curve = IntensityCurve((0.0, 1.0), (0.0, 1.0))
        v = Volume3(np.full((2, 2, 2), 0.125), (1, 1, 1))
        out = intensity_apply(curve, v)
        np.testing.assert_allclose(out.data, 0.875, atol=2e-3)

    def test_lut_monotone_with_unit_endpoints(self):
        for seed in range(50):
            _, curve = sample_transform(TransformPriors(), seed)
            assert np.all(np.diff(curve.lut_y) >= 0.0)
            assert curve.lut_y[0] == 0.0
            assert curve.lut_y[-1] == 1.0
            x, _ = curve.lut_x, curve.lut_y
            assert x[0] == 0.0 and x[-1] == 1.0

    def test_out_of_range_intensities_clamped(self, caplog):
        curve = IntensityCurve.identity()
        v = Volume3(np.array([-0.5, 0.5, 1.5, 0.2]).reshape(4, 1, 1), (1, 1, 1))
        with caplog.at_level("WARNING"):
            out = intensity_apply(curve, v)
        assert "2" in caplog.text
        assert out.data.min() >= 0.0
        assert out.data.max() <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        p1=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        p2=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        u=st.floats(0, 1),
    )
    def test_roundtrip_property(self, p1, p2, u):
        # inverse contract holds for any unit-square control points
        curve = IntensityCurve(p1, p2)
        v = Volume3(np.full((1, 1, 1), u), (1, 1, 1))
        back = intensity_apply_inverse(curve, intensity_apply(curve, v))
        assert abs(float(back.data[0, 0, 0]) - u) <= 2e-3


class TestRigidApply:
    def test_identity_nearest_bitwise(self):
        rng = np.random.default_rng(2)
        v = Volume3(rng.random((9, 9, 9)), (1, 1, 1))
        tf = RigidTransform((0, 0, 1), 0.0, (0, 0, 0))
        np.testing.assert_array_equal(rigid_apply(tf, v, "nearest").data, v.data)

    def test_identity_trilinear(self):
        rng = np.random.default_rng(3)
        v = Volume3(rng.random((9, 9, 9)), (1, 1, 1))
        tf = RigidTransform((0, 0, 1), 0.0, (0, 0, 0))
        np.testing.assert_allclose(rigid_apply(tf, v, "trilinear").data, v.data, atol=1e-12)

    def test_pure_translation_moves_voxel(self):
        data = np.zeros((41, 41, 41))
        data[20, 20, 20] = 1.0
        v = Volume3(data, (1, 1, 1))
        tf = RigidTransform((0, 0, 1), 0.0, (10, 0, 0))
        out = rigid_apply(tf, v, "nearest")
        assert out.data[30, 20, 20] == 1.0
        assert out.data[20, 20, 20] == 0.0

    def test_rotation_90_about_z(self):
        # voxel at pivot + (5,0,0) lands at pivot + (0,5,0):
        # R_z(90) (5,0,0) = (0,5,0) for the right-handed Rodrigues convention
        data = np.zeros((41, 41, 41))
        data[25, 20, 20] = 1.0
        v = Volume3(data, (1, 1, 1))
        tf = RigidTransform((0, 0, 1), 90.0, (0, 0, 0))
        out = rigid_apply(tf, v, "nearest")
        assert out.data[20, 25, 20] == 1.0

    def test_rotation_matrix_hand_check(self):
        rot = rotation_matrix(np.array([0.0, 0.0, 1.0]), 90.0)
        np.testing.assert_allclose(rot @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rot @ np.array([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_rejects_unknown_interpolation(self):
        v = Volume3(np.zeros((4, 4, 4)), (1, 1, 1))
        tf = RigidTransform((0, 0, 1), 0.0, (0, 0, 0))
        with pytest.raises(ValueError):
            rigid_apply(tf, v, "cubic")


class TestRigidInvert:
    def test_invert_identity(self):
        tf = RigidTransform((0, 0, 1), 0.0, (0, 0, 0))
        inv = tf.invert()
        assert inv.angle_deg == 0.0
        np.testing.assert_allclose(inv.translation, (0, 0, 0), atol=1e-15)

    def test_invert_pure_translation(self):
        tf = RigidTransform((0, 0, 1), 0.0, (3.0, -2.0, 0.5))
        inv = tf.invert()
        np.testing.assert_allclose(inv.translation, (-3.0, 2.0, -0.5), atol=1e-12)
        assert inv.angle_deg == 0.0

    def test_roundtrip_on_grid(self):
        # composed coordinate map is the identity over the full 64-cube grid
        rng = np.random.default_rng(4)
        for seed in range(5):
            tf, _ = sample_transform(TransformPriors(), seed)
            grid = np.stack(
                np.meshgrid(*(np.arange(64, dtype=np.float64),) * 3, indexing="ij"), axis=-1
            ).reshape(-1, 3)
            roundtrip = tf.invert().map_points(tf.map_points(grid, dims=(64, 64, 64)), dims=(64, 64, 64))
            assert np.max(np.abs(roundtrip - grid)) <= 1e-9

    def test_smooth_phantom_roundtrip(self):
        v = compact_smooth_volume()
        for seed in (0, 1):
            tf, _ = sample_transform(TransformPriors(), seed)
            back = rigid_apply(tf.invert(), rigid_apply(tf, v, "trilinear"), "trilinear")
            assert np.max(np.abs(back.data - v.data)) <= 0.05


class TestSampleTransform:
    def test_deterministic(self):
        a_tf, a_curve = sample_transform(TransformPriors(), 1234)
        b_tf, b_curve = sample_transform(TransformPriors(), 1234)
        assert a_tf == b_tf
        assert a_curve.p1 == b_curve.p1 and a_curve.p2 == b_curve.p2

    def test_different_seeds_differ(self):
        a_tf, _ = sample_transform(TransformPriors(), 0)
        b_tf, _ = sample_transform(TransformPriors(), 1)
        assert a_tf != b_tf

    def test_translation_bounds_monte_carlo(self):
        draws = np.array(
            [sample_transform(TransformPriors(), seed)[0].translation for seed in range(10_000)]
        )
        assert np.all(draws >= -10.0) and np.all(draws <= 10.0)
        assert np.all(draws.min(axis=0) <= -9.0)
        assert np.all(draws.max(axis=0) >= 9.0)

    def test_angle_bounds(self):
        angles = np.array(
            [sample_transform(TransformPriors(), seed)[0].angle_deg for seed in range(2_000)]
        )
        assert np.all(angles >= -20.0) and np.all(angles <= 20.0)
        assert angles.min() <= -18.0 and angles.max() >= 18.0

    def test_sampled_curves_monotone(self):
        for seed in range(2_000):
            _, curve = sample_transform(TransformPriors(), seed)
            assert curve.p1[0] <= curve.p2[0]
            assert np.all(np.diff(curve.lut_y) >= 0.0)

    def test_axis_isotropy(self):
        rng = np.random.default_rng(99)
        axes = np.array([sample_axis(rng) for _ in range(100_000)])
        np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(axes.mean(axis=0)) <= 0.02

    def test_identity_priors(self):
        tf, curve = sample_transform(IDENTITY_PRIORS, 7)
        assert tf.angle_deg == 0.0
        assert tf.translation == (0.0, 0.0, 0.0)
        v = Volume3(np.linspace(0, 1, 27).reshape(3, 3, 3), (1, 1, 1))
        out = intensity_apply(curve, v)
        assert np.max(np.abs(out.data - v.data)) <= 1e-12


def rigid_apply_reference(tf, v, interpolation):
    """Explicit-grid resampling: map every output voxel to its source point, then sample."""
    pivot = tf.resolve_pivot(v.dims)
    rot_inv = rotation_matrix(tf.axis, -tf.angle_deg)
    grids = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in v.dims), indexing="ij")
    q = np.stack([g.ravel() for g in grids])  # (3, N)
    coords = rot_inv @ (q - (pivot + np.asarray(tf.translation))[:, None]) + pivot[:, None]
    order = 1 if interpolation == "trilinear" else 0
    out = ndimage.map_coordinates(v.data.astype(np.float64), coords, order=order, mode="nearest")
    return out.reshape(v.dims).astype(v.data.dtype)


class TestRigidApplyReference:
    # the two formulas round the source coordinates differently, so values
    # may differ by float64 noise, or by one ulp after a float32 cast
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1.2e-7)])
    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    def test_matches_explicit_grid(self, dtype, tol, interpolation):
        v = Volume3(np.random.default_rng(9).random((64, 64, 64)).astype(dtype), (1.0, 1.0, 1.0))
        worst = 0.0
        for seed in range(50):
            tf, _ = sample_transform(TransformPriors(), seed)
            out = rigid_apply(tf, v, interpolation)
            assert out.data.dtype == dtype
            ref = rigid_apply_reference(tf, v, interpolation)
            worst = max(worst, float(np.max(np.abs(out.data.astype(np.float64) - ref))))
        assert worst <= tol


def affine_reference(tf, v, interpolation):
    """One full-grid ``affine_transform``: the warp before support bounding."""
    pivot = tf.resolve_pivot(v.dims)
    rot_inv = rotation_matrix(tf.axis, -tf.angle_deg)
    offset = pivot - rot_inv @ (pivot + np.asarray(tf.translation))
    order = 1 if interpolation == "trilinear" else 0
    out = ndimage.affine_transform(v.data.astype(np.float64), rot_inv, offset=offset, order=order, mode="nearest")
    return out.astype(v.data.dtype)


def held_on_nonzero_box(data):
    """A volume of ``data`` that holds only its nonzero box, as a sampled heatmap does."""
    box = support_box(data)
    return _from_block(data[box].copy(), box, data.shape, (1.0, 1.0, 1.0))


class TestRigidApplySupportBounded:
    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(16, 40),) * 3),
        seed=st.integers(0, 2**32 - 1),
        where=st.tuples(*(st.floats(0.0, 1.0),) * 3),
        sigma=st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]),
        interpolation=st.sampled_from(["trilinear", "nearest"]),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_equals_full_warp_and_is_zero_outside_block(self, dims, seed, where, sigma, interpolation, dtype):
        # targets anywhere on the grid, so some supports touch a face
        center = TargetPoint(tuple(w * (d - 1) for w, d in zip(where, dims)))
        h = gaussian_heatmap(HeatmapSpec(sigma_mm=sigma), center, dims, (1.0, 1.0, 1.0))
        v = _from_block(h.block.astype(dtype), h.support, dims, h.spacing)
        tf, _ = sample_transform(TransformPriors(), seed)
        out = rigid_apply(tf, v, interpolation)
        ref = affine_reference(tf, v, interpolation)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, ref)
        block = _mapped_block(tf, v)
        # a held box may reach a face through a rim of zeros; only a value on a face needs the full warp
        touches = any(s.start == 0 or s.stop == n for s, n in zip(support_box(v.data), dims))
        assert (block is None) == touches
        if block is not None:
            outside = ref.copy()
            outside[block] = 0
            assert not outside.any()

    def test_point_support_under_large_rotation(self):
        # a one-voxel box under large rotations: the rotated reach of the
        # interpolation stencil is the widest margin the padding must cover
        data = np.zeros((21, 21, 21))
        data[7, 12, 9] = 1.0
        v = held_on_nonzero_box(data)
        for angle in (30.0, 45.0, 60.0, 90.0, 135.0):
            for axis in ((1, 1, 1), (1, -1, 0), (0, 0, 1)):
                tf = RigidTransform(axis, angle, (0.3, -0.45, 0.5))
                for interpolation in ("trilinear", "nearest"):
                    out = rigid_apply(tf, v, interpolation)
                    ref = affine_reference(tf, v, interpolation)
                    np.testing.assert_array_equal(out.data, ref)
                    outside = ref.copy()
                    outside[_mapped_block(tf, v)] = 0
                    assert not outside.any()

    def test_support_mapped_off_the_grid_gives_zeros(self):
        data = np.zeros((21, 21, 21))
        data[4:7, 10, 10] = 1.0
        v = held_on_nonzero_box(data)
        tf = RigidTransform((0, 0, 1), 10.0, (-30.0, 0.0, 0.0))
        block = _mapped_block(tf, v)
        assert block[0] == slice(0, 0)
        out = rigid_apply(tf, v)
        assert out.support == block and out.block.size == 0  # the empty block keeps its box
        assert not out.data.any()
        np.testing.assert_array_equal(out.data, affine_reference(tf, v, "trilinear"))

    @pytest.mark.parametrize(
        "center", [(0.0, 10.0, 10.0), (10.0, 20.0, 10.0), (10.0, 10.0, 0.4)], ids=["low-0", "high-1", "low-2"]
    )
    def test_support_on_a_face_takes_full_warp(self, center, monkeypatch):
        v = gaussian_heatmap(HeatmapSpec(), TargetPoint(center), (21, 21, 21), (1, 1, 1))
        tf, _ = sample_transform(TransformPriors(), 3)
        ref = affine_reference(tf, v, "trilinear")
        calls = spy_warps(monkeypatch)
        np.testing.assert_array_equal(rigid_apply(tf, v).data, ref)
        assert calls == ["affine_transform"]

    def test_all_zero_volume_takes_full_warp(self, monkeypatch):
        v = Volume3(np.zeros((12, 12, 12)), (1, 1, 1))
        calls = spy_warps(monkeypatch)
        tf, _ = sample_transform(TransformPriors(), 4)
        out = rigid_apply(tf, v)
        assert out.support == (slice(0, 0),) * 3  # held on the empty box: no voxel of the warp is nonzero
        assert out.block.size == 0
        assert not out.data.any()
        assert calls == ["affine_transform"]

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(8, 24),) * 3),
        seed=st.integers(0, 2**32 - 1),
        where=st.tuples(*(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0, 1.2]),) * 3),
        content=st.sampled_from(["heatmap", "image", "zeros"]),
        interpolation=st.sampled_from(["trilinear", "nearest"]),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_full_warp_is_held_on_support_box_of_its_values(self, dims, seed, where, content, interpolation, dtype):
        # a volume built by Volume3 holds its whole grid, so it takes the full warp whatever it holds
        if content == "heatmap":  # a near-face or off-grid peak leaves the warp mostly zero
            center = TargetPoint(tuple(w * (d - 1) for w, d in zip(where, dims)))
            data = gaussian_heatmap(HeatmapSpec(), center, dims, (1.0, 1.0, 1.0)).data
        elif content == "image":
            data = np.random.default_rng(seed % 1000).random(dims) + 0.1
        else:
            data = np.zeros(dims)
        v = Volume3(data.astype(dtype), (1.0, 1.0, 1.0))
        tf, _ = sample_transform(TransformPriors(), seed)
        out = rigid_apply(tf, v, interpolation)
        ref = affine_reference(tf, v, interpolation)
        assert out.support == (support_box(ref) or (slice(0, 0),) * 3)  # the output holds only that box
        assert "data" not in out.__dict__  # the held block is read without building the grid
        assert out.block.dtype == dtype
        assert out.block.tobytes() == ref[out.support].tobytes()
        assert out.data.dtype == dtype
        assert out.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("fill", [0.0, -0.0, 1e-300], ids=["zero", "negative-zero", "tiny"])
    def test_held_box_on_a_face_takes_block_warp_unless_a_face_voxel_is_set(self, fill, monkeypatch):
        # the held box reaches face 0 of axis 0, where it holds zeros unless filled; the full
        # warp turns a read of -0.0 into +0.0, as the block warp leaves every voxel outside it
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((4.2, 10.0, 10.0)), (21, 21, 21), (1, 1, 1))
        box, values = h.support, h.block.copy()
        assert box[0].start == 0 and not values[0].any()
        values[0, 4, 4] = fill
        v = _from_block(values, box, h.dims, h.spacing)
        tf, _ = sample_transform(TransformPriors(), 5)
        ref = affine_reference(tf, v, "trilinear")
        calls = spy_warps(monkeypatch)
        assert rigid_apply(tf, v).data.tobytes() == ref.tobytes()
        assert calls == ["map_coordinates" if fill == 0.0 else "affine_transform"]

    def test_inner_support_takes_block_warp(self, monkeypatch):
        v = gaussian_heatmap(HeatmapSpec(), TargetPoint((10.0, 9.5, 11.0)), (21, 21, 21), (1, 1, 1))
        tf, _ = sample_transform(TransformPriors(), 5)
        ref = affine_reference(tf, v, "trilinear")
        calls = spy_warps(monkeypatch)
        np.testing.assert_array_equal(rigid_apply(tf, v).data, ref)
        assert calls == ["map_coordinates"]


def spy_warps(monkeypatch):
    """Record which scipy resampler each ``rigid_apply`` call runs."""
    calls = []
    for name in ("affine_transform", "map_coordinates"):
        original = getattr(ndimage, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ndimage, name, spy)
    return calls


class TestCommutation:
    def test_intensity_commutes_with_nearest_rigid(self):
        # per-voxel maps commute with pure voxel shuffling, bitwise
        rng = np.random.default_rng(5)
        v = Volume3(rng.random((16, 16, 16)), (1, 1, 1))
        tf, curve = sample_transform(TransformPriors(), 11)
        a = rigid_apply(tf, intensity_apply(curve, v), "nearest")
        b = intensity_apply(curve, rigid_apply(tf, v, "nearest"))
        np.testing.assert_array_equal(a.data, b.data)
