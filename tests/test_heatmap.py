"""Gaussian heatmap construction, argmax decoding and WMSE."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxloc.heatmap import (
    HeatmapSpec,
    TargetPoint,
    argmax_position,
    gaussian_heatmap,
    wmse,
)
from voxloc.volume import Volume3, flip_lr, support_box


class TestHeatmapSpec:
    def test_defaults(self):
        spec = HeatmapSpec()
        assert spec.sigma_mm == 1.5
        assert spec.cutoff == 0.05
        assert spec.peak == 1.0

    def test_support_radius(self):
        # sigma * sqrt(2 ln 20) for the default cutoff
        spec = HeatmapSpec()
        assert abs(spec.support_radius_mm - 1.5 * math.sqrt(2.0 * math.log(20.0))) <= 1e-12
        assert abs(spec.support_radius_mm - 3.671) <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            HeatmapSpec(sigma_mm=0.0)
        with pytest.raises(ValueError):
            HeatmapSpec(cutoff=-0.1)
        with pytest.raises(ValueError):
            HeatmapSpec(cutoff=1.0)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-170, 1e-160, 1.34e154, 1e200, math.inf])
    def test_rejects_sigma_whose_variance_underflows_or_overflows(self, sigma):
        # 2*sigma^2 is the heatmap's denominator: 0 would put a NaN at the center voxel
        with pytest.raises(ValueError, match="sigma"):
            HeatmapSpec(sigma_mm=sigma)

    def test_smallest_accepted_sigma_gives_finite_map(self):
        h = gaussian_heatmap(HeatmapSpec(sigma_mm=1e-150), TargetPoint((5, 5, 5)), (10, 10, 10), (1, 1, 1))
        assert np.isfinite(h.data).all()
        assert argmax_position(h).position == (5.0, 5.0, 5.0)

    @pytest.mark.parametrize("sigma", [0.1, 1e-150])
    def test_sub_voxel_sigma_off_voxel_center_is_rejected(self, sigma):
        # no voxel reaches the cutoff: the map would be all zero and decode to (0, 0, 0)
        with pytest.raises(ValueError, match="cutoff"):
            gaussian_heatmap(HeatmapSpec(sigma_mm=sigma), TargetPoint((5.3, 5, 5)), (10, 10, 10), (1, 1, 1))

    def test_sub_voxel_sigma_off_grid_center_gives_zero_map(self):
        # past the last voxel the map may be empty: the target left the grid
        h = gaussian_heatmap(HeatmapSpec(sigma_mm=0.1), TargetPoint((9.3, 5, 5)), (10, 10, 10), (1, 1, 1))
        assert not h.data.any()


class TestGaussianHeatmap:
    def test_center_value_is_one(self):
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((32, 32, 32)), (64, 64, 64), (1, 1, 1))
        assert h.data[32, 32, 32] == 1.0
        assert h.data.max() == 1.0

    def test_one_sigma_offset(self):
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((32, 32, 32)), (64, 64, 64), (1.5, 1, 1))
        # voxel (31,32,32) sits 1.5mm = one sigma from the center
        assert abs(h.data[31, 32, 32] - math.exp(-0.5)) <= 1e-9

    def test_cutoff_zeroes_far_values(self):
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((32, 32, 32)), (64, 64, 64), (1, 1, 1))
        # 4.0mm offset: exp(-16/4.5) ~ 0.02856 < 0.05 -> exactly 0
        assert h.data[36, 32, 32] == 0.0
        # 3.0mm offset: exp(-9/4.5) ~ 0.135 > 0.05 -> kept
        assert abs(h.data[35, 32, 32] - math.exp(-9.0 / 4.5)) <= 1e-9

    def test_support_ball(self):
        spec = HeatmapSpec()
        c = np.array([20.0, 20.0, 20.0])
        h = gaussian_heatmap(spec, TargetPoint(tuple(c)), (40, 40, 40), (1, 1, 1))
        nz = np.argwhere(h.data > 0)
        dist = np.linalg.norm(nz - c, axis=1)
        assert dist.max() <= spec.support_radius_mm + 1e-9

    def test_radial_symmetry(self):
        # value depends only on physical distance to the center
        spec = HeatmapSpec(cutoff=0.0)
        h = gaussian_heatmap(spec, TargetPoint((10, 10, 10)), (21, 21, 21), (1, 1, 1))
        rng = np.random.default_rng(0)
        for _ in range(50):
            offset = rng.integers(-3, 4, size=3)
            a = h.data[tuple(10 + offset)]
            perm = rng.permutation(3)
            sign = rng.choice([-1, 1], size=3)
            b = h.data[tuple(10 + sign * offset[perm])]
            assert abs(a - b) <= 1e-12

    def test_subvoxel_center_peak_below_one(self):
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((16.5, 16.0, 16.0)), (33, 33, 33), (1, 1, 1))
        assert h.data.max() < 1.0
        assert h.data.max() > 0.8

    def test_anisotropic_spacing_distances(self):
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((8, 8, 8)), (17, 17, 17), (1.0, 3.0, 1.0))
        # one voxel along axis 1 is 3mm: exp(-9/4.5) ~ 0.135
        assert abs(h.data[8, 9, 8] - math.exp(-9.0 / 4.5)) <= 1e-9

    def test_zero_cutoff_full_support(self):
        h = gaussian_heatmap(HeatmapSpec(cutoff=0.0), TargetPoint((4, 4, 4)), (9, 9, 9), (1, 1, 1))
        assert np.all(h.data > 0.0)

    def test_sigma_near_floor_saturates_without_warning(self):
        # 2 sigma^2 is about 2.4e-308, so every off-centre quotient passes the float maximum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = gaussian_heatmap(HeatmapSpec(sigma_mm=1.1e-154, cutoff=0.0), TargetPoint((5, 5, 5)), (10, 10, 10), (2, 2, 2))
        expected = np.zeros((10, 10, 10))
        expected[5, 5, 5] = 1.0
        assert h.data.tobytes() == expected.tobytes()


@st.composite
def heatmap_requests(draw):
    """Grid, spacing and a centre inside it, on a face or off it."""
    dims = draw(st.tuples(*[st.integers(1, 40)] * 3))
    spacing = draw(st.tuples(*[st.floats(0.5, 2.0)] * 3))
    center = [draw(st.floats(0.0, d - 1.0)) for d in dims]
    where = draw(st.sampled_from(["inside", "face", "off"]))
    axis = draw(st.integers(0, 2))
    if where == "face":
        center[axis] = draw(st.sampled_from([0.0, dims[axis] - 1.0]))
    elif where == "off":
        beyond = draw(st.floats(0.5, 30.0))
        center[axis] = draw(st.sampled_from([-beyond, dims[axis] - 1.0 + beyond]))
    return dims, spacing, TargetPoint(tuple(center))


class TestSeededSupport:
    # sigma >= 1 mm on spacings <= 2 mm keeps a voxel within reach of any centre inside the grid
    @settings(max_examples=300, deadline=None)
    @given(
        request=heatmap_requests(),
        sigma=st.floats(1.0, 6.0),
        cutoff=st.one_of(st.just(0.0), st.floats(1e-6, 0.2)),
    )
    def test_seeded_box_is_support_box(self, request, sigma, cutoff):
        dims, spacing, center = request
        h = gaussian_heatmap(HeatmapSpec(sigma_mm=sigma, cutoff=cutoff), center, dims, spacing)
        box = h.support
        assert "data" not in h.__dict__  # found from the written block, not by a scan of the grid
        assert box == support_box(h.data)

    def test_off_grid_centre_has_no_support(self):
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((-40.0, 5.0, 5.0)), (10, 12, 14), (1, 1, 1))
        assert h.support is None
        assert "data" not in h.__dict__
        assert not h.data.any()


class TestArgmaxPosition:
    def test_recovers_heatmap_center(self):
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((32, 30, 20)), (64, 64, 64), (1, 1, 1))
        assert argmax_position(h).position == (32.0, 30.0, 20.0)

    def test_tie_break_smallest_linear_index(self):
        data = np.zeros((4, 4, 4))
        # linear index (x-fastest) of (1,1,0) is 5; of (1,2,0) is 9
        data[1, 1, 0] = 1.0
        data[1, 2, 0] = 1.0
        p = argmax_position(Volume3(data, (1, 1, 1)))
        assert p.position == (1.0, 1.0, 0.0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(1)
        v = Volume3(rng.random((6, 7, 8)), (1, 1, 1))
        p = argmax_position(v)
        best, best_val = None, -np.inf
        for k in range(8):
            for j in range(7):
                for i in range(6):  # x fastest: i innermost, scanned first
                    if v.data[i, j, k] > best_val:
                        best, best_val = (i, j, k), v.data[i, j, k]
        assert p.position == tuple(float(x) for x in best)

    def test_all_nan_rejected(self):
        v = Volume3(np.full((3, 3, 3), np.nan), (1, 1, 1))
        with pytest.raises(ValueError):
            argmax_position(v)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
        st.sampled_from([np.float32, np.float64]),
        st.data(),
    )
    def test_equals_nanargmax_over_linear_order(self, dims, dtype, data):
        # few distinct values make ties likely; NaN is one of them
        values = st.sampled_from([np.nan, -np.inf, -1.0, 0.0, 0.5, 1.0, np.inf])
        flat = np.array(data.draw(st.lists(values, min_size=math.prod(dims), max_size=math.prod(dims))), dtype=dtype)
        if np.isnan(flat).all():
            flat[data.draw(st.integers(0, flat.size - 1))] = 0.0
        v = Volume3(flat.reshape(dims, order="F"), (1, 1, 1))
        expected = np.unravel_index(int(np.nanargmax(v.ravel_linear())), dims, order="F")
        assert argmax_position(v).position == tuple(float(i) for i in expected)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
        st.tuples(*(st.tuples(st.integers(1, 3), st.integers(1, 3)),) * 3),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from(
            [
                [np.nan, -np.inf, -1.0, 0.0, 0.5, 1.0, np.inf],
                [np.nan, -np.inf, -1.0, 0.0],
                [-1.0, -0.5, 0.0],
                [0.0],
            ]
        ),
        st.data(),
    )
    def test_embedded_block_equals_nanargmax_over_linear_order(self, block, margins, dtype, pool, data):
        # the drawn block sits in a zero grid clear of every face, so the support box is inside it;
        # the pools cover NaN in the box, boxes of values <= 0, +-inf and an all-zero volume
        n = math.prod(block)
        flat = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=dtype)
        dims = tuple(lo + n + hi for n, (lo, hi) in zip(block, margins))
        grid = np.zeros(dims, dtype=dtype)
        grid[tuple(slice(lo, lo + n) for n, (lo, _) in zip(block, margins))] = flat.reshape(block, order="F")
        v = Volume3(grid, (1, 1, 1))
        expected = np.unravel_index(int(np.nanargmax(v.ravel_linear())), dims, order="F")
        assert argmax_position(v).position == tuple(float(i) for i in expected)

    def test_flip_reflects_argmax(self):
        rng = np.random.default_rng(2)
        v = Volume3(rng.random((9, 5, 5)), (1, 1, 1))
        p = argmax_position(v).position
        q = argmax_position(flip_lr(v)).position
        assert q == (v.dims[0] - 1 - p[0], p[1], p[2])


class TestWmse:
    def test_perfect_prediction(self):
        h = gaussian_heatmap(HeatmapSpec(), TargetPoint((8, 8, 8)), (17, 17, 17), (1, 1, 1))
        loss, grad = wmse(h, h, fg_weight=100.0)
        assert loss == 0.0
        assert np.all(grad.data == 0.0)

    def test_hand_example(self):
        # single voxel, pred 0.5, gt 1 (foreground), weight 2:
        # loss = 2 * 0.25 = 0.5, grad = 2 * 2 * (-0.5) = -2
        pred = Volume3(np.full((1, 1, 1), 0.5), (1, 1, 1))
        gt = Volume3(np.ones((1, 1, 1)), (1, 1, 1))
        loss, grad = wmse(pred, gt, fg_weight=2.0)
        assert abs(loss - 0.5) <= 1e-12
        assert abs(grad.data[0, 0, 0] - (-2.0)) <= 1e-12

    def test_background_weight_is_one(self):
        pred = Volume3(np.full((1, 1, 1), 0.5), (1, 1, 1))
        gt = Volume3(np.zeros((1, 1, 1)), (1, 1, 1))
        loss, grad = wmse(pred, gt, fg_weight=100.0)
        assert abs(loss - 0.25) <= 1e-12
        assert abs(grad.data[0, 0, 0] - 1.0) <= 1e-12

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(3)
        dims = (12, 11, 10)
        gt = gaussian_heatmap(HeatmapSpec(), TargetPoint((6, 5, 5)), dims, (1, 1, 1))
        pred_data = rng.random(dims)
        _, grad = wmse(Volume3(pred_data, (1, 1, 1)), gt, fg_weight=100.0)
        eps = 1e-6
        for _ in range(20):
            idx = tuple(rng.integers(0, n) for n in dims)
            plus = pred_data.copy()
            plus[idx] += eps
            minus = pred_data.copy()
            minus[idx] -= eps
            lp, _ = wmse(Volume3(plus, (1, 1, 1)), gt, fg_weight=100.0)
            lm, _ = wmse(Volume3(minus, (1, 1, 1)), gt, fg_weight=100.0)
            fd = (lp - lm) / (2.0 * eps)
            assert abs(fd - grad.data[idx]) <= 1e-5 * max(1.0, abs(fd))

    def test_dim_mismatch_rejected(self):
        a = Volume3(np.zeros((2, 2, 2)), (1, 1, 1))
        b = Volume3(np.zeros((3, 3, 3)), (1, 1, 1))
        with pytest.raises(ValueError):
            wmse(a, b, fg_weight=2.0)

    def test_rejects_small_weight(self):
        a = Volume3(np.zeros((2, 2, 2)), (1, 1, 1))
        with pytest.raises(ValueError):
            wmse(a, a, fg_weight=0.5)


class TestTargetPoint:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TargetPoint((np.nan, 0, 0))
        with pytest.raises(ValueError):
            TargetPoint((np.inf, 0, 0))

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            TargetPoint((0, 0, 0), side="center")
