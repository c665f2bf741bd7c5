"""Tests for the two-stage localization pipeline."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import voxloc.pipeline
import voxloc.predictors
import voxloc.volume
from voxloc.heatmap import HeatmapSpec, TargetPoint, gaussian_heatmap
from voxloc.phantom import PhantomSpec, generate_phantom
from voxloc.pipeline import (
    COARSE_DIMS,
    EmptyComponentError,
    PipelineConfig,
    PipelineFailureError,
    SIDES,
    _largest_component,
    _native_center,
    run_pipeline,
)
from voxloc.predictors import ConvNetLocalizer, ConvNetSpec, MarkerLocalizer, OracleLocalizerConfig, TruthMaskSegmenter
from voxloc.uncertainty import McConfig, run_mode
from voxloc.volume import Volume3, _from_block, downsample_to, flip_lr, support_box, write_volume

SP = (1.0, 1.0, 1.0)


def components_bfs(mask: np.ndarray):
    """Independent 26-connected flood fill; returns a list of voxel-index lists."""
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]
    seen = np.zeros(mask.shape, dtype=bool)
    comps = []
    for start in map(tuple, np.argwhere(mask)):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            p = stack.pop()
            comp.append(p)
            for off in offsets:
                q = (p[0] + off[0], p[1] + off[1], p[2] + off[2])
                if all(0 <= q[a] < mask.shape[a] for a in range(3)) and mask[q] and not seen[q]:
                    seen[q] = True
                    stack.append(q)
        comps.append(comp)
    return comps


def largest_connected_component(mask: Volume3) -> Volume3:
    """Stage 1's labelling of a mask volume's voxels above 0.5, as a volume held on the component's box."""
    box, block = _largest_component(mask.data > 0.5)
    return _from_block(block.astype(np.float64), box, mask.dims, mask.spacing)


def bounding_box_center(mask: Volume3) -> tuple[int, int, int]:
    """Per-axis floor((min index + max index) / 2) of the voxels above 0.5, on the whole grid."""
    binary = mask.data > 0.5
    if not binary.any():
        raise EmptyComponentError("mask has no foreground voxels")
    center = []
    for axis in range(3):
        hits = np.flatnonzero(binary.any(axis=tuple(a for a in range(3) if a != axis)))
        center.append(int((hits[0] + hits[-1]) // 2))
    return tuple(center)


def linear_index(p, dims):
    return p[0] + dims[0] * (p[1] + dims[1] * p[2])


def oracle_largest(mask: np.ndarray) -> np.ndarray:
    comps = components_bfs(mask)
    best = max(comps, key=lambda c: (len(c), -min(linear_index(p, mask.shape) for p in c)))
    out = np.zeros(mask.shape, dtype=bool)
    for p in best:
        out[p] = True
    return out


class TestLargestConnectedComponent:
    def test_single_blob_unchanged(self):
        mask = np.zeros((10, 10, 10))
        mask[2:5, 2:5, 2:5] = 1.0
        out = largest_connected_component(Volume3(mask, SP))
        np.testing.assert_array_equal(out.data, mask)

    def test_keeps_bigger_of_two_blobs(self):
        mask = np.zeros((12, 12, 12), dtype=bool)
        mask[1:3, 1:3, 1:3] = True  # 8 voxels
        mask[8:11, 8:11, 8:11] = True  # 27 voxels
        out = largest_connected_component(Volume3(mask.astype(float), SP))
        expected = np.zeros_like(mask)
        expected[8:11, 8:11, 8:11] = True
        np.testing.assert_array_equal(out.data > 0.5, expected)

    def test_diagonal_voxels_connectivity(self):
        mask = np.zeros((6, 6, 6))
        mask[2, 2, 2] = 1.0
        mask[3, 3, 3] = 1.0
        both = largest_connected_component(Volume3(mask, SP))
        assert both.data.sum() == 2.0  # corner neighbours are connected
        # two voxels two apart are separate; the tie breaks to the smaller
        # x-fastest linear index, which is not the smaller C-order one
        mask = np.zeros((6, 6, 6))
        mask[4, 2, 2] = 1.0
        mask[2, 2, 4] = 1.0
        one = largest_connected_component(Volume3(mask, SP))
        assert one.data.sum() == 1.0
        assert one.data[4, 2, 2] == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3], ids=lambda seed: f"{seed}-26")
    def test_matches_flood_fill_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((14, 14, 14)) < 0.18
        if not mask.any():
            mask[0, 0, 0] = True
        out = largest_connected_component(Volume3(mask.astype(float), SP))
        np.testing.assert_array_equal(out.data > 0.5, oracle_largest(mask))

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyComponentError):
            largest_connected_component(Volume3(np.zeros((4, 4, 4)), SP))


def full_grid_largest(mask: np.ndarray) -> np.ndarray:
    """Stage 1's labelling as first written: labels the whole boolean grid."""
    if not mask.any():
        raise EmptyComponentError("mask has no foreground voxels")
    labels, n = ndimage.label(mask, structure=ndimage.generate_binary_structure(3, 3))
    if n == 1:
        return mask
    counts = np.bincount(labels.ravel())
    counts[0] = 0
    candidates = np.flatnonzero(counts == counts.max())
    if len(candidates) == 1:
        chosen = candidates[0]
    else:
        first_seen, first_index = np.unique(labels.ravel(order="F"), return_index=True)
        by_label = dict(zip(first_seen.tolist(), first_index.tolist()))
        chosen = min(candidates, key=lambda lab: by_label[lab])
    return labels == chosen


@st.composite
def masks(draw, max_side):
    """Boolean masks: random fill, one voxel, a block on a face, or two copies of one pattern (size ties)."""
    shape = draw(st.tuples(*[st.integers(1, max_side)] * 3))
    kind = draw(st.sampled_from(["random", "voxel", "face", "twins"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros(shape, dtype=bool)
    if kind == "random":
        mask = rng.random(shape) < draw(st.floats(0.0, 0.6))
    elif kind == "voxel":
        mask[tuple(rng.integers(0, n) for n in shape)] = True
    else:
        # a random block, or two copies of one pattern; "face" pushes the first block against a face
        ext = [int(rng.integers(1, (n if kind == "face" else (n + 1) // 2) + 1)) for n in shape]
        pattern = rng.random(ext) < 0.7
        for copy in range(1 if kind == "face" else 2):
            low = [int(rng.integers(0, n - e + 1)) for n, e in zip(shape, ext)]
            if kind == "face":
                axis = int(rng.integers(3))
                low[axis] = 0 if rng.random() < 0.5 else shape[axis] - ext[axis]
            mask[tuple(slice(lo, lo + e) for lo, e in zip(low, ext))] |= pattern
    return mask


class TestBoxBoundedLabelling:
    """Labelling only the foreground's box keeps the whole grid's component and tie-break."""

    @settings(max_examples=400, deadline=None)
    @given(mask=masks(max_side=12))
    def test_matches_full_grid_reference(self, mask):
        if not mask.any():
            for fn in (_largest_component, full_grid_largest):
                with pytest.raises(EmptyComponentError):
                    fn(mask)
            return
        box, block = _largest_component(mask)
        ref = full_grid_largest(mask)
        # a boolean block on the labelled box, the foreground's; a smaller component is False in the rest of it
        assert block.dtype == bool
        assert box == support_box(mask)
        assert block.shape == tuple(s.stop - s.start for s in box)
        out = np.zeros(mask.shape, dtype=bool)
        out[box] = block
        np.testing.assert_array_equal(out, ref)


class TestBoundingBoxCenter:
    def test_single_voxel(self):
        mask = np.zeros((10, 10, 10))
        mask[5, 6, 7] = 1.0
        assert bounding_box_center(Volume3(mask, SP)) == (5, 6, 7)

    def test_symmetric_box(self):
        mask = np.zeros((30, 30, 30))
        mask[10:21, 10:21, 10:21] = 1.0
        assert bounding_box_center(Volume3(mask, SP)) == (15, 15, 15)

    def test_even_span_floors(self):
        mask = np.zeros((30, 30, 30))
        mask[10:22, 10:21, 10:21] = 1.0  # span [10,21] on axis 0
        assert bounding_box_center(Volume3(mask, SP)) == (15, 15, 15)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyComponentError):
            bounding_box_center(Volume3(np.zeros((4, 4, 4)), SP))


class TestNativeCenter:
    """Stage 1 reads the native-grid bounding-box centre from the coarse component."""

    @settings(max_examples=400, deadline=None)
    @given(
        mask=masks(max_side=20),
        native=st.tuples(*[st.integers(1, 40)] * 3),
        from_labelling=st.booleans(),
    )
    def test_matches_center_of_nearest_resampled_mask(self, mask, native, from_labelling):
        box, block = tuple(slice(0, n) for n in mask.shape), mask
        if from_labelling and mask.any():
            box, block = _largest_component(mask)  # held on its foreground's box
        component = np.zeros(mask.shape)
        component[box] = block
        try:
            expected = bounding_box_center(downsample_to(Volume3(component, SP), native, interpolation="nearest"))
        except EmptyComponentError:
            with pytest.raises(EmptyComponentError):
                _native_center(box, block, mask.shape, native)
            return
        assert _native_center(box, block, mask.shape, native) == expected

    def test_empty_native_mask_escapes_the_pipeline(self):
        class OffGridSegmenter:
            def predict(self, image, dims):
                mask = np.zeros(dims, dtype=bool)
                mask[10, 10, 10] = True
                return mask, mask

        cfg = PipelineConfig(OffGridSegmenter(), MarkerLocalizer(OracleLocalizerConfig()))
        # an 80-voxel coarse axis read by 2 native voxels samples coarse indices 0 and 40 only
        with pytest.raises(EmptyComponentError):
            run_pipeline(cfg, Volume3(np.zeros((2, 2, 2)), SP))


class SwappedSegmenter:
    """Returns the masks with left and right exchanged."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, image, dims):
        left, right = self.inner.predict(image, dims)
        return right, left


class HalfZeroSegmenter:
    """Valid left mask, empty right mask."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, image, dims):
        left, _ = self.inner.predict(image, dims)
        return left, np.zeros(dims, dtype=bool)


class ZeroSegmenter:
    def predict(self, image, dims):
        zero = np.zeros(dims, dtype=bool)
        return zero, zero


class ResamplingSegmenter:
    """Reads the scan as a trained stage-1 network would: resample it to ``dims``, then segment."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, image, dims):
        return self.inner.predict(downsample_to(image, dims, interpolation="trilinear"), dims)


class FixedPointLocalizer:
    """Gaussian at a fixed crop-frame voxel, ignoring content."""

    def __init__(self, point):
        self.point = point

    def prepare(self, v):
        return v

    def sample(self, state, stochastic=False, seed=0):
        return gaussian_heatmap(HeatmapSpec(), TargetPoint(self.point), state.dims, state.spacing)

    def predict(self, v, stochastic=False, seed=0):
        return self.sample(self.prepare(v), stochastic, seed)


@pytest.fixture(scope="module")
def phantom_case():
    return generate_phantom(PhantomSpec(dims=(96, 96, 96)))


def make_config(case, localizer=None, segmenter=None):
    seg = segmenter or TruthMaskSegmenter(case.left_mask, case.right_mask)
    loc = localizer or MarkerLocalizer(OracleLocalizerConfig())
    return PipelineConfig(segmenter=seg, localizer=loc)


class TestPipelineEndToEnd:
    def test_clean_phantom_within_one_voxel(self, phantom_case):
        result = run_pipeline(make_config(phantom_case), phantom_case.image)
        assert result.failed_sides == ()
        for side in SIDES:
            pred = result.sides[side].target.as_array
            truth = phantom_case.truth(side).as_array
            assert np.linalg.norm(pred - truth) <= 1.0

    def test_targets_inside_volume_and_ordered(self, phantom_case):
        result = run_pipeline(make_config(phantom_case), phantom_case.image)
        for side in SIDES:
            pred = result.sides[side].target.as_array
            assert np.all(pred >= 0) and np.all(pred <= 95)
        assert result.sides["left"].target.position[0] < result.sides["right"].target.position[0]

    def test_swapped_segmentation_labels_are_corrected(self, phantom_case):
        straight = run_pipeline(make_config(phantom_case), phantom_case.image)
        seg = SwappedSegmenter(TruthMaskSegmenter(phantom_case.left_mask, phantom_case.right_mask))
        swapped = run_pipeline(make_config(phantom_case, segmenter=seg), phantom_case.image)
        assert swapped.sides["left"].target.position[0] < swapped.sides["right"].target.position[0]
        for side in SIDES:
            assert swapped.sides[side].target.position == straight.sides[side].target.position

    def test_mirrored_phantom_mirrors_predictions(self, phantom_case):
        result = run_pipeline(make_config(phantom_case), phantom_case.image)
        mirrored_image = flip_lr(phantom_case.image)
        seg = TruthMaskSegmenter(flip_lr(phantom_case.right_mask), flip_lr(phantom_case.left_mask))
        mirrored = run_pipeline(make_config(phantom_case, segmenter=seg), mirrored_image)
        nx = phantom_case.image.dims[0]
        for side, other in (("left", "right"), ("right", "left")):
            got = np.asarray(mirrored.sides[side].target.position)
            want = np.asarray(result.sides[other].target.position)
            want[0] = nx - 1 - want[0]
            assert np.abs(got - want).max() <= 1.0

    def test_all_zero_segmentation_fails(self, phantom_case):
        cfg = make_config(phantom_case, segmenter=ZeroSegmenter())
        with pytest.raises(PipelineFailureError):
            run_pipeline(cfg, phantom_case.image)

    @pytest.mark.parametrize(
        "make_mask",
        [lambda dims: np.full(dims, 0.02), lambda dims: np.zeros((40, 40, 40), dtype=bool)],
        ids=["float-map", "wrong-grid"],
    )
    def test_masks_that_break_the_contract_are_rejected(self, phantom_case, make_mask):
        # a probability map would read 0.02 as foreground; a mask on another grid would be read as 80^3
        class ContractBreakingSegmenter:
            def predict(self, image, dims):
                return make_mask(dims), make_mask(dims)

        with pytest.raises(TypeError, match="left mask must be boolean and shaped"):
            run_pipeline(make_config(phantom_case, segmenter=ContractBreakingSegmenter()), phantom_case.image)

    def test_single_side_failure_reported(self, phantom_case):
        seg = HalfZeroSegmenter(TruthMaskSegmenter(phantom_case.left_mask, phantom_case.right_mask))
        result = run_pipeline(make_config(phantom_case, segmenter=seg), phantom_case.image)
        assert result.failed_sides == ("right",)
        assert "left" in result.sides and "right" not in result.sides

    def test_deterministic(self, phantom_case):
        cfg = make_config(phantom_case)
        a = run_pipeline(cfg, phantom_case.image)
        b = run_pipeline(cfg, phantom_case.image)
        for side in SIDES:
            assert a.sides[side].target.position == b.sides[side].target.position
            np.testing.assert_array_equal(a.sides[side].heatmap.data, b.sides[side].heatmap.data)


class TestStage1Resampling:
    def test_only_a_segmenter_that_reads_the_scan_resamples_it(self, phantom_case, monkeypatch, tmp_path):
        grid_only = run_pipeline(make_config(phantom_case), phantom_case.image)
        write_volume(phantom_case.left_mask, tmp_path / "left.json")
        write_volume(phantom_case.right_mask, tmp_path / "right.json")
        calls, original = [], downsample_to

        def spy(v, dims, interpolation="trilinear"):
            calls.append(interpolation)
            return original(v, dims, interpolation)

        for module in (voxloc.volume, voxloc.predictors, voxloc.pipeline, sys.modules[__name__]):
            if vars(module).get("downsample_to") is original:
                monkeypatch.setattr(module, "downsample_to", spy)
        # masks held as volumes or as files go from their planes straight to the coarse grid
        for seg in (
            TruthMaskSegmenter(phantom_case.left_mask, phantom_case.right_mask),
            TruthMaskSegmenter(tmp_path / "left.json", tmp_path / "right.json"),
        ):
            from_masks = run_pipeline(make_config(phantom_case, segmenter=seg), phantom_case.image)
            assert calls == []  # neither the masks nor the scan are resampled
            reading = run_pipeline(make_config(phantom_case, segmenter=ResamplingSegmenter(seg)), phantom_case.image)
            assert calls == ["trilinear"]  # a segmenter that reads the scan resamples it
            calls.clear()
            for result in (from_masks, reading):
                assert result.failed_sides == grid_only.failed_sides == ()
                for side in SIDES:
                    a, b = grid_only.sides[side], result.sides[side]
                    assert a.box == b.box
                    assert a.target.position == b.target.position
                    assert a.local_crop.data.tobytes() == b.local_crop.data.tobytes()


class TestStage1Memory:
    def test_peak_of_one_run_on_a_128_cube(self):
        # numpy reports its buffers to tracemalloc; a native-grid float64 mask
        # or a float64 copy of the scan is 16 MiB each at 128^3
        case = generate_phantom(PhantomSpec(dims=(128, 128, 128)))
        cfg = make_config(case)
        run_pipeline(cfg, case.image)
        tracemalloc.start()
        try:
            run_pipeline(cfg, case.image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestCoordinateMapping:
    def test_right_side_roundtrip_exact(self, phantom_case):
        point = (10, 20, 30)
        cfg = make_config(phantom_case, localizer=FixedPointLocalizer(point))
        result = run_pipeline(cfg, phantom_case.image)
        box = result.sides["right"].box
        expected = tuple(box.low[a] + point[a] for a in range(3))
        assert result.sides["right"].target.position == expected

    def test_left_side_flip_arithmetic(self, phantom_case):
        point = (10, 20, 30)
        cfg = make_config(phantom_case, localizer=FixedPointLocalizer(point))
        result = run_pipeline(cfg, phantom_case.image)
        box = result.sides["left"].box
        # the localizer saw the flipped crop, so its peak lands at
        # extent-1-x after flipping back
        expected = (box.low[0] + 63 - point[0], box.low[1] + point[1], box.low[2] + point[2])
        assert result.sides["left"].target.position == expected

    def test_crop_center_matches_stage1_center(self, phantom_case):
        cfg = make_config(phantom_case)
        result = run_pipeline(cfg, phantom_case.image)
        masks = cfg.segmenter.predict(phantom_case.image, COARSE_DIMS)
        for side, mask in zip(SIDES, masks):
            assert mask.dtype == bool and mask.shape == COARSE_DIMS
            comp = largest_connected_component(Volume3(mask.astype(float), SP))
            full = downsample_to(comp, phantom_case.image.dims, interpolation="nearest")
            assert result.sides[side].box.center == bounding_box_center(full)

    def test_heatmap_is_native_orientation(self, phantom_case):
        # argmax of the reported heatmap must equal target - box.low
        from voxloc.heatmap import argmax_position

        result = run_pipeline(make_config(phantom_case), phantom_case.image)
        for side in SIDES:
            res = result.sides[side]
            peak = argmax_position(res.heatmap).as_array
            np.testing.assert_array_equal(res.target.as_array, np.asarray(res.box.low) + peak)


class TestPipelineResult:
    def test_json_shape(self, phantom_case):
        result = run_pipeline(make_config(phantom_case), phantom_case.image)
        obj = result.to_json()
        assert set(obj) == {"targets", "boxes", "failed_sides", "timings_ms"}
        assert set(obj["targets"]) == {"left", "right"}
        assert len(obj["targets"]["left"]) == 3
        assert obj["boxes"]["right"]["extent"] == [64, 64, 64]

    def test_timing_keys(self, phantom_case):
        result = run_pipeline(make_config(phantom_case), phantom_case.image)
        assert {"segment", "components", "crop", "localize", "total"} <= set(result.timings_ms)
        assert all(v >= 0 for v in result.timings_ms.values())

    def test_targets_property(self, phantom_case):
        result = run_pipeline(make_config(phantom_case), phantom_case.image)
        assert result.targets["left"].side == "left"


class TestPlacement:
    """SideResult.place: localizer-frame heatmap -> whole-volume target."""

    @staticmethod
    def two_peaks(res, xs, y=20, z=30):
        data = np.zeros(res.local_crop.dims)
        for x in xs:
            data[x, y, z] = 1.0
        return Volume3(data, res.local_crop.spacing)

    def test_left_tie_places_at_smaller_native_x(self, phantom_case):
        res = run_pipeline(make_config(phantom_case), phantom_case.image).sides["left"]
        # local x 10 and 20 mirror to native x 53 and 43; the native argmax keeps 43
        target = res.place(self.two_peaks(res, (10, 20)))
        assert target.position == (res.box.low[0] + 43, res.box.low[1] + 20, res.box.low[2] + 30)
        assert target.side == "left"

    def test_right_adds_box_low_only(self, phantom_case):
        res = run_pipeline(make_config(phantom_case), phantom_case.image).sides["right"]
        target = res.place(self.two_peaks(res, (20, 10)))
        assert target.position == (res.box.low[0] + 10, res.box.low[1] + 20, res.box.low[2] + 30)

    def test_pipeline_target_is_placed_localizer_heatmap(self, phantom_case):
        cfg = make_config(phantom_case)
        result = run_pipeline(cfg, phantom_case.image)
        for side in SIDES:
            res = result.sides[side]
            assert res.place(cfg.localizer.predict(res.local_crop)) == res.target
        np.testing.assert_array_equal(result.sides["left"].local_crop.data, flip_lr(result.sides["left"].crop).data)
        assert result.sides["right"].local_crop is result.sides["right"].crop


class TestKeptState:
    """An mcdo pass from ``SideResult.state`` is the pass that prepares the crop itself."""

    @pytest.mark.parametrize(
        "make_localizer",
        [
            lambda: MarkerLocalizer(OracleLocalizerConfig(jitter_std=0.8)),
            lambda: ConvNetLocalizer.from_seed(ConvNetSpec(channels=(2, 2, 1)), seed=5),
        ],
        ids=["marker", "convnet"],
    )
    def test_mcdo_from_kept_state_is_bit_identical(self, phantom_case, make_localizer, monkeypatch):
        loc = make_localizer()
        result = run_pipeline(make_config(phantom_case, localizer=loc), phantom_case.image)
        cfg = McConfig(mode="mcdo", n_samples=3, base_seed=11, keep_samples=False)
        fresh = {side: run_mode(loc, res.local_crop, cfg) for side, res in result.sides.items()}

        def no_prepare(v):
            raise AssertionError("the kept state was prepared again")

        monkeypatch.setattr(loc, "prepare", no_prepare)
        for side, res in result.sides.items():
            kept = run_mode(loc, res.local_crop, cfg, state=res.state)
            want = fresh[side]
            assert kept.argmax_positions.tobytes() == want.argmax_positions.tobytes()
            assert kept.mean_map.data.tobytes() == want.mean_map.data.tobytes()
            assert kept.variance_map.data.tobytes() == want.variance_map.data.tobytes()
            assert kept.mad == want.mad
            assert kept.final_target == want.final_target
            assert res.place(kept.mean_map) == res.place(want.mean_map)
