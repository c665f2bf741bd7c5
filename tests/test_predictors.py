"""Tests for segmenter and localizer predictors."""

import json

import numpy as np
import pytest
from scipy import special

from voxloc.heatmap import HeatmapSpec, TargetPoint, argmax_position
from voxloc.predictors import (
    ConvNetLocalizer,
    ConvNetSpec,
    EchoLocalizer,
    InvalidModelError,
    Localizer,
    MarkerLocalizer,
    OracleLocalizer,
    OracleLocalizerConfig,
    Segmenter,
    TruthMaskSegmenter,
    _conv3d_same,
    apply_inverted_dropout,
    load_weights,
    oracle_localize,
    save_weights,
)
from voxloc.transforms import RigidTransform, rigid_apply
from voxloc.volume import Volume3, flip_lr, read_volume, write_volume


def blank(dims=(32, 32, 32), spacing=(1.0, 1.0, 1.0)):
    return Volume3(np.zeros(dims), spacing)


def bump_volume(center, dims=(40, 40, 40), amplitude=0.9, floor=0.1):
    spec = HeatmapSpec(sigma_mm=2.0, cutoff=0.01, peak=amplitude)
    from voxloc.heatmap import gaussian_heatmap

    h = gaussian_heatmap(spec, TargetPoint(center), dims, (1.0, 1.0, 1.0))
    return Volume3(h.data + floor, h.spacing)


def ellipsoid_mask(dims, center, semi_axes):
    grids = np.meshgrid(*(np.arange(d, dtype=np.float64) for d in dims), indexing="ij")
    rho = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, center, semi_axes))
    return rho <= 1.0


class TestDropout:
    def test_mean_preserved(self):
        # E[inverted dropout(x)] == x; check the sample mean on a big block
        rng = np.random.default_rng(7)
        x = np.ones((40, 40, 40))
        out = apply_inverted_dropout(x, 0.5, rng)
        assert abs(out.mean() - 1.0) < 0.03

    def test_mean_preserved_low_rate(self):
        rng = np.random.default_rng(11)
        x = np.full((40, 40, 40), 3.0)
        out = apply_inverted_dropout(x, 0.2, rng)
        assert abs(out.mean() - 3.0) < 0.09

    def test_survivors_scaled(self):
        rng = np.random.default_rng(3)
        out = apply_inverted_dropout(np.ones(10_000), 0.5, rng)
        values = np.unique(out)
        assert set(values.tolist()) == {0.0, 2.0}

    def test_drop_fraction(self):
        rng = np.random.default_rng(5)
        out = apply_inverted_dropout(np.ones(100_000), 0.5, rng)
        frac = float((out == 0.0).mean())
        assert abs(frac - 0.5) < 0.01


class TestConvNetSpec:
    def test_default_layout(self):
        spec = ConvNetSpec()
        assert spec.channels == (8, 16, 16, 8, 1)
        assert spec.layer_shapes[0] == ((8, 1, 3, 3, 3), (8,))
        assert spec.layer_shapes[-1] == ((1, 8, 3, 3, 3), (1,))

    def test_default_dropout_is_deepest_half_of_hidden(self):
        # 4 hidden layers -> dropout on the two nearest the output
        assert ConvNetSpec().dropout_layers == (2, 3)
        assert ConvNetSpec(channels=(4, 4, 4, 1)).dropout_layers == (2,)

    def test_rejects_bad_layouts(self):
        with pytest.raises(ValueError):
            ConvNetSpec(channels=(8, 2))
        with pytest.raises(ValueError):
            ConvNetSpec(kernel_size=2)
        with pytest.raises(ValueError):
            ConvNetSpec(dropout_rate=1.0)
        with pytest.raises(ValueError):
            ConvNetSpec(channels=(4, 1), dropout_layers=(5,))


class TestConvNetForward:
    def test_matches_direct_convolution(self):
        # independent zero-padded shifted-window implementation
        def direct(x, w, b):
            k = w.shape[-1]
            r = k // 2
            nx, ny, nz = x.shape[1:]
            xp = np.pad(x, ((0, 0), (r, r), (r, r), (r, r)))
            out = np.zeros((w.shape[0], nx, ny, nz))
            for o in range(w.shape[0]):
                for i in range(x.shape[0]):
                    for a in range(k):
                        for bb in range(k):
                            for c in range(k):
                                out[o] += w[o, i, a, bb, c] * xp[i, a : a + nx, bb : bb + ny, c : c + nz]
                out[o] += b[o]
            return out

        spec = ConvNetSpec(channels=(2, 1), dropout_rate=0.0, dropout_layers=())
        net = ConvNetLocalizer.from_seed(spec, seed=9)
        rng = np.random.default_rng(1)
        v = Volume3(rng.random((6, 5, 4)), (1.0, 1.0, 1.0))

        x = v.data[None]
        (w0, b0), (w1, b1) = net.weights
        hidden = np.maximum(direct(x, w0, b0), 0.0)
        logits = direct(hidden, w1, b1)
        expected = 1.0 / (1.0 + np.exp(-logits[0]))

        out = net.predict(v)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_output_in_unit_interval(self):
        net = ConvNetLocalizer.from_seed(ConvNetSpec(channels=(4, 4, 1)), seed=2)
        rng = np.random.default_rng(0)
        out = net.predict(Volume3(rng.random((10, 10, 10)), (1.0, 1.0, 1.0)))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0
        assert out.dims == (10, 10, 10)

    def test_deterministic_pass_ignores_seed(self):
        net = ConvNetLocalizer.from_seed(ConvNetSpec(channels=(4, 4, 1)), seed=2)
        v = Volume3(np.random.default_rng(4).random((8, 8, 8)), (1.0, 1.0, 1.0))
        a = net.predict(v, stochastic=False, seed=1)
        b = net.predict(v, stochastic=False, seed=99)
        np.testing.assert_array_equal(a.data, b.data)

    def test_stochastic_pass_seed_contract(self):
        net = ConvNetLocalizer.from_seed(ConvNetSpec(channels=(4, 4, 1)), seed=2)
        v = Volume3(np.random.default_rng(4).random((8, 8, 8)), (1.0, 1.0, 1.0))
        a = net.predict(v, stochastic=True, seed=5)
        b = net.predict(v, stochastic=True, seed=5)
        c = net.predict(v, stochastic=True, seed=6)
        np.testing.assert_array_equal(a.data, b.data)
        assert np.abs(a.data - c.data).max() > 0.0

    def test_same_init_seed_same_weights(self):
        spec = ConvNetSpec(channels=(4, 4, 1))
        n1 = ConvNetLocalizer.from_seed(spec, seed=3)
        n2 = ConvNetLocalizer.from_seed(spec, seed=3)
        for (w1, b1), (w2, b2) in zip(n1.weights, n2.weights):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    def test_satisfies_localizer_protocol(self):
        net = ConvNetLocalizer.from_seed(ConvNetSpec(channels=(2, 1)), seed=0)
        assert isinstance(net, Localizer)
        assert isinstance(EchoLocalizer(), Localizer)


def reference_forward(net, v, stochastic=False, seed=0):
    """The conv stack as one pass over every layer, as before the prepare/sample split."""
    rng = np.random.default_rng(seed) if stochastic else None
    x = v.data.astype(np.float64, copy=False)[None]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(net.weights):
        x = _conv3d_same(x, w, b)
        if i == last:
            x = special.expit(x)
        else:
            np.maximum(x, 0.0, out=x)
            if stochastic and i in net.spec.dropout_layers:
                x = apply_inverted_dropout(x, net.spec.dropout_rate, rng)
    return x[0]


def state_arrays(state):
    """Copies of every array a prepared state holds, to check that sampling leaves it alone."""
    if isinstance(state, np.ndarray):
        return [state.copy()]
    if isinstance(state, Volume3):
        return [state.data.copy()]
    if isinstance(state, tuple):
        return [a for part in state for a in state_arrays(part)]
    return []


class TestWeightFiles:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        spec = ConvNetSpec(channels=(4, 4, 1))
        net = ConvNetLocalizer.from_seed(spec, seed=13)
        path = tmp_path / "weights.json"
        save_weights(net, path)
        loaded = ConvNetLocalizer.from_file(spec, path)
        v = Volume3(np.random.default_rng(8).random((7, 7, 7)), (1.0, 1.0, 1.0))
        a = net.predict(v)
        b = loaded.predict(v)
        # f32 storage rounds the weights, so reload the original through f32 too
        relaxed = ConvNetLocalizer(
            spec,
            [(w.astype("<f4").astype(np.float64), b_.astype("<f4").astype(np.float64)) for w, b_ in net.weights],
        )
        np.testing.assert_array_equal(b.data, relaxed.predict(v).data)
        np.testing.assert_allclose(a.data, b.data, atol=1e-5)

    def test_shape_mismatch_rejected(self, tmp_path):
        net = ConvNetLocalizer.from_seed(ConvNetSpec(channels=(4, 4, 1)), seed=0)
        path = tmp_path / "weights.json"
        save_weights(net, path)
        with pytest.raises(InvalidModelError, match="do not match"):
            ConvNetLocalizer.from_file(ConvNetSpec(channels=(8, 4, 1)), path)

    def test_truncated_payload_rejected(self, tmp_path):
        net = ConvNetLocalizer.from_seed(ConvNetSpec(channels=(2, 1)), seed=0)
        path = tmp_path / "weights.json"
        save_weights(net, path)
        raw = path.with_suffix(".raw")
        raw.write_bytes(raw.read_bytes()[:-8])
        with pytest.raises(InvalidModelError, match="length mismatch"):
            load_weights(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        net = ConvNetLocalizer.from_seed(ConvNetSpec(channels=(2, 1)), seed=0)
        path = tmp_path / "weights.json"
        save_weights(net, path)
        text = path.read_text().replace('"f32"', '"f64"')
        path.write_text(text)
        with pytest.raises(InvalidModelError, match="dtype"):
            load_weights(path)

    @pytest.mark.parametrize(
        "manifest, match",
        [
            ([1, 2], "not a JSON object"),
            (None, "not a JSON object"),
            ({"dtype": "f32", "layers": 3}, "list of objects"),
            ({"dtype": "f32", "layers": {"weight": [1], "bias": [1]}}, "list of objects"),
            ({"dtype": "f32", "layers": [[1], [1]]}, "list of objects"),
            # the empty payload matches np.prod's count for each layout below but the last, which has no bias
            ({"dtype": "f32", "layers": [{"weight": [0.5, 1, 1, 1, 1], "bias": [0.5]}]}, r"weight dims.*0\.5"),
            ({"dtype": "f32", "layers": [{"weight": [False, 1, 1, 1, 1], "bias": [False]}]}, "weight dims.*False"),
            ({"dtype": "f32", "layers": [{"weight": [0, 1, 1, 1, 1], "bias": [0]}]}, "weight dims.*0, 1"),
            ({"dtype": "f32", "layers": [{"weight": [-1, 1, 1, 1, 1], "bias": [1]}]}, "weight dims.*-1"),
            ({"dtype": "f32", "layers": [{"weight": [2**33, 2**32, 1, 1, 1], "bias": [2**33, 2**32]}]}, "length mismatch"),
            ({"dtype": "f32", "layers": [{"weight": [1, 1, 1, 1, 1]}]}, "bias dims.*None"),
        ],
        ids=[
            "list",
            "null",
            "layers-number",
            "layers-object",
            "layer-not-object",
            "fractional-dim",
            "bool-dim",
            "zero-dim",
            "negative-dim",
            "count-past-2**64",
            "no-bias",
        ],
    )
    def test_malformed_manifest_rejected(self, tmp_path, manifest, match):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(manifest))
        path.with_suffix(".raw").write_bytes(b"")
        with pytest.raises(InvalidModelError, match=match):
            load_weights(path)

    def test_layer_count_mismatch_rejected(self):
        spec = ConvNetSpec(channels=(2, 1))
        net = ConvNetLocalizer.from_seed(spec, seed=0)
        with pytest.raises(InvalidModelError, match="layers"):
            ConvNetLocalizer(spec, net.weights[:1] * 3)


class TestOracleLocalize:
    def test_clean_oracle_peaks_at_truth(self):
        cfg = OracleLocalizerConfig()
        truth = TargetPoint((12.0, 20.0, 8.0))
        h = oracle_localize(cfg, truth, blank())
        assert argmax_position(h).position == (12, 20, 8)
        assert h.data[12, 20, 8] == pytest.approx(1.0)

    def test_deterministic_mode_ignores_seed_and_jitter(self):
        cfg = OracleLocalizerConfig(jitter_std=5.0, failure_rate=0.5)
        truth = TargetPoint((16.0, 16.0, 16.0))
        a = oracle_localize(cfg, truth, blank(), stochastic=False, seed=1)
        b = oracle_localize(cfg, truth, blank(), stochastic=False, seed=42)
        np.testing.assert_array_equal(a.data, b.data)
        assert argmax_position(a).position == (16, 16, 16)

    def test_stochastic_seed_contract(self):
        cfg = OracleLocalizerConfig(jitter_std=1.0)
        truth = TargetPoint((16.0, 16.0, 16.0))
        a = oracle_localize(cfg, truth, blank(), stochastic=True, seed=3)
        b = oracle_localize(cfg, truth, blank(), stochastic=True, seed=3)
        c = oracle_localize(cfg, truth, blank(), stochastic=True, seed=4)
        np.testing.assert_array_equal(a.data, b.data)
        assert np.abs(a.data - c.data).max() > 0.0

    def test_jitter_statistics(self):
        # measured spread of argmax positions tracks the configured std
        cfg = OracleLocalizerConfig(jitter_std=0.8)
        truth = TargetPoint((24.0, 24.0, 24.0))
        v = blank((48, 48, 48))
        positions = np.array(
            [argmax_position(oracle_localize(cfg, truth, v, stochastic=True, seed=s)).position for s in range(300)],
            dtype=np.float64,
        )
        measured = positions.std(axis=0).mean()
        assert 0.6 * 0.8 <= measured <= 1.4 * 0.8
        assert np.abs(positions.mean(axis=0) - 24.0).max() < 0.25

    def test_failure_rate_statistics(self):
        cfg = OracleLocalizerConfig(failure_rate=0.4)
        truth = TargetPoint((24.0, 24.0, 24.0))
        v = blank((48, 48, 48))
        distances = np.array(
            [
                np.linalg.norm(argmax_position(oracle_localize(cfg, truth, v, stochastic=True, seed=s)).as_array - 24.0)
                for s in range(250)
            ]
        )
        far = distances > 8.0
        assert abs(far.mean() - 0.4) < 0.1
        # non-failing passes sit exactly on the truth (no jitter configured)
        assert np.all(distances[~far] == 0.0)
        assert np.all(distances[far] >= 48 / 3.0 - 1.0)

    def test_guaranteed_failure_is_deterministic_and_far(self):
        cfg = OracleLocalizerConfig(failure_rate=1.0)
        truth = TargetPoint((24.0, 24.0, 24.0))
        v = blank((48, 48, 48))
        a = oracle_localize(cfg, truth, v, stochastic=False, seed=0)
        b = oracle_localize(cfg, truth, v, stochastic=False, seed=9)
        np.testing.assert_array_equal(a.data, b.data)
        dist = np.linalg.norm(argmax_position(a).as_array - 24.0)
        assert dist >= 48 / 3.0 - 1.0

    def test_truth_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            oracle_localize(OracleLocalizerConfig(), TargetPoint((40.0, 1.0, 1.0)), blank())

    def test_config_validation(self):
        for jitter_std in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                OracleLocalizerConfig(jitter_std=jitter_std)
        with pytest.raises(ValueError):
            OracleLocalizerConfig(failure_rate=1.5)

    def test_oracle_localizer_class_binds_truth(self):
        loc = OracleLocalizer(OracleLocalizerConfig(), TargetPoint((5.0, 6.0, 7.0)))
        assert isinstance(loc, Localizer)
        assert argmax_position(loc.predict(blank((16, 16, 16)))).position == (5, 6, 7)


class TestMarkerLocalizer:
    def test_detects_bump_subvoxel(self):
        v = bump_volume((17.4, 20.0, 11.6))
        loc = MarkerLocalizer(OracleLocalizerConfig())
        det = loc.detect(v)
        assert np.abs(det.as_array - np.array([17.4, 20.0, 11.6])).max() < 0.3

    def test_prediction_peaks_at_marker(self):
        v = bump_volume((17.0, 20.0, 11.0))
        loc = MarkerLocalizer(OracleLocalizerConfig())
        assert argmax_position(loc.predict(v)).position == (17, 20, 11)

    def test_equivariant_under_lr_flip(self):
        center = (14.0, 22.0, 18.0)
        v = bump_volume(center)
        loc = MarkerLocalizer(OracleLocalizerConfig())
        det = loc.detect(flip_lr(v)).as_array
        expected = np.array([v.dims[0] - 1 - center[0], center[1], center[2]])
        assert np.abs(det - expected).max() < 0.3

    def test_equivariant_under_translation(self):
        center = (17.0, 20.0, 12.0)
        v = bump_volume(center)
        tf = RigidTransform(axis=(0.0, 0.0, 1.0), angle_deg=0.0, translation=(4.0, -3.0, 5.0))
        moved = rigid_apply(tf, v, interpolation="trilinear")
        det = MarkerLocalizer(OracleLocalizerConfig()).detect(moved).as_array
        assert np.abs(det - (np.array(center) + np.array([4.0, -3.0, 5.0]))).max() < 0.35

    def test_flat_volume_falls_back_to_argmax(self):
        v = Volume3(np.zeros((8, 8, 8)), (1.0, 1.0, 1.0))
        det = MarkerLocalizer(OracleLocalizerConfig()).detect(v)
        assert det.position == (0.0, 0.0, 0.0)


class TestEchoLocalizer:
    def test_returns_input(self):
        rng = np.random.default_rng(0)
        v = Volume3(rng.random((6, 6, 6)), (1.0, 1.0, 1.0))
        out = EchoLocalizer().predict(v, stochastic=True, seed=123)
        np.testing.assert_array_equal(out.data, v.data)


def split_cases():
    rng = np.random.default_rng(21)
    v12 = Volume3(rng.random((12, 12, 12)), (1.0, 1.0, 1.0))
    cases = [
        pytest.param(ConvNetLocalizer.from_seed(ConvNetSpec(dropout_layers=layers), seed=4), v12, id=f"convnet-{name}")
        for name, layers in (("default", None), ("first", (0,)), ("none", ()))
    ]
    cfg = OracleLocalizerConfig(jitter_std=1.0, failure_rate=0.2)
    cases += [
        pytest.param(MarkerLocalizer(cfg), bump_volume((17.4, 20.0, 11.6)), id="marker"),
        pytest.param(OracleLocalizer(cfg, TargetPoint((5.0, 6.0, 7.0))), blank((16, 16, 16)), id="oracle"),
        pytest.param(EchoLocalizer(), v12, id="echo"),
    ]
    return cases


class TestPrepareSample:
    @pytest.mark.parametrize("loc, v", split_cases())
    @pytest.mark.parametrize("stochastic", [False, True])
    def test_sample_of_prepare_is_predict(self, loc, v, stochastic):
        for seed in (0, 1, 7):
            a = loc.sample(loc.prepare(v), stochastic, seed)
            b = loc.predict(v, stochastic=stochastic, seed=seed)
            np.testing.assert_array_equal(a.data, b.data)
            assert a.spacing == b.spacing

    @pytest.mark.parametrize("loc, v", split_cases())
    @pytest.mark.parametrize("stochastic", [False, True])
    def test_one_state_serves_repeated_samples(self, loc, v, stochastic):
        state = loc.prepare(v)
        before = state_arrays(state)
        first = loc.sample(state, stochastic, 3)
        second = loc.sample(state, stochastic, 3)
        other = loc.sample(state, stochastic, 4)
        np.testing.assert_array_equal(first.data, second.data)
        after = state_arrays(state)
        assert len(after) == len(before)
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)
        if not stochastic:
            np.testing.assert_array_equal(first.data, other.data)

    @pytest.mark.parametrize("layers", [None, (0,), (), (1, 3)], ids=["default", "first", "none", "split"])
    @pytest.mark.parametrize("stochastic", [False, True])
    def test_convnet_split_matches_one_pass_forward(self, layers, stochastic):
        net = ConvNetLocalizer.from_seed(ConvNetSpec(dropout_layers=layers), seed=4)
        v = Volume3(np.random.default_rng(22).random((12, 12, 12)), (1.0, 1.0, 1.0))
        state = net.prepare(v)
        for seed in (0, 5, 9):
            expected = reference_forward(net, v, stochastic, seed)
            np.testing.assert_array_equal(net.sample(state, stochastic, seed).data, expected)

    def test_convnet_prefix_stops_at_first_dropout_layer(self):
        spec = ConvNetSpec()  # dropout on hidden layers 2 and 3
        net = ConvNetLocalizer.from_seed(spec, seed=4)
        activations, spacing = net.prepare(Volume3(np.random.default_rng(3).random((8, 8, 8)), (1.0, 2.0, 1.0)))
        assert activations.shape == (spec.channels[2], 8, 8, 8)
        assert spacing == (1.0, 2.0, 1.0)
        assert not activations.flags.writeable

    def test_marker_state_is_the_detected_target(self):
        v = bump_volume((17.4, 20.0, 11.6))
        loc = MarkerLocalizer(OracleLocalizerConfig(jitter_std=1.0))
        detected, prepared = loc.prepare(v)
        assert detected == loc.detect(v)
        expected = oracle_localize(loc.cfg, detected, v, stochastic=True, seed=2)
        np.testing.assert_array_equal(loc.sample((detected, prepared), True, 2).data, expected.data)


class TestTruthMaskSegmenter:
    dims = (48, 48, 48)

    def make_masks(self, dims=None):
        dims = dims or self.dims
        scale = dims[0] / 48.0
        left = ellipsoid_mask(dims, (16 * scale, 24 * scale, 24 * scale), (6 * scale, 8 * scale, 7 * scale))
        right = ellipsoid_mask(dims, (32 * scale, 24 * scale, 24 * scale), (6 * scale, 8 * scale, 7 * scale))
        return left, right

    def seg_for(self):
        left, right = self.make_masks()
        sp = (1.0, 1.0, 1.0)
        return (
            TruthMaskSegmenter(Volume3(left.astype(float), sp), Volume3(right.astype(float), sp)),
            left,
            right,
        )

    def test_clean_argmax_recovers_masks_exactly(self):
        seg, left, right = self.seg_for()
        l, r = seg.predict(blank(self.dims), self.dims)
        np.testing.assert_array_equal(l, left)
        np.testing.assert_array_equal(r, right)

    def test_masks_resampled_to_input_grid(self):
        # 96-grid masks consumed on a 48 grid: nearest sampling lands on even indices
        left96, right96 = self.make_masks((96, 96, 96))
        sp2 = (0.5, 0.5, 0.5)
        seg = TruthMaskSegmenter(Volume3(left96.astype(float), sp2), Volume3(right96.astype(float), sp2))
        l, r = seg.predict(blank(self.dims), self.dims)
        np.testing.assert_array_equal(l, left96[::2, ::2, ::2])
        np.testing.assert_array_equal(r, right96[::2, ::2, ::2])

    def test_resamples_read_masks_through_c_contiguous_takes(self, tmp_path, monkeypatch):
        # read_volume gives Fortran-ordered grids; np.take would copy each one into C order first
        left96, right96 = self.make_masks((96, 96, 96))
        for name, mask in (("left", left96), ("right", right96)):
            write_volume(Volume3(mask.astype(np.float32), (0.5, 0.5, 0.5)), tmp_path / f"{name}.json")
        masks = [read_volume(tmp_path / f"{name}.json") for name in ("left", "right")]
        assert not any(m.data.flags.c_contiguous for m in masks)
        taken = []
        take = np.take

        def spy(a, *args, **kwargs):
            taken.append(a.flags.c_contiguous)
            return take(a, *args, **kwargs)

        monkeypatch.setattr(np, "take", spy)
        l, r = TruthMaskSegmenter(*masks).predict(blank(self.dims), self.dims)
        assert taken == [True] * 6  # three nearest passes per mask
        np.testing.assert_array_equal(l, left96[::2, ::2, ::2])
        np.testing.assert_array_equal(r, right96[::2, ::2, ::2])

    def test_overlapping_masks_keep_valid_probabilities(self):
        sp = (1.0, 1.0, 1.0)
        m = np.zeros((8, 8, 8))
        m[2:6, 2:6, 2:6] = 1.0
        m2 = np.zeros((8, 8, 8))
        m2[4:8, 2:6, 2:6] = 1.0
        seg = TruthMaskSegmenter(Volume3(m, sp), Volume3(m2, sp))
        l, r = seg.predict(blank((8, 8, 8)), (8, 8, 8))
        # the overlap [4:6] on axis 0 belongs to neither side; the rest keeps its own side
        assert not (l | r)[4:6, 2:6, 2:6].any()
        np.testing.assert_array_equal(l, (m > 0) & ~(m2 > 0))
        np.testing.assert_array_equal(r, (m2 > 0) & ~(m > 0))

    def test_synthetic_segment_wrapper(self):
        # truth masks in, two boolean foreground masks shaped like the grid out
        left, right = self.make_masks()
        sp = (1.0, 1.0, 1.0)
        seg = TruthMaskSegmenter(Volume3(left.astype(float), sp), Volume3(right.astype(float), sp))
        masks = seg.predict(blank(self.dims), self.dims)
        assert len(masks) == 2
        for mask in masks:
            assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == self.dims
        assert masks[0].sum() == left.sum()

    def test_satisfies_segmenter_protocol(self):
        seg, _, _ = self.seg_for()
        assert isinstance(seg, Segmenter)
