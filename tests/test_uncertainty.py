"""Tests for the sampling-based uncertainty machinery."""

import concurrent.futures
import json
import math
import sys
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from voxloc import uncertainty
from voxloc.heatmap import HeatmapSpec, TargetPoint, argmax_position, gaussian_heatmap
from voxloc.predictors import (
    ConvNetLocalizer,
    ConvNetSpec,
    EchoLocalizer,
    MarkerLocalizer,
    OracleLocalizer,
    OracleLocalizerConfig,
)
from voxloc.transforms import (
    TransformPriors,
    intensity_apply_inverse,
    rigid_apply,
    rotation_matrix,
    sample_transform,
)
from voxloc.uncertainty import (
    McConfig,
    SamplingError,
    mad,
    mean_variance,
    rejection_stats,
    run_mcdo,
    run_mode,
    run_tta,
)
from voxloc.volume import Volume3, support_box

SP = (1.0, 1.0, 1.0)


def vol(value, dims=(4, 4, 4)):
    return Volume3(np.full(dims, float(value)), SP)


def blank(dims=(48, 48, 48)):
    return Volume3(np.zeros(dims), SP)


def smooth_unit(dims=(48, 48, 48), radius=14.0, amplitude=0.8, floor=0.1):
    grids = np.meshgrid(*(np.arange(d, dtype=float) for d in dims), indexing="ij")
    c = [(d - 1) / 2 for d in dims]
    r = np.sqrt(sum((g - ci) ** 2 for g, ci in zip(grids, c)))
    env = np.where(r < radius, 0.5 * (1 + np.cos(np.pi * np.minimum(r / radius, 1.0))), 0.0)
    return Volume3(floor + amplitude * env, SP)


def bump(center, dims=(48, 48, 48), amplitude=0.9, floor=0.1):
    h = gaussian_heatmap(HeatmapSpec(sigma_mm=2.0, cutoff=0.01, peak=amplitude), TargetPoint(center), dims, SP)
    return Volume3(h.data + floor, SP)


TRUTH = TargetPoint((24.0, 24.0, 24.0))


class TestMeanVariance:
    def test_identical_samples_zero_variance(self):
        mean, var = mean_variance([vol(0.3)] * 5)
        np.testing.assert_array_equal(mean.data, 0.3)
        assert var.data.max() == 0.0

    def test_two_sample_hand_case(self):
        a = Volume3(np.zeros((1, 1, 1)), SP)
        b = Volume3(np.full((1, 1, 1), 2.0), SP)
        mean, var = mean_variance([a, b])
        assert mean.data[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert var.data[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        stack = [Volume3(rng.random((6, 6, 6)), SP) for _ in range(7)]
        mean, var = mean_variance(stack)
        data = np.stack([s.data for s in stack])
        oracle_mean = data.mean(axis=0)
        oracle_var = ((data - oracle_mean) ** 2).mean(axis=0)
        np.testing.assert_allclose(mean.data, oracle_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(var.data, oracle_var, rtol=1e-9, atol=1e-12)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(9)
        stack = [Volume3(rng.random((5, 5, 5)), SP) for _ in range(4)]
        _, var = mean_variance(stack)
        assert var.data.min() >= 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.integers(2, 6), st.data())
    def test_sparse_samples_match_dense_sums_bitwise(self, dtype, n, data):
        # each sample is 0 outside a drawn box (which may touch a face or hold only zeros)
        dims = (7, 6, 5)
        values = st.floats(-2.0, 2.0, width=32) | st.sampled_from([0.0, -0.0, 1e-30, -1e-30])
        samples = []
        for _ in range(n):
            low = [data.draw(st.integers(0, d - 1)) for d in dims]
            high = [data.draw(st.integers(lo + 1, d)) for lo, d in zip(low, dims)]
            shape = tuple(hi - lo for lo, hi in zip(low, high))
            block = data.draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
            grid = np.zeros(dims, dtype=dtype)
            grid[tuple(slice(lo, hi) for lo, hi in zip(low, high))] = np.reshape(block, shape)
            samples.append(Volume3(grid, SP))
        mean, var = mean_variance(samples)
        # the maps' supports come from the union block, not a scan of the grid
        boxes = mean.support, var.support
        assert "data" not in mean.__dict__ and "data" not in var.__dict__
        dense = [s.data.astype(np.float64) for s in samples]
        ref_mean = sum(dense) / n
        ref_var = np.maximum(sum(d * d for d in dense) / n - ref_mean * ref_mean, 0.0)
        assert mean.data.tobytes() == ref_mean.tobytes()
        assert var.data.tobytes() == ref_var.tobytes()
        assert boxes == (support_box(mean.data), support_box(var.data))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            mean_variance([vol(1.0, (4, 4, 4)), vol(1.0, (5, 4, 4))])

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            mean_variance([vol(1.0)])


class TestMad:
    def test_identical_positions(self):
        assert mad([(3, 4, 5)] * 6) == 0.0

    def test_symmetric_pair(self):
        assert mad([(0, 0, 0), (2, 0, 0)]) == pytest.approx(1.0, abs=1e-12)

    def test_three_point_line(self):
        assert mad([(0, 0, 0), (1, 0, 0), (2, 0, 0)]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mad([])

    def test_isometry_invariant(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(10, 3)) * 5.0
        axis = np.array([0.3, -0.5, 0.8])
        rot = rotation_matrix(axis / np.linalg.norm(axis), 37.0)
        moved = pts @ rot.T + np.array([10.0, -4.0, 2.5])
        assert mad(moved) == pytest.approx(mad(pts), abs=1e-9)

    def test_scales_linearly(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(8, 3))
        assert mad(3.0 * pts) == pytest.approx(3.0 * mad(pts), abs=1e-12)


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            McConfig(mode="bootstrap")
        with pytest.raises(ValueError, match="n_samples"):
            McConfig(n_samples=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4.0), "4", None, True, False])
    def test_rejects_non_integral_sample_count(self, n):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            McConfig(mode="mcdo", n_samples=n)

    def test_accepts_numpy_integer_sample_count(self):
        cfg = McConfig(mode="mcdo", n_samples=np.int64(3))
        assert cfg.n_samples == 3 and type(cfg.n_samples) is int
        s = run_mode(OracleLocalizer(OracleLocalizerConfig(), TRUTH), blank(), cfg)
        assert s.n_samples == 3 and len(s.argmax_positions) == 3

    def test_mode_mismatch_rejected(self):
        loc = OracleLocalizer(OracleLocalizerConfig(), TRUTH)
        with pytest.raises(ValueError, match="expected 'mcdo'"):
            run_mcdo(loc, blank(), McConfig(mode="tta"))
        with pytest.raises(ValueError, match="expected 'tta'"):
            run_tta(loc, blank(), McConfig(mode="mcdo"))


class TestRunMcdo:
    def test_consistent_oracle_collapses(self):
        loc = OracleLocalizer(OracleLocalizerConfig(), TRUTH)
        s = run_mcdo(loc, blank(), McConfig(mode="mcdo", n_samples=8))
        assert s.mad == 0.0
        # identical samples; sequential accumulation leaves at most a
        # sub-ulp residue in the variance
        assert s.variance_map.data.max() <= 1e-15
        assert s.final_target.position == (24.0, 24.0, 24.0)

    def test_jitter_envelope(self):
        loc = OracleLocalizer(OracleLocalizerConfig(jitter_std=1.0), TRUTH)
        s = run_mcdo(loc, blank(), McConfig(mode="mcdo", n_samples=100, base_seed=3, keep_samples=False))
        assert 0.8 <= s.mad <= 2.0

    def test_failures_inflate_mad(self):
        clean = OracleLocalizer(OracleLocalizerConfig(jitter_std=1.0), TRUTH)
        flaky = OracleLocalizer(OracleLocalizerConfig(jitter_std=1.0, failure_rate=0.3), TRUTH)
        cfg = McConfig(mode="mcdo", n_samples=40, base_seed=7, keep_samples=False)
        assert run_mcdo(flaky, blank(), cfg).mad > run_mcdo(clean, blank(), cfg).mad

    def test_small_jitter_pathology_variance_peaks_at_target(self):
        # voxelwise variance is high AT a consistently found target even
        # though the per-sample argmax barely moves
        loc = OracleLocalizer(OracleLocalizerConfig(jitter_std=0.5), TRUTH)
        s = run_mcdo(loc, blank(), McConfig(mode="mcdo", n_samples=64, base_seed=5, keep_samples=False))
        assert s.mad <= 1.0
        var_peak = argmax_position(s.variance_map).as_array
        assert np.linalg.norm(var_peak - s.final_target.as_array) <= 3.0

    def test_mad_monotone_in_jitter(self):
        mads = []
        for jitter in (0.0, 0.5, 1.0, 2.0):
            loc = OracleLocalizer(OracleLocalizerConfig(jitter_std=jitter), TRUTH)
            cfg = McConfig(mode="mcdo", n_samples=64, base_seed=11, keep_samples=False)
            mads.append(run_mcdo(loc, blank(), cfg).mad)
        drops = [b - a for a, b in zip(mads, mads[1:]) if b < a]
        assert len(drops) <= 1
        assert all(abs(d) <= 0.1 for d in drops)

    def test_sampling_error_carries_index(self):
        class Flaky:
            def prepare(self, v):
                return v

            def sample(self, state, stochastic=False, seed=0):
                if seed == 13:
                    raise RuntimeError("boom")
                return blank((8, 8, 8))

        cfg = McConfig(mode="mcdo", n_samples=6, base_seed=10)
        with pytest.raises(SamplingError, match="sample 3"):
            run_mcdo(Flaky(), blank((8, 8, 8)), cfg)
        try:
            run_mcdo(Flaky(), blank((8, 8, 8)), cfg)
        except SamplingError as err:
            assert err.index == 3


class TestSampleMemory:
    def test_peak_of_one_mcdo_row_keeping_its_samples(self):
        # a sample holds its Gaussian block, not a 2 MiB 64^3 float64 grid; the
        # bound is four such grids (the running sums take two)
        crop = Volume3(bump((30.0, 33.0, 29.0), dims=(64, 64, 64)).data.astype(np.float32), SP)
        loc = MarkerLocalizer(OracleLocalizerConfig(jitter_std=1.0))
        cfg = McConfig(mode="mcdo", n_samples=32, keep_samples=True)
        state = loc.prepare(crop)  # as cmd_run passes the pipeline's state
        run_mode(loc, crop, cfg, state=state)
        tracemalloc.start()
        try:
            s = run_mode(loc, crop, cfg, state=state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s.sample_heatmaps) == 32
        assert peak < 8 * 2**20


class TestRunTta:
    def test_identity_priors_collapse(self):
        loc = MarkerLocalizer(OracleLocalizerConfig())
        cfg = McConfig(mode="tta", n_samples=4, priors=TransformPriors.identity(), base_seed=1)
        s = run_tta(loc, bump((22.0, 25.0, 24.0)), cfg)
        assert s.mad == 0.0

    def test_equivariant_localizer_stays_tight(self):
        loc = MarkerLocalizer(OracleLocalizerConfig())
        priors = TransformPriors(s_range=(-4, 4), r_range=(-8, 8), curve_control_range=(0.25, 0.75))
        cfg = McConfig(mode="tta", n_samples=24, priors=priors, base_seed=2, keep_samples=False)
        s = run_tta(loc, bump((22.0, 25.0, 24.0)), cfg)
        assert s.mad <= 1.5

    def test_echo_chain_reduces_to_intensity_inverse(self):
        # spatial transform cancels through the chain, intensity does not
        v = smooth_unit()
        priors = TransformPriors(s_range=(-6, 6), r_range=(-10, 10), curve_control_range=(0.2, 0.8))
        cfg = McConfig(mode="tta", n_samples=8, priors=priors, base_seed=5)
        s = run_tta(EchoLocalizer(), v, cfg)
        for i, sample in enumerate(s.sample_heatmaps):
            _, curve = sample_transform(priors, cfg.base_seed + i)
            expected = intensity_apply_inverse(curve, v)
            assert np.abs(sample.data - expected.data).max() <= 0.05

    def test_deterministic(self):
        loc = MarkerLocalizer(OracleLocalizerConfig())
        priors = TransformPriors(s_range=(-4, 4), r_range=(-8, 8), curve_control_range=(0.25, 0.75))
        cfg = McConfig(mode="tta", n_samples=6, priors=priors, base_seed=9)
        a = run_tta(loc, bump((22.0, 25.0, 24.0)), cfg)
        b = run_tta(loc, bump((22.0, 25.0, 24.0)), cfg)
        np.testing.assert_array_equal(a.argmax_positions, b.argmax_positions)
        assert a.mad == b.mad
        np.testing.assert_array_equal(a.mean_map.data, b.mean_map.data)

    def test_keep_samples_off_matches_stats(self):
        loc = MarkerLocalizer(OracleLocalizerConfig())
        priors = TransformPriors(s_range=(-4, 4), r_range=(-8, 8), curve_control_range=(0.25, 0.75))
        kept = run_tta(loc, bump((22.0, 25.0, 24.0)), McConfig(mode="tta", n_samples=6, priors=priors, base_seed=9))
        slim = run_tta(
            loc,
            bump((22.0, 25.0, 24.0)),
            McConfig(mode="tta", n_samples=6, priors=priors, base_seed=9, keep_samples=False),
        )
        assert slim.sample_heatmaps is None
        assert len(kept.sample_heatmaps) == 6
        assert slim.mad == kept.mad
        np.testing.assert_array_equal(slim.mean_map.data, kept.mean_map.data)
        np.testing.assert_array_equal(slim.variance_map.data, kept.variance_map.data)


class TestRunHybrid:
    def test_degenerate_sources_collapse(self):
        loc = MarkerLocalizer(OracleLocalizerConfig())  # no jitter
        cfg = McConfig(mode="hybrid", n_samples=4, priors=TransformPriors.identity(), base_seed=1)
        assert run_mode(loc, bump((22.0, 25.0, 24.0)), cfg).mad == 0.0

    def test_hybrid_at_least_each_source(self):
        v = bump((22.0, 25.0, 24.0))
        priors = TransformPriors(s_range=(-4, 4), r_range=(-8, 8), curve_control_range=(0.25, 0.75))
        jitter = OracleLocalizerConfig(jitter_std=0.8)
        m = run_mcdo(MarkerLocalizer(jitter), v, McConfig(mode="mcdo", n_samples=24, base_seed=2, keep_samples=False))
        t = run_tta(MarkerLocalizer(OracleLocalizerConfig()), v, McConfig(mode="tta", n_samples=24, priors=priors, base_seed=2, keep_samples=False))
        h = run_mode(MarkerLocalizer(jitter), v, McConfig(mode="hybrid", n_samples=24, priors=priors, base_seed=2, keep_samples=False))
        assert h.mad >= max(m.mad, t.mad) - 0.5

    def test_pure_translation_floor(self):
        loc = MarkerLocalizer(OracleLocalizerConfig())
        priors = TransformPriors(s_range=(-5, 5), r_range=(0, 0), curve_control_range=(0.5, 0.5))
        cfg = McConfig(mode="hybrid", n_samples=16, priors=priors, base_seed=7, keep_samples=False)
        s = run_mode(loc, bump((22.0, 25.0, 24.0)), cfg)
        assert s.mad <= 0.75


class CountingLocalizer:
    """Wraps a localizer and counts its prepare and sample calls."""

    def __init__(self, inner):
        self.inner = inner
        self.prepared = 0
        self.sampled = 0

    def prepare(self, v):
        self.prepared += 1
        return self.inner.prepare(v)

    def sample(self, state, stochastic=False, seed=0):
        self.sampled += 1
        return self.inner.sample(state, stochastic, seed)


class TestRunMode:
    def test_dispatch(self):
        loc = OracleLocalizer(OracleLocalizerConfig(), TRUTH)
        s = run_mode(loc, blank(), McConfig(mode="mcdo", n_samples=4))
        assert s.mode == "mcdo"

    @pytest.mark.parametrize(
        "loc, v",
        [
            (MarkerLocalizer(OracleLocalizerConfig(jitter_std=1.0, failure_rate=0.2)), bump((22.0, 25.0, 24.0))),
            (ConvNetLocalizer.from_seed(ConvNetSpec(), seed=1), smooth_unit((12, 12, 12), radius=5.0)),
        ],
        ids=["marker", "convnet"],
    )
    def test_mcdo_matches_predict_per_sample(self, loc, v):
        cfg = McConfig(mode="mcdo", n_samples=5, base_seed=40)
        s = run_mode(loc, v, cfg)
        reference = [loc.predict(v, stochastic=True, seed=cfg.base_seed + i) for i in range(cfg.n_samples)]
        positions = np.array([argmax_position(h).as_array for h in reference])
        mean, var = mean_variance(reference)
        for got, want in zip(s.sample_heatmaps, reference):
            np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(s.argmax_positions, positions)
        np.testing.assert_array_equal(s.mean_map.data, mean.data)
        np.testing.assert_array_equal(s.variance_map.data, var.data)
        assert s.mad == mad(positions)
        assert s.final_target == argmax_position(mean)

    @pytest.mark.parametrize("mode", ["mcdo", "tta", "hybrid"])
    @pytest.mark.parametrize("target", [(22.0, 25.0, 24.0), (3.0, 24.0, 44.5)], ids=["inner", "near-faces"])
    def test_matches_dense_reference(self, mode, target):
        # full-grid passes per sample: affine_transform warp back, dense sums, argmax over the whole grid
        loc = MarkerLocalizer(OracleLocalizerConfig(jitter_std=1.5, failure_rate=0.2))
        v = bump(target)
        cfg = McConfig(mode=mode, n_samples=8, base_seed=70)
        s = run_mode(loc, v, cfg)
        heats = []
        for i in range(cfg.n_samples):
            seed = cfg.base_seed + i
            if mode == "mcdo":
                heats.append(loc.predict(v, stochastic=True, seed=seed).data)
                continue
            tf, curve = sample_transform(cfg.priors, seed)
            latent = intensity_apply_inverse(curve, rigid_apply(tf.invert(), v, "trilinear"))  # dense: full warp
            heat = loc.predict(latent, stochastic=mode == "hybrid", seed=seed).data
            rot_inv = rotation_matrix(tf.axis, -tf.angle_deg)
            pivot = tf.resolve_pivot(v.dims)
            offset = pivot - rot_inv @ (pivot + np.asarray(tf.translation))
            heats.append(ndimage.affine_transform(heat, rot_inv, offset=offset, order=1, mode="nearest"))
        positions = np.array(
            [np.unravel_index(int(np.nanargmax(h.ravel(order="F"))), h.shape, order="F") for h in heats], dtype=float
        )
        mean = sum(heats) / cfg.n_samples
        var = np.maximum(sum(h * h for h in heats) / cfg.n_samples - mean * mean, 0.0)
        for got, want in zip(s.sample_heatmaps, heats):
            np.testing.assert_array_equal(got.data, want)
        np.testing.assert_array_equal(s.argmax_positions, positions)
        assert s.mean_map.data.tobytes() == mean.tobytes()
        assert s.variance_map.data.tobytes() == var.tobytes()
        assert s.mad == mad(positions)
        final = np.unravel_index(int(np.nanargmax(mean.ravel(order="F"))), mean.shape, order="F")
        assert s.final_target.position == tuple(float(p) for p in final)

    @pytest.mark.parametrize("mode, prepares", [("mcdo", 1), ("tta", 6), ("hybrid", 6)])
    def test_prepare_once_per_distinct_input(self, mode, prepares):
        loc = CountingLocalizer(MarkerLocalizer(OracleLocalizerConfig(jitter_std=0.5)))
        priors = TransformPriors(s_range=(-2, 2), r_range=(-4, 4), curve_control_range=(0.4, 0.6))
        run_mode(loc, bump((22.0, 25.0, 24.0)), McConfig(mode=mode, n_samples=6, priors=priors, keep_samples=False))
        assert (loc.prepared, loc.sampled) == (prepares, 6)

    def test_prepare_failure_is_sample_zero(self):
        class Unpreparable:
            def prepare(self, v):
                raise RuntimeError("cannot read input")

            def sample(self, state, stochastic=False, seed=0):  # pragma: no cover - never reached
                return blank((8, 8, 8))

        with pytest.raises(SamplingError, match="sample 0: cannot read input") as info:
            run_mode(Unpreparable(), blank((8, 8, 8)), McConfig(mode="mcdo", n_samples=3))
        assert info.value.index == 0
        assert isinstance(info.value.__cause__, RuntimeError)


SMALL_PRIORS = TransformPriors(s_range=(-2, 2), r_range=(-6, 6), curve_control_range=(0.3, 0.7))


class ThreadRecordingLocalizer:
    """Wraps a localizer, records which thread drew each seed and fails on chosen seeds."""

    def __init__(self, inner, fail_seeds=()):
        self.inner = inner
        self.fail_seeds = set(fail_seeds)
        self.thread_of_seed = {}

    def prepare(self, v):
        return self.inner.prepare(v)

    def sample(self, state, stochastic=False, seed=0):
        self.thread_of_seed[seed] = threading.get_ident()
        if seed in self.fail_seeds:
            raise RuntimeError(f"seed {seed} fails")
        return self.inner.sample(state, stochastic, seed)


def _summary_bytes(s):
    kept = [h.data.tobytes() for h in s.sample_heatmaps]
    return kept, s.argmax_positions.tobytes(), s.mean_map.data.tobytes(), s.variance_map.data.tobytes(), s.mad, s.final_target


def _threads_in_worker(mode):
    """Run in a case-pool worker: the sampler's thread budget and the threads that drew samples."""
    loc = ThreadRecordingLocalizer(MarkerLocalizer(OracleLocalizerConfig(jitter_std=0.5)))
    run_mode(loc, bump((22.0, 25.0, 24.0)), McConfig(mode=mode, n_samples=5, priors=SMALL_PRIORS, keep_samples=False))
    return uncertainty._sample_threads(5), len(set(loc.thread_of_seed.values()))


class TestSamplePool:
    """tta and hybrid draw samples on helper threads; outputs and failures match a serial loop."""

    @pytest.fixture
    def serial(self, monkeypatch):
        def run(loc, v, cfg):
            with monkeypatch.context() as m:
                m.setattr(uncertainty, "_sample_threads", lambda n: 1)
                return run_mode(loc, v, cfg)

        return run

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("mode", ["tta", "hybrid"])
    def test_helpers_match_serial_bits(self, monkeypatch, serial, mode, n, threads):
        loc = ThreadRecordingLocalizer(MarkerLocalizer(OracleLocalizerConfig(jitter_std=1.5, failure_rate=0.2)))
        v = bump((22.0, 25.0, 24.0))
        cfg = McConfig(mode=mode, n_samples=n, base_seed=90)
        reference = serial(loc, v, cfg)
        monkeypatch.setattr(uncertainty, "_sample_threads", lambda n_samples: min(n_samples, threads))
        got = run_mode(loc, v, cfg)
        assert _summary_bytes(got) == _summary_bytes(reference)
        main = threading.get_ident()
        helper_drawn = {i for i in range(n) if loc.thread_of_seed[cfg.base_seed + i] != main}
        assert helper_drawn == {i for i in range(n) if i % min(n, threads)}

    def test_stress_more_threads_than_cores(self, monkeypatch, serial):
        loc = MarkerLocalizer(OracleLocalizerConfig(jitter_std=1.0, failure_rate=0.3))
        v = bump((22.0, 25.0, 24.0))
        cfg = McConfig(mode="hybrid", n_samples=13, priors=SMALL_PRIORS, base_seed=50)
        reference = serial(loc, v, cfg)
        monkeypatch.setattr(uncertainty, "_sample_threads", lambda n: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_mode(loc, v, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert _summary_bytes(got) == _summary_bytes(reference)

    @pytest.mark.parametrize("fail_at, first", [((2, 3), 2), ((3, 4), 3), ((1, 2), 1), ((4,), 4)])
    @pytest.mark.parametrize("mode", ["tta", "hybrid"])
    def test_lowest_failing_index_is_reported(self, monkeypatch, serial, mode, fail_at, first):
        # with two threads the main thread draws even indices and the helper odd ones
        cfg = McConfig(mode=mode, n_samples=6, priors=SMALL_PRIORS, base_seed=20)
        inner = MarkerLocalizer(OracleLocalizerConfig(jitter_std=0.5))
        fail_seeds = [cfg.base_seed + i for i in fail_at]
        with pytest.raises(SamplingError) as want:
            serial(ThreadRecordingLocalizer(inner, fail_seeds), bump((22.0, 25.0, 24.0)), cfg)
        monkeypatch.setattr(uncertainty, "_sample_threads", lambda n: 2)
        loc = ThreadRecordingLocalizer(inner, fail_seeds)
        with pytest.raises(SamplingError) as got:
            run_mode(loc, bump((22.0, 25.0, 24.0)), cfg)
        assert got.value.index == want.value.index == first
        assert str(got.value) == str(want.value)
        assert isinstance(got.value.__cause__, RuntimeError)
        drawn_by_main = loc.thread_of_seed[cfg.base_seed + first] == threading.get_ident()
        assert drawn_by_main == (first % 2 == 0)

    @pytest.mark.parametrize("fail_seeds", [(), (31,), (32,)], ids=["ok", "helper-fails", "main-fails"])
    def test_no_thread_outlives_the_call(self, monkeypatch, fail_seeds):
        monkeypatch.setattr(uncertainty, "_sample_threads", lambda n: min(n, 3))
        loc = ThreadRecordingLocalizer(MarkerLocalizer(OracleLocalizerConfig()), fail_seeds)
        cfg = McConfig(mode="tta", n_samples=8, priors=SMALL_PRIORS, base_seed=29)
        before = threading.active_count()
        try:
            run_mode(loc, bump((22.0, 25.0, 24.0)), cfg)
        except SamplingError as err:
            assert fail_seeds and err.index == fail_seeds[0] - cfg.base_seed
        else:
            assert not fail_seeds
        assert threading.active_count() == before
        assert len(set(loc.thread_of_seed.values())) > 1

    def test_mcdo_stays_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(uncertainty, "_sample_threads", lambda n: min(n, 3))
        loc = ThreadRecordingLocalizer(MarkerLocalizer(OracleLocalizerConfig(jitter_std=1.0)))
        run_mode(loc, bump((22.0, 25.0, 24.0)), McConfig(mode="mcdo", n_samples=6))
        assert set(loc.thread_of_seed.values()) == {threading.get_ident()}

    @pytest.mark.parametrize("mode", ["tta", "hybrid"])
    def test_process_pool_worker_draws_alone(self, mode):
        # cmd_run's case pool, once of processes, is now of threads that set DRAW_ALONE
        with concurrent.futures.ThreadPoolExecutor(1, initializer=uncertainty.DRAW_ALONE.set, initargs=(True,)) as pool:
            assert pool.submit(_threads_in_worker, mode).result(timeout=120) == (1, 1)
        assert not uncertainty.DRAW_ALONE.get()


class TestThreadContract:
    """Localizer.prepare and sample may run on two threads at once on different inputs."""

    @pytest.mark.parametrize(
        "loc, inputs",
        [
            (
                MarkerLocalizer(OracleLocalizerConfig(jitter_std=1.0, failure_rate=0.3)),
                [bump((20.0, 25.0, 24.0)), bump((27.0, 21.0, 23.5))],
            ),
            (
                ConvNetLocalizer.from_seed(ConvNetSpec(channels=(4, 4, 1)), seed=3),
                [smooth_unit((12, 12, 12), radius=5.0), smooth_unit((12, 12, 12), radius=4.0, amplitude=0.6)],
            ),
        ],
        ids=["marker", "convnet"],
    )
    def test_two_threads_give_serial_bits(self, loc, inputs):
        seeds = range(6)

        def draw(v):
            return [loc.sample(loc.prepare(v), stochastic, seed).data.tobytes() for seed in seeds for stochastic in (False, True)]

        serial = [draw(v) for v in inputs]
        start = threading.Barrier(len(inputs), timeout=60)

        def worker(v):
            start.wait()
            return draw(v)

        with concurrent.futures.ThreadPoolExecutor(len(inputs)) as pool:
            concurrent_out = list(pool.map(worker, inputs, timeout=120))
        assert concurrent_out == serial


class TestSummary:
    def test_final_target_is_mean_argmax(self):
        loc = OracleLocalizer(OracleLocalizerConfig(jitter_std=1.0), TRUTH)
        s = run_mcdo(loc, blank(), McConfig(mode="mcdo", n_samples=16, base_seed=4))
        assert s.final_target.position == argmax_position(s.mean_map).position


class TestRejectionStats:
    def test_one_to_nine(self):
        stats = rejection_stats(list(range(1, 10)))
        assert stats.q1 == 3.0
        assert stats.median == 5.0
        assert stats.q3 == 7.0
        assert stats.iqr == 4.0
        assert stats.fence == 13.0
        assert stats.upper_whisker == 9.0
        assert stats.flagged == ()

    def test_gross_outlier_flagged(self):
        stats = rejection_stats([1.0, 1.0, 1.0, 1.0, 100.0])
        assert stats.flagged == (4,)
        assert stats.upper_whisker == 1.0

    def test_all_equal_no_flags(self):
        stats = rejection_stats([5.0, 5.0, 5.0, 5.0])
        assert stats.iqr == 0.0
        assert stats.flagged == ()
        assert stats.upper_whisker == 5.0

    def test_value_on_fence_not_flagged(self):
        stats = rejection_stats([1.0, 1.0, 3.0, 3.0, 6.0])
        assert stats.fence == pytest.approx(6.0)
        assert stats.flagged == ()
        assert stats.upper_whisker == 6.0

    def test_too_few_values_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            rejection_stats([1.0, 2.0, 3.0])

    def test_json(self):
        obj = json.loads(json.dumps(asdict(rejection_stats([1.0, 1.0, 1.0, 1.0, 9.0]))))
        assert set(obj) == {"n", "q1", "median", "q3", "iqr", "fence", "upper_whisker", "flagged"}
        assert obj["flagged"] == [4]
