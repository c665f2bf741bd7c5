"""Tests for phantom generation and cohorts."""

import json

import numpy as np
import pytest

from voxloc.heatmap import HeatmapSpec, TargetPoint, gaussian_heatmap
from voxloc.phantom import (
    BACKGROUND_INTENSITY,
    EDGE_WIDTH,
    MARKER_AMPLITUDE,
    MARKER_SIGMA_MM,
    SEMI_AXES_MM,
    SPACING,
    STRUCTURE_INTENSITY,
    InfeasibleSpecError,
    PhantomSpec,
    cohort_case_spec,
    generate_phantom,
    hard_case_ids,
    iter_cohort,
    load_case_volumes,
    write_cohort,
)
from voxloc.volume import Volume3, downsample_to, rescale_intensity

SMALL = PhantomSpec(dims=(96, 96, 96))


def ellipsoid_lattice(spec, center_mm, semi_axes):
    grids = np.meshgrid(
        *(np.arange(d, dtype=np.float64) * s for d, s in zip(spec.dims, SPACING)),
        indexing="ij",
    )
    rho2 = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, center_mm, semi_axes))
    return rho2 <= 1.0


class TestGeneratePhantom:
    def test_clean_defaults_are_analytic(self):
        case = generate_phantom(SMALL)
        assert case.image.data.max() == pytest.approx(1.0)
        assert case.image.data.min() == pytest.approx(0.0)
        assert case.image.data.dtype == np.float32

        left_c, right_c = SMALL.structure_centers_mm()
        np.testing.assert_array_equal(
            case.left_mask.data > 0.5, ellipsoid_lattice(SMALL, left_c, SEMI_AXES_MM)
        )
        np.testing.assert_array_equal(
            case.right_mask.data > 0.5, ellipsoid_lattice(SMALL, right_c, SEMI_AXES_MM)
        )

    def test_targets_at_analytic_positions(self):
        case = generate_phantom(SMALL)
        # left target: center + frac * semi_axes; right mirrors the x offset
        mid = (96 - 1) / 2.0
        expected_left = np.array([mid - 16.0 - 0.2 * 10.0, mid - 0.25 * 14.0, mid + 0.15 * 11.0])
        expected_right = np.array([mid + 16.0 + 0.2 * 10.0, mid - 0.25 * 14.0, mid + 0.15 * 11.0])
        np.testing.assert_allclose(case.truth_left.as_array, expected_left, atol=1e-12)
        np.testing.assert_allclose(case.truth_right.as_array, expected_right, atol=1e-12)

    def test_targets_inside_masks(self):
        for enlargement in (0.0, 4.0, 8.0):
            spec = PhantomSpec(dims=(120, 96, 96), ventricle_enlargement_mm=enlargement)
            case = generate_phantom(spec)
            for truth, mask in ((case.truth_left, case.left_mask), (case.truth_right, case.right_mask)):
                idx = tuple(int(round(p)) for p in truth.position)
                assert mask.data[idx] == 1.0

    def test_marker_brightest_at_target(self):
        case = generate_phantom(SMALL)
        idx = tuple(int(round(p)) for p in case.truth_left.position)
        half = case.image.data[:48]
        assert half.max() == half[idx]

    def test_same_seed_bitwise_identical(self):
        spec = PhantomSpec(dims=(96, 96, 96), noise_std=0.05, seed=11)
        a = generate_phantom(spec)
        b = generate_phantom(spec)
        np.testing.assert_array_equal(a.image.data, b.image.data)
        np.testing.assert_array_equal(a.left_mask.data, b.left_mask.data)
        assert a.truth_left.position == b.truth_left.position

    def test_different_seeds_differ(self):
        a = generate_phantom(PhantomSpec(dims=(96, 96, 96), noise_std=0.05, seed=1))
        b = generate_phantom(PhantomSpec(dims=(96, 96, 96), noise_std=0.05, seed=2))
        assert np.abs(a.image.data - b.image.data).max() > 0.0

    def test_enlargement_shifts_centroids_laterally(self):
        base = generate_phantom(PhantomSpec(dims=(120, 96, 96)))
        moved = generate_phantom(PhantomSpec(dims=(120, 96, 96), ventricle_enlargement_mm=8.0))

        def centroid_x(mask):
            return float(np.argwhere(mask.data > 0.5)[:, 0].mean())

        left_shift = centroid_x(moved.left_mask) - centroid_x(base.left_mask)
        right_shift = centroid_x(moved.right_mask) - centroid_x(base.right_mask)
        assert left_shift == pytest.approx(-8.0, abs=1.0)
        assert right_shift == pytest.approx(8.0, abs=1.0)
        # targets transported with the structures
        assert moved.truth_left.position[0] - base.truth_left.position[0] == pytest.approx(-8.0)

    def test_noise_and_bias_keep_unit_range(self):
        case = generate_phantom(PhantomSpec(dims=(96, 96, 96), noise_std=0.08, seed=3))
        assert case.image.data.min() == pytest.approx(0.0)
        assert case.image.data.max() == pytest.approx(1.0)

    def test_structure_outside_volume_rejected(self):
        with pytest.raises(InfeasibleSpecError, match="outside"):
            generate_phantom(PhantomSpec(dims=(64, 64, 64), ventricle_enlargement_mm=200.0))

    # at 14 mm the right target rounds to x = 64, one past the grid; at 15 mm the
    # left one rounds to x = -2, which plain indexing would wrap to x = 62
    @pytest.mark.parametrize("enlargement", [14.0, 15.0])
    def test_target_off_the_grid_rejected(self, enlargement):
        with pytest.raises(InfeasibleSpecError, match="target"):
            generate_phantom(PhantomSpec(dims=(64, 64, 64), ventricle_enlargement_mm=enlargement))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="dims"):
            PhantomSpec(dims=(32, 96, 96))
        with pytest.raises(ValueError, match=">= 0"):
            PhantomSpec(noise_std=-0.1)

    def test_truth_accessor(self):
        case = generate_phantom(SMALL)
        assert case.truth("left") is case.truth_left
        assert case.truth("right") is case.truth_right
        with pytest.raises(ValueError):
            case.truth("up")


def full_grid_phantom(spec: PhantomSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(image, left mask, right mask) from the formulas evaluated on the whole grid."""
    rho2 = []
    for center in spec.structure_centers_mm():
        parts = [
            ((np.arange(n, dtype=np.float64) * SPACING[a] - center[a]) / SEMI_AXES_MM[a]) ** 2
            for a, n in enumerate(spec.dims)
        ]
        rho2.append(parts[0][:, None, None] + parts[1][None, :, None] + parts[2][None, None, :])

    def profile(r2):
        t = np.clip((np.sqrt(r2) - (1.0 - EDGE_WIDTH)) / (2.0 * EDGE_WIDTH), 0.0, 1.0)
        return 0.5 * (1.0 + np.cos(np.pi * t))

    amplitude = STRUCTURE_INTENSITY - BACKGROUND_INTENSITY
    img = BACKGROUND_INTENSITY + amplitude * np.maximum(profile(rho2[0]), profile(rho2[1]))
    marker = HeatmapSpec(sigma_mm=MARKER_SIGMA_MM, cutoff=0.004, peak=1.0)
    for truth in spec.target_positions():
        img += MARKER_AMPLITUDE * gaussian_heatmap(marker, TargetPoint(truth.position), spec.dims, SPACING).data
    if spec.noise_std > 0:
        img += np.random.default_rng(spec.seed).normal(0.0, spec.noise_std, spec.dims)
    image = rescale_intensity(Volume3(img, SPACING)).data.astype(np.float32)
    return image, (rho2[0] <= 1.0).astype(np.float32), (rho2[1] <= 1.0).astype(np.float32)


class TestBoxedPhantom:
    """Profiles, masks and markers computed on their boxes give the whole grid's bytes."""

    @pytest.mark.parametrize(
        "spec",
        [
            cohort_case_spec(0, 3, PhantomSpec(dims=(96, 96, 96)), hard=False),
            cohort_case_spec(1, 5, PhantomSpec(dims=(80, 72, 96)), hard=True),
            # 3.5 mm from axis 0's faces: both ellipsoids and their boxes are cut by the grid
            PhantomSpec(dims=(64, 70, 66), ventricle_enlargement_mm=12.0, noise_std=0.05, seed=4),
        ],
        ids=["easy", "hard", "clipped"],
    )
    def test_matches_full_grid_formulas(self, spec):
        case = generate_phantom(spec)
        image, left, right = full_grid_phantom(spec)
        assert case.image.data.tobytes() == image.tobytes()
        assert case.left_mask.data.tobytes() == left.tobytes()
        assert case.right_mask.data.tobytes() == right.tobytes()


class TestMaskRoundtrip:
    def test_dice_survives_coarse_roundtrip_default_size(self):
        # the coarse stage maps masks 192 -> 80 -> 192; structures must survive
        case = generate_phantom(PhantomSpec())
        for mask in (case.left_mask, case.right_mask):
            coarse = downsample_to(mask, (80, 80, 80), interpolation="nearest")
            back = downsample_to(coarse, (192, 192, 192), interpolation="nearest")
            a, b = back.data != 0, mask.data != 0
            assert 2.0 * np.sum(a & b) / (np.sum(a) + np.sum(b)) >= 0.9  # Dice overlap


class TestCohort:
    def test_hard_ids_are_reproducible_subset(self):
        ids = hard_case_ids(30, 5, seed=7)
        assert len(ids) == 5 and len(set(ids)) == 5
        assert all(0 <= i < 30 for i in ids)
        assert ids == hard_case_ids(30, 5, seed=7)
        assert hard_case_ids(30, 0, seed=7) == ()

    def test_hard_ids_validation(self):
        with pytest.raises(ValueError):
            hard_case_ids(3, 4, seed=0)

    def test_cases_depend_only_on_seed_and_index(self):
        entries = list(iter_cohort(4, n_hard=1, seed=5, base_spec=SMALL))
        i = entries[2].case_id
        spec = cohort_case_spec(i, 5, SMALL, entries[2].hard)
        solo = generate_phantom(spec)
        np.testing.assert_array_equal(solo.image.data, entries[2].case.image.data)

    def test_pairwise_distinct_images(self):
        cases = [e.case for e in iter_cohort(4, seed=3, base_spec=SMALL)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(cases[i].image.data - cases[j].image.data).max() > 0.0

    def test_hard_cases_carry_heavy_profile(self):
        entries = list(iter_cohort(6, n_hard=2, seed=9, base_spec=PhantomSpec(dims=(120, 96, 96))))
        hard = [e for e in entries if e.hard]
        easy = [e for e in entries if not e.hard]
        assert len(hard) == 2
        for e in hard:
            assert e.case.spec.ventricle_enlargement_mm >= 5.0
            assert e.case.spec.noise_std >= 0.06
        for e in easy:
            assert e.case.spec.ventricle_enlargement_mm <= 1.0
            assert e.case.spec.noise_std <= 0.02

    def test_single_case_cohort(self):
        entries = list(iter_cohort(1, seed=0, base_spec=SMALL))
        assert len(entries) == 1
        assert entries[0].case.image.dims == (96, 96, 96)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError):
            list(iter_cohort(0))


class TestCohortFiles:
    def test_write_cohort_layout_and_manifest(self, tmp_path):
        manifest = write_cohort(tmp_path / "cohort", 3, n_hard=1, seed=4, base_spec=SMALL, meta={"config_hash": "abc"})
        assert manifest["n"] == 3 and manifest["seed"] == 4
        assert manifest["config_hash"] == "abc"
        assert sum(entry["hard"] for entry in manifest["cases"]) == 1
        for entry in manifest["cases"]:
            for rel in entry["files"].values():
                assert (tmp_path / "cohort" / rel).exists()
                assert (tmp_path / "cohort" / rel).with_suffix(".raw").exists()

    def test_manifest_bytes_deterministic(self, tmp_path):
        write_cohort(tmp_path / "a", 2, seed=8, base_spec=SMALL)
        write_cohort(tmp_path / "b", 2, seed=8, base_spec=SMALL)
        a = (tmp_path / "a" / "manifest.json").read_bytes()
        b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert a == b
        img_a = (tmp_path / "a" / "case_000" / "image.raw").read_bytes()
        img_b = (tmp_path / "b" / "case_000" / "image.raw").read_bytes()
        assert img_a == img_b

    def test_load_case_volumes_roundtrip(self, tmp_path):
        write_cohort(tmp_path / "cohort", 2, seed=12, base_spec=SMALL)
        manifest_path = tmp_path / "cohort" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["cases"][1]
        image, left, right = load_case_volumes(manifest_path, entry)

        regenerated = generate_phantom(cohort_case_spec(1, 12, SMALL, entry["hard"]))
        np.testing.assert_array_equal(image.data, regenerated.image.data)
        np.testing.assert_array_equal(left.data, regenerated.left_mask.data)
        assert isinstance(image, Volume3)

    def test_truth_targets_in_manifest(self, tmp_path):
        write_cohort(tmp_path / "cohort", 1, seed=2, base_spec=SMALL)
        manifest = json.loads((tmp_path / "cohort" / "manifest.json").read_text())
        targets = manifest["cases"][0]["truth_targets"]
        assert set(targets) == {"left", "right"}
        assert len(targets["left"]) == 3
        assert targets["left"][0] < targets["right"][0]
