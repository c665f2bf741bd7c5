"""Synthetic phantom volumes with known structures and targets.

Each phantom holds two ellipsoidal "thalami" on a flat background, a
bright compact marker painted at each latent target (so content-based
localizers have something to find), and two difficulty knobs: a
lateral displacement that pushes the structures apart (standing in for
enlarged ventricles) and additive Gaussian noise. Masks are exact
ellipsoid lattices computed before noise, and targets are transported
with the displacement, so ground truth stays analytic for every knob
setting.

Everything a cohort does not vary is a module constant: the voxel
``SPACING``, the ellipsoids' ``SEMI_AXES_MM`` and ``LATERAL_OFFSET_MM``,
the ``STRUCTURE_INTENSITY``/``BACKGROUND_INTENSITY`` levels and the
``EDGE_WIDTH`` of their rolloff, the targets' ``TARGET_OFFSET_FRAC``,
and the markers' ``MARKER_AMPLITUDE`` and ``MARKER_SIGMA_MM``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from voxloc.heatmap import HeatmapSpec, TargetPoint, gaussian_heatmap
from voxloc.volume import Volume3, read_volume, rescale_intensity, write_volume

__all__ = [
    "InfeasibleSpecError",
    "PhantomSpec",
    "PhantomCase",
    "generate_phantom",
    "CohortEntry",
    "hard_case_ids",
    "derive_seed",
    "cohort_case_spec",
    "iter_cohort",
    "write_cohort",
    "read_manifest",
]


class InfeasibleSpecError(Exception):
    """The requested phantom geometry cannot be realized."""


SPACING = (1.0, 1.0, 1.0)
SEMI_AXES_MM = (10.0, 14.0, 11.0)
# The structure centres sit 2 * (LATERAL_OFFSET_MM + enlargement) >= 32 mm
# apart along axis 0 and each x semi-axis is 10 mm, so the two ellipsoids
# are always at least 12 mm apart and can never overlap.
LATERAL_OFFSET_MM = 16.0
STRUCTURE_INTENSITY = 0.62
BACKGROUND_INTENSITY = 0.12
EDGE_WIDTH = 0.15
# x fraction is negative so each target (and its marker) sits on the
# lateral side, keeping the opposite marker out of a 64-voxel crop
TARGET_OFFSET_FRAC = (-0.2, -0.25, 0.15)
MARKER_AMPLITUDE = 0.38
MARKER_SIGMA_MM = 1.2

# the uniform ranges each easy or hard cohort case draws its knobs from
EASY_ENLARGEMENT_MM = (0.0, 1.0)
EASY_NOISE_STD = (0.01, 0.02)
HARD_ENLARGEMENT_MM = (5.0, 6.0)
HARD_NOISE_STD = (0.06, 0.1)


@dataclass(frozen=True)
class PhantomSpec:
    """The settings a cohort varies for one phantom; the rest are module constants.

    The two structures sit symmetrically about the volume midplane at
    ``LATERAL_OFFSET_MM + ventricle_enlargement_mm`` from the center along
    axis 0. Each latent target lies ``TARGET_OFFSET_FRAC`` of ``SEMI_AXES_MM``
    from its structure's center, mirrored in x for the right side.
    """

    dims: tuple[int, int, int] = (192, 192, 192)
    ventricle_enlargement_mm: float = 0.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 64 for d in dims):
            # both 64-voxel crops must fit the volume
            raise ValueError(f"dims must be >= 64 per axis, got {dims}")
        if self.ventricle_enlargement_mm < 0 or self.noise_std < 0:
            raise ValueError("corruption knobs must be >= 0")
        object.__setattr__(self, "dims", dims)

    def structure_centers_mm(self) -> tuple[np.ndarray, np.ndarray]:
        """Left and right structure centers in mm, displacement applied."""
        mid = (np.asarray(self.dims, dtype=np.float64) - 1.0) * np.asarray(SPACING) / 2.0
        shift = LATERAL_OFFSET_MM + self.ventricle_enlargement_mm
        left = mid - np.array([shift, 0.0, 0.0])
        right = mid + np.array([shift, 0.0, 0.0])
        return left, right

    def target_positions(self) -> tuple[TargetPoint, TargetPoint]:
        """Latent targets in voxel coordinates, transported with the centers."""
        left_c, right_c = self.structure_centers_mm()
        frac = np.asarray(TARGET_OFFSET_FRAC)
        axes = np.asarray(SEMI_AXES_MM)
        mirror = np.array([-1.0, 1.0, 1.0])
        left_mm = left_c + frac * axes
        right_mm = right_c + frac * axes * mirror
        sp = np.asarray(SPACING)
        return (
            TargetPoint(tuple(left_mm / sp), side="left"),
            TargetPoint(tuple(right_mm / sp), side="right"),
        )


@dataclass(frozen=True)
class PhantomCase:
    """One generated phantom with its ground truth."""

    image: Volume3
    left_mask: Volume3
    right_mask: Volume3
    truth_left: TargetPoint
    truth_right: TargetPoint
    spec: PhantomSpec

    def truth(self, side: str) -> TargetPoint:
        if side == "left":
            return self.truth_left
        if side == "right":
            return self.truth_right
        raise ValueError(f"unknown side {side!r}")


def _rho_squared(spec: PhantomSpec, center_mm: np.ndarray) -> np.ndarray:
    # separable normalized ellipsoid radius, built by broadcast
    parts = []
    for axis in range(3):
        coords = np.arange(spec.dims[axis], dtype=np.float64) * SPACING[axis]
        parts.append(((coords - center_mm[axis]) / SEMI_AXES_MM[axis]) ** 2)
    return (
        parts[0][:, None, None] + parts[1][None, :, None] + parts[2][None, None, :]
    )


def _edge_profile(rho2: np.ndarray, width: float) -> np.ndarray:
    # 1 inside, cosine rolloff across [1-width, 1+width] in rho, 0 outside
    rho = np.sqrt(rho2)
    t = np.clip((rho - (1.0 - width)) / (2.0 * width), 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * t))


def generate_phantom(spec: PhantomSpec) -> PhantomCase:
    """Build one phantom deterministically from its spec.

    The noise is the only random draw, so the same seed always yields a
    bitwise-identical case.
    """
    left_c, right_c = spec.structure_centers_mm()
    rho2_left = _rho_squared(spec, left_c)
    rho2_right = _rho_squared(spec, right_c)

    left_mask = rho2_left <= 1.0
    right_mask = rho2_right <= 1.0
    if not left_mask.any() or not right_mask.any():
        raise InfeasibleSpecError("a structure lies outside the volume")

    truth_left, truth_right = spec.target_positions()
    for truth, mask in ((truth_left, left_mask), (truth_right, right_mask)):
        idx = tuple(int(round(p)) for p in truth.position)
        # bounds first: a negative index would silently wrap around the grid
        if not all(0 <= i < d for i, d in zip(idx, spec.dims)) or not mask[idx]:
            raise InfeasibleSpecError(f"target {truth.position} fell outside its mask")

    amplitude = STRUCTURE_INTENSITY - BACKGROUND_INTENSITY
    profile = np.maximum(
        _edge_profile(rho2_left, EDGE_WIDTH),
        _edge_profile(rho2_right, EDGE_WIDTH),
    )
    img = BACKGROUND_INTENSITY + amplitude * profile

    marker = HeatmapSpec(sigma_mm=MARKER_SIGMA_MM, cutoff=0.004, peak=1.0)
    for truth in (truth_left, truth_right):
        bump = gaussian_heatmap(marker, TargetPoint(truth.position), spec.dims, SPACING)
        img += MARKER_AMPLITUDE * bump.data

    if spec.noise_std > 0:
        img += np.random.default_rng(spec.seed).normal(0.0, spec.noise_std, spec.dims)

    image = rescale_intensity(Volume3(img, SPACING))
    image = Volume3(image.data.astype(np.float32), SPACING)

    return PhantomCase(
        image=image,
        left_mask=Volume3(left_mask.astype(np.float32), SPACING),
        right_mask=Volume3(right_mask.astype(np.float32), SPACING),
        truth_left=truth_left,
        truth_right=truth_right,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# cohorts
# ---------------------------------------------------------------------------


class CohortEntry(NamedTuple):
    case_id: int
    case: PhantomCase
    hard: bool


def hard_case_ids(n: int, n_hard: int, seed: int) -> tuple[int, ...]:
    """Which case ids carry the hard profile; depends only on (n, n_hard, seed)."""
    if not 0 <= n_hard <= n:
        raise ValueError(f"need 0 <= n_hard <= n, got n_hard={n_hard}, n={n}")
    if n_hard == 0:
        return ()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    return tuple(sorted(int(i) for i in rng.choice(n, size=n_hard, replace=False)))


def derive_seed(*path: int) -> int:
    """One 32-bit seed per path of non-negative ints, e.g. (seed, case id)."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def cohort_case_spec(case_id: int, seed: int, base: PhantomSpec, hard: bool) -> PhantomSpec:
    """Spec for one cohort case; a function of (seed, case_id) only.

    Every case draws mild anatomy variation and noise so distinct seeds
    give distinct images; hard cases get large displacement plus heavy
    noise on top.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, case_id, 1]))
    enlargement = HARD_ENLARGEMENT_MM if hard else EASY_ENLARGEMENT_MM
    noise = HARD_NOISE_STD if hard else EASY_NOISE_STD
    return replace(
        base,
        seed=derive_seed(seed, case_id),
        ventricle_enlargement_mm=float(rng.uniform(*enlargement)),
        noise_std=float(rng.uniform(*noise)),
    )


def iter_cohort(
    n: int,
    n_hard: int = 0,
    seed: int = 0,
    base_spec: PhantomSpec | None = None,
) -> Iterator[CohortEntry]:
    if n < 1:
        raise ValueError(f"cohort size must be >= 1, got {n}")
    base = base_spec or PhantomSpec()
    hard = set(hard_case_ids(n, n_hard, seed))
    for i in range(n):
        spec = cohort_case_spec(i, seed, base, i in hard)
        yield CohortEntry(i, generate_phantom(spec), i in hard)


def write_cohort(
    out_dir: str | Path,
    n: int,
    n_hard: int = 0,
    seed: int = 0,
    base_spec: PhantomSpec | None = None,
    meta: dict | None = None,
) -> dict:
    """Generate a cohort to disk and return the written manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for case_id, case, hard in iter_cohort(n, n_hard, seed, base_spec):
        case_dir = out_dir / f"case_{case_id:03d}"
        case_dir.mkdir(exist_ok=True)
        files = {}
        for name, vol in (
            ("image", case.image),
            ("left_mask", case.left_mask),
            ("right_mask", case.right_mask),
        ):
            write_volume(vol, case_dir / f"{name}.json")
            files[name] = f"case_{case_id:03d}/{name}.json"
        cases.append(
            {
                "id": case_id,
                "files": files,
                "truth_targets": {
                    "left": list(case.truth_left.position),
                    "right": list(case.truth_right.position),
                },
                "hard": hard,
                "spec": asdict(case.spec),
            }
        )
    manifest = {"seed": seed, "n": n, "n_hard": n_hard, "cases": cases}
    if meta:
        manifest.update(meta)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def read_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def load_case_volumes(manifest_path: str | Path, entry: dict) -> tuple[Volume3, Volume3, Volume3]:
    """Read (image, left mask, right mask) for one manifest entry."""
    root = Path(manifest_path).parent
    files = entry["files"]
    return (
        read_volume(root / files["image"]),
        read_volume(root / files["left_mask"]),
        read_volume(root / files["right_mask"]),
    )
