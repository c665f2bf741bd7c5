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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from voxloc.heatmap import HeatmapSpec, TargetPoint, gaussian_heatmap
from voxloc.volume import Volume3, rescale_intensity, usable_cores, write_volume

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


def _rho_squared(spec: PhantomSpec, center_mm: np.ndarray) -> tuple[tuple[slice, slice, slice], np.ndarray]:
    """The box outside which a structure's edge profile is 0, and its squared normalized radius there.

    Outside the box one axis term alone exceeds ``(1 + EDGE_WIDTH +
    0.01)**2``, so rho > 1 + EDGE_WIDTH and the profile is exactly 0.0.
    """
    box, parts = [], []
    for axis in range(3):
        coords = np.arange(spec.dims[axis], dtype=np.float64) * SPACING[axis]
        part = ((coords - center_mm[axis]) / SEMI_AXES_MM[axis]) ** 2
        hit = np.flatnonzero(part <= (1.0 + EDGE_WIDTH + 0.01) ** 2)
        box.append(slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0))
        parts.append(part[box[-1]])
    # separable, built by broadcast
    return tuple(box), parts[0][:, None, None] + parts[1][None, :, None] + parts[2][None, None, :]


def _edge_profile(rho2: np.ndarray, width: float) -> np.ndarray:
    # 1 inside, cosine rolloff across [1-width, 1+width] in rho, 0 outside
    rho = np.sqrt(rho2)
    t = np.clip((rho - (1.0 - width)) / (2.0 * width), 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * t))


def generate_phantom(spec: PhantomSpec) -> PhantomCase:
    """Build one phantom deterministically from its spec.

    The noise is the only random draw, so the same seed always yields a
    bitwise-identical case. Each structure's mask and edge profile and
    each marker are computed on their own box only: outside it they are
    exactly 0, and the background plus 0.0 is the background. The masks
    are Fortran-ordered (x-fastest, the file order), so they are written
    without a copy; the image is C-ordered.
    """
    structures = [_rho_squared(spec, center) for center in spec.structure_centers_mm()]
    masks = []
    for box, rho2 in structures:
        mask = np.zeros(spec.dims, dtype=bool, order="F")  # x-fastest, as written and read
        mask[box] = rho2 <= 1.0
        masks.append(mask)
    left_mask, right_mask = masks
    if not left_mask.any() or not right_mask.any():
        raise InfeasibleSpecError("a structure lies outside the volume")

    truth_left, truth_right = spec.target_positions()
    for truth, mask in ((truth_left, left_mask), (truth_right, right_mask)):
        idx = tuple(int(round(p)) for p in truth.position)
        # bounds first: a negative index would silently wrap around the grid
        if not all(0 <= i < d for i, d in zip(idx, spec.dims)) or not mask[idx]:
            raise InfeasibleSpecError(f"target {truth.position} fell outside its mask")

    # background + amplitude * max(left, right) profile; rounding is monotone,
    # so the max of the two structures' levels gives the same bits
    amplitude = STRUCTURE_INTENSITY - BACKGROUND_INTENSITY
    img = np.full(spec.dims, BACKGROUND_INTENSITY)
    for box, rho2 in structures:
        img[box] = np.maximum(img[box], BACKGROUND_INTENSITY + amplitude * _edge_profile(rho2, EDGE_WIDTH))

    marker = HeatmapSpec(sigma_mm=MARKER_SIGMA_MM, cutoff=0.004, peak=1.0)
    for truth in (truth_left, truth_right):
        h = gaussian_heatmap(marker, TargetPoint(truth.position), spec.dims, SPACING)
        img[h.support] += MARKER_AMPLITUDE * h.block

    if spec.noise_std > 0:
        img += np.random.default_rng(spec.seed).normal(0.0, spec.noise_std, spec.dims)

    image = rescale_intensity(Volume3(img, SPACING))
    del img  # one float64 grid fewer in flight while the float32 image is made
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


def _case_specs(n: int, n_hard: int, seed: int, base_spec: PhantomSpec | None) -> list[tuple[int, PhantomSpec, bool]]:
    """(case id, spec, hard) for each case of a cohort, in id order."""
    if n < 1:
        raise ValueError(f"cohort size must be >= 1, got {n}")
    base = base_spec or PhantomSpec()
    hard = set(hard_case_ids(n, n_hard, seed))
    return [(i, cohort_case_spec(i, seed, base, i in hard), i in hard) for i in range(n)]


def iter_cohort(
    n: int,
    n_hard: int = 0,
    seed: int = 0,
    base_spec: PhantomSpec | None = None,
) -> Iterator[CohortEntry]:
    for case_id, spec, hard in _case_specs(n, n_hard, seed, base_spec):
        yield CohortEntry(case_id, generate_phantom(spec), hard)


def write_cohort(
    out_dir: str | Path,
    n: int,
    n_hard: int = 0,
    seed: int = 0,
    base_spec: PhantomSpec | None = None,
    meta: dict | None = None,
) -> dict:
    """Generate a cohort to disk and return the written manifest.

    Cases are built and written on one thread per usable core, up to
    ``n``; each thread does whole cases. Every case depends only on its
    spec, so the files are the same bits at any thread count. The noise
    draw, numpy's arithmetic and the file writes release the GIL. Each
    case's masks are x-fastest and written with no copy. The manifest is
    written, in id order, only after every case has been written. If a
    case fails, the cases not yet started are dropped, the threads are
    joined, and the lowest failing id's error is raised with no manifest
    written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = _case_specs(n, n_hard, seed, base_spec)

    def write_case(entry: tuple[int, PhantomSpec, bool]) -> dict:
        case_id, spec, hard = entry
        case = generate_phantom(spec)
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
        return {
            "id": case_id,
            "files": files,
            "truth_targets": {
                "left": list(case.truth_left.position),
                "right": list(case.truth_right.position),
            },
            "hard": hard,
            "spec": asdict(case.spec),
        }

    # leaving the block joins every thread; map's iterator cancels the cases not yet started
    with ThreadPoolExecutor(min(n, usable_cores()), thread_name_prefix="voxloc-case") as pool:
        cases = list(pool.map(write_case, specs))
    manifest = {"seed": seed, "n": n, "n_hard": n_hard, "cases": cases}
    if meta:
        manifest.update(meta)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest

