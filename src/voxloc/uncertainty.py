"""Sampling-based uncertainty: dropout passes, augmentation passes, MAD.

One sampler serves all three modes. Each mode fixes two switches: whether
a sample is augmented and whether the predictor is stochastic. Sample
``i`` is seeded with ``base_seed + i``, and every sample is drawn with
the localizer's ``sample`` from a ``prepare``d state:

* mcdo: stochastic predictor on the untransformed input, prepared once
  for all N samples (a failed ``prepare`` is sample 0's failure). A
  caller that already holds that state passes it as ``state``: an mcdo
  row of ``cmd_run`` samples the state the pipeline prepared for its
  baseline, so it prepares nothing. With ``ConvNetLocalizer`` a case
  therefore holds both sides' prefix activations until its rows finish.
* tta: draw a rigid + intensity transform, undo it on the input (spatial
  inverse with trilinear resampling, then the intensity inverse),
  prepare that input on its own and sample deterministically, and map
  the heatmap back through the forward spatial transform.
* hybrid: the augmentation chain with the stochastic predictor, so both
  randomness sources are active.

The N heatmaps (all in the original orientation) reduce to a voxelwise
mean and population variance, per-sample argmax positions, their
centroid, and the mean distance of the positions from that centroid (the
dispersion score used for rejection). The final target of a run is the
argmax of the mean map.

A sample costs its heatmap's support, not the crop. ``gaussian_heatmap``
returns a volume that holds only the block it computes, so an mcdo
sample never fills or scans the 64^3 grid: the argmax and the two
running sums read the values in its ``Volume3.support`` box straight
from that block. In tta and hybrid the warp back also computes and
holds only the block the box can reach. The mean and variance are
computed only inside the union of the sample boxes and held as that
block, and the final target's argmax scans only that union. A heatmap
that fills the crop, or one whose support touches a face of it, gets
the whole grid and runs the full passes; an all-zero one adds nothing
and scans the grid for its argmax. The outputs are the same bits as the
full passes give.

tta and hybrid draw their samples on the calling thread plus one helper
thread per further core the process may use, as a sample's warps,
intensity inverse and detection run in C with the GIL released. Each
sample depends only on its seed, and the samples are consumed in index
order, so the sums, positions, MAD, final target and the index of a
reported failure do not depend on how many threads drew them. mcdo
stays on the calling thread: its samples are short Python work on one
prepared state. A thread that set ``DRAW_ALONE`` (a ``cmd_run
--workers N`` case thread) also draws alone, since its sibling case
threads hold the cores. The helper costs about 11 MiB of peak RSS (its
malloc arena) and a finished sample or two in flight; with
``ConvNetLocalizer`` a hybrid run holds two samples' activations at once.
"""

from __future__ import annotations

import contextvars
import operator
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from voxloc.heatmap import TargetPoint, argmax_position
from voxloc.predictors import Localizer
from voxloc.transforms import TransformPriors, intensity_apply_inverse, rigid_apply, sample_transform
from voxloc.volume import Volume3, _from_block, _support_values

__all__ = [
    "SamplingError",
    "McConfig",
    "UncertaintySummary",
    "mean_variance",
    "mad",
    "run_mcdo",
    "run_tta",
    "run_mode",
    "BoxplotStats",
    "rejection_stats",
]

# mode -> (augment the input, stochastic predictor)
_SWITCHES = {"mcdo": (False, True), "tta": (True, False), "hybrid": (True, True)}
MODES = tuple(_SWITCHES)
# True in a thread whose sibling threads hold the cores (a cmd_run case thread): it draws samples alone
DRAW_ALONE = contextvars.ContextVar("DRAW_ALONE", default=False)


class SamplingError(Exception):
    """A Monte Carlo pass failed; carries the sample index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"sample {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class McConfig:
    """Settings for one uncertainty run."""

    mode: str = "mcdo"
    n_samples: int = 100
    priors: TransformPriors = field(default_factory=TransformPriors)
    base_seed: int = 0
    keep_samples: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if isinstance(self.n_samples, bool):
            raise ValueError(f"n_samples must be an integer, got {self.n_samples!r}")
        try:
            n_samples = operator.index(self.n_samples)
        except TypeError:
            raise ValueError(f"n_samples must be an integer, got {self.n_samples!r}") from None
        if n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {n_samples}")
        object.__setattr__(self, "n_samples", n_samples)


@dataclass(frozen=True)
class UncertaintySummary:
    """Aggregated output of one uncertainty run."""

    mode: str
    n_samples: int
    base_seed: int
    sample_heatmaps: tuple[Volume3, ...] | None
    mean_map: Volume3
    variance_map: Volume3
    argmax_positions: np.ndarray
    centroid: tuple[float, float, float]
    mad: float
    final_target: TargetPoint


class _Accumulator:
    """Streaming sum/sum-of-squares reduction over sample heatmaps.

    Both sums start as zeros and each sample adds only its ``support``
    box. Outside the box the sample is 0, and 0.0 + x is x, so the sums
    equal the dense sums bit for bit (a voxel that is 0 in every sample
    sums to +0.0). ``finalize`` reduces only the union of the boxes:
    outside it, 0/n and 0 - 0*0 are the +0.0 the dense passes give.
    """

    def __init__(self):
        self.n = 0
        self.total = None
        self.total_sq = None
        self.spacing = None
        self.dims = None
        self.union = None  # of the sample boxes

    def add(self, v: Volume3) -> None:
        if self.total is None:
            self.total = np.zeros(v.dims)
            self.total_sq = np.zeros(v.dims)
            self.spacing = v.spacing
            self.dims = v.dims
        elif v.dims != self.dims:
            raise ValueError(f"sample dims {v.dims} do not match {self.dims}")
        found = _support_values(v)
        if found is not None:
            box, block = found
            block = block.astype(np.float64, copy=False)
            self.total[box] += block
            self.total_sq[box] += block * block
            if self.union is not None:
                box = tuple(slice(min(u.start, b.start), max(u.stop, b.stop)) for u, b in zip(self.union, box))
            self.union = box
        self.n += 1

    def finalize(self) -> tuple[Volume3, Volume3]:
        union = self.union or (slice(0, 0),) * 3
        mean = self.total[union] / self.n
        var = self.total_sq[union] / self.n - mean * mean
        np.maximum(var, 0.0, out=var)  # rounding can leave tiny negatives
        return _from_block(mean, union, self.dims, self.spacing), _from_block(var, union, self.dims, self.spacing)


def mean_variance(samples: Sequence[Volume3]) -> tuple[Volume3, Volume3]:
    """Voxelwise mean and population variance of a sample stack."""
    if len(samples) < 2:
        raise ValueError(f"need at least 2 samples, got {len(samples)}")
    acc = _Accumulator()
    for s in samples:
        acc.add(s)
    return acc.finalize()


def mad(positions) -> float:
    """Mean Euclidean distance of positions from their centroid."""
    pts = np.asarray(positions, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("mad of an empty position set")
    pts = pts.reshape(-1, 3)
    centroid = pts.mean(axis=0)
    return float(np.linalg.norm(pts - centroid, axis=1).mean())


def _sample_threads(n_samples: int) -> int:
    """Threads that draw augmented samples: the calling one plus one helper per further core.

    A thread that set ``DRAW_ALONE`` (a ``cmd_run --workers N`` case
    thread) draws alone, since its sibling case threads hold the cores.
    """
    if DRAW_ALONE.get():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity masks
        cpus = os.cpu_count() or 1
    return min(n_samples, cpus)


def _draw(sample_fn: Callable[[int], Volume3], i: int) -> Volume3:
    try:
        return sample_fn(i)
    except Exception as exc:  # noqa: BLE001 - re-raised with the index
        raise SamplingError(i, str(exc)) from exc


def _aggregate(cfg: McConfig, sample_fn: Callable[[int], Volume3], threads: int = 1) -> UncertaintySummary:
    # Sample i is drawn by a helper thread when i % threads != 0, else by
    # this thread, and samples are consumed in index order, so the sums,
    # positions and the reported failure are those of a serial loop. Helpers
    # run at most two rounds ahead, which bounds the finished samples held.
    acc = _Accumulator()
    kept = [] if cfg.keep_samples else None
    positions = np.empty((cfg.n_samples, 3), dtype=np.float64)
    pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="voxloc-sample") if threads > 1 else None
    pending: dict[int, Future] = {}
    submitted = 0
    try:
        for i in range(cfg.n_samples):
            while pool is not None and submitted < min(cfg.n_samples, i + 2 * threads):
                if submitted % threads:
                    pending[submitted] = pool.submit(_draw, sample_fn, submitted)
                submitted += 1
            sample = pending.pop(i).result() if i in pending else _draw(sample_fn, i)
            acc.add(sample)
            positions[i] = argmax_position(sample).as_array
            if kept is not None:
                kept.append(sample)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    mean_map, variance_map = acc.finalize()
    centroid = positions.mean(axis=0)
    return UncertaintySummary(
        mode=cfg.mode,
        n_samples=cfg.n_samples,
        base_seed=cfg.base_seed,
        sample_heatmaps=tuple(kept) if kept is not None else None,
        mean_map=mean_map,
        variance_map=variance_map,
        argmax_positions=positions,
        centroid=tuple(float(c) for c in centroid),
        mad=mad(positions),
        final_target=argmax_position(mean_map),
    )


def _augmented_sample(
    loc: Localizer, v: Volume3, seed: int, priors: TransformPriors, stochastic: bool
) -> Volume3:
    """One augmented sample: each transformed input is prepared on its own."""
    tf, curve = sample_transform(priors, seed)
    undone = rigid_apply(tf.invert(), v, interpolation="trilinear")
    latent = intensity_apply_inverse(curve, undone)
    heat = loc.sample(loc.prepare(latent), stochastic, seed)
    return rigid_apply(tf, heat, interpolation="trilinear")


def run_mode(loc: Localizer, v: Volume3, cfg: McConfig, state=None) -> UncertaintySummary:
    """Sample and aggregate with the switches of cfg.mode.

    ``state`` is ``loc.prepare(v)`` when the caller already holds it, as
    the pipeline does (``SideResult.state``): mcdo then samples from it
    instead of preparing ``v`` again. tta and hybrid prepare each
    augmented input and do not read it.
    """
    augment, stochastic = _SWITCHES[cfg.mode]
    if augment:
        return _aggregate(
            cfg,
            lambda i: _augmented_sample(loc, v, cfg.base_seed + i, cfg.priors, stochastic),
            _sample_threads(cfg.n_samples),
        )
    # every sample sees the same input: prepare it once
    if state is None:
        try:
            state = loc.prepare(v)
        except Exception as exc:  # noqa: BLE001 - re-raised as the first sample's failure
            raise SamplingError(0, str(exc)) from exc
    return _aggregate(cfg, lambda i: loc.sample(state, stochastic, cfg.base_seed + i))


def _run_expecting(mode: str, loc: Localizer, v: Volume3, cfg: McConfig) -> UncertaintySummary:
    if cfg.mode != mode:
        raise ValueError(f"config mode is {cfg.mode!r}, expected {mode!r}")
    return run_mode(loc, v, cfg)


def run_mcdo(loc: Localizer, v: Volume3, cfg: McConfig) -> UncertaintySummary:
    """Stochastic predictor passes on the untransformed input."""
    return _run_expecting("mcdo", loc, v, cfg)


def run_tta(loc: Localizer, v: Volume3, cfg: McConfig) -> UncertaintySummary:
    """Augmentation passes with the deterministic predictor."""
    return _run_expecting("tta", loc, v, cfg)


# ---------------------------------------------------------------------------
# rejection statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxplotStats:
    """Tukey five-point summary with the upper rejection fence."""

    n: int
    q1: float
    median: float
    q3: float
    iqr: float
    fence: float
    upper_whisker: float
    flagged: tuple[int, ...]


def rejection_stats(values: Iterable[float]) -> BoxplotStats:
    """Flag values above Q3 + 1.5*IQR (linear-interpolation quantiles)."""
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.ndim != 1 or len(vals) < 4:
        raise ValueError(f"need at least 4 scalar values, got {vals.shape}")
    q1, median, q3 = (float(q) for q in np.percentile(vals, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    fence = q3 + 1.5 * iqr
    below = vals[vals <= fence]
    upper_whisker = float(below.max())
    flagged = tuple(int(i) for i in np.flatnonzero(vals > fence))
    return BoxplotStats(
        n=len(vals),
        q1=q1,
        median=median,
        q3=q3,
        iqr=iqr,
        fence=fence,
        upper_whisker=upper_whisker,
        flagged=flagged,
    )
