"""Pluggable predictors: segmenters and localizers for the pipeline.

Three localizer families cover the testing needs of the uncertainty
machinery. Each splits a prediction into ``prepare`` (the deterministic
work on one input) and ``sample`` (the seeded rest), and ``predict`` is
their composition:

* ``ConvNetLocalizer``: a miniature forward-only 3-D conv stack with
  inference-time inverted dropout, exercising real Monte Carlo dropout
  mechanics with loadable or seeded weights.
* ``OracleLocalizer`` / ``MarkerLocalizer``: controlled test doubles
  that emit a Gaussian heatmap at a known target with configurable
  positional jitter and a spurious-peak failure mode. The marker variant
  finds its target from the volume content (the brightest compact blob),
  which makes it equivariant under spatial augmentation.
* ``EchoLocalizer``: returns its input, handy for chain-reduction tests.

Segmentation is stage-1 plumbing here, so ``TruthMaskSegmenter`` hands
the pipeline known phantom masks as its two boolean foreground masks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

import numpy as np
from scipy import ndimage, special

from voxloc.heatmap import HeatmapSpec, TargetPoint, gaussian_heatmap
from voxloc.volume import Volume3, downsample_to

__all__ = [
    "Localizer",
    "Segmenter",
    "InvalidModelError",
    "ConvNetSpec",
    "ConvNetLocalizer",
    "apply_inverted_dropout",
    "save_weights",
    "OracleLocalizerConfig",
    "oracle_localize",
    "OracleLocalizer",
    "MarkerLocalizer",
    "EchoLocalizer",
    "TruthMaskSegmenter",
]


class InvalidModelError(Exception):
    """Weight data does not match the declared network layout."""


@runtime_checkable
class Localizer(Protocol):
    """Heatmap predictor: single channel, same dims as the input.

    A prediction runs in two halves. ``prepare`` does the deterministic
    work that depends only on the input and returns an opaque state;
    ``sample`` does the seeded rest. ``predict`` is
    ``sample(prepare(v), stochastic, seed)``, so a sampler that draws
    many passes over one input prepares it once.

    Contracts every implementation must honor:
    * ``stochastic=False``: identical output for identical input,
      bit-reproducible regardless of seed.
    * ``stochastic=True``: output is a deterministic function of
      (input, seed).
    * ``sample`` never writes into the state: one state serves any
      number of samples.
    * ``prepare`` and ``sample`` may run concurrently from several
      threads on different inputs (``cmd_run`` case threads share one
      localizer, and tta and hybrid draw samples on helper threads),
      so neither may write into the localizer itself.
    """

    def prepare(self, v: Volume3) -> Any: ...

    def sample(self, state: Any, stochastic: bool = False, seed: int = 0) -> Volume3: ...

    def predict(self, v: Volume3, stochastic: bool = False, seed: int = 0) -> Volume3: ...


@runtime_checkable
class Segmenter(Protocol):
    """Stage-1 foreground masks ``(left, right)`` on a ``dims`` grid.

    Each mask is a boolean array shaped ``dims`` that covers the scan's
    physical extent; the segmenter owns the foreground decision, as a
    trained network's own threshold or argmax would, and the pipeline
    rejects any other mask with ``TypeError``. The pipeline passes
    the native scan: a segmenter that reads its values resamples it
    itself, as a trained stage-1 network would with
    ``downsample_to(image, dims, "trilinear")``.
    """

    def predict(self, image: Volume3, dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]: ...


class _TwoStageLocalizer:
    """``predict`` as ``sample(prepare(v))``; subclasses define the halves."""

    def predict(self, v: Volume3, stochastic: bool = False, seed: int = 0) -> Volume3:
        return self.sample(self.prepare(v), stochastic, seed)


# ---------------------------------------------------------------------------
# miniature conv network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvNetSpec:
    """Layout of the plain 3-D conv stack.

    ``channels`` lists the output channels of each layer; the input is
    single-channel and the final layer must emit one channel, bounded to
    [0, 1] by a sigmoid. ``dropout_layers`` defaults to the deepest half
    of the hidden layers (the half adjacent to the output).
    """

    channels: tuple[int, ...] = (8, 16, 16, 8, 1)
    kernel_size: int = 3
    dropout_rate: float = 0.5
    dropout_layers: tuple[int, ...] | None = None

    def __post_init__(self):
        channels = tuple(int(c) for c in self.channels)
        if len(channels) < 2 or any(c < 1 for c in channels):
            raise ValueError(f"channels must be >= 2 positive entries, got {channels}")
        if channels[-1] != 1:
            raise ValueError("final layer must emit a single heatmap channel")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {self.kernel_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0,1), got {self.dropout_rate}")
        object.__setattr__(self, "channels", channels)
        n_hidden = len(channels) - 1
        if self.dropout_layers is None:
            layers = tuple(range(n_hidden - n_hidden // 2, n_hidden))
        else:
            layers = tuple(int(i) for i in self.dropout_layers)
            if any(i < 0 or i >= n_hidden for i in layers):
                raise ValueError(f"dropout layers must index hidden layers, got {layers}")
        object.__setattr__(self, "dropout_layers", layers)

    @property
    def layer_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(weight shape, bias shape) per layer."""
        k = self.kernel_size
        in_ch = (1,) + self.channels[:-1]
        return [
            ((c_out, c_in, k, k, k), (c_out,))
            for c_in, c_out in zip(in_ch, self.channels)
        ]


def apply_inverted_dropout(x: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Zero units with the given probability and scale survivors by 1/(1-rate)."""
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate)


def _conv3d_same(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    # x: (c_in, nx, ny, nz); weight: (c_out, c_in, k, k, k)
    c_out = weight.shape[0]
    out = np.empty((c_out,) + x.shape[1:], dtype=np.float64)
    for o in range(c_out):
        acc = np.zeros(x.shape[1:], dtype=np.float64)
        for i in range(x.shape[0]):
            acc += ndimage.correlate(x[i], weight[o, i], mode="constant", cval=0.0)
        out[o] = acc + bias[o]
    return out


class ConvNetLocalizer(_TwoStageLocalizer):
    """Forward-only conv stack with seeded or file-backed weights.

    ``prepare`` runs conv+ReLU up to and including the first dropout
    layer (every hidden layer when there is none); its activations are
    read-only. ``sample`` applies that layer's dropout when stochastic
    and runs the rest of the stack, drawing the masks layer by layer
    from ``default_rng(seed)``.
    """

    def __init__(self, spec: ConvNetSpec, weights: list[tuple[np.ndarray, np.ndarray]]):
        expected = spec.layer_shapes
        if len(weights) != len(expected):
            raise InvalidModelError(
                f"expected {len(expected)} layers, got {len(weights)}"
            )
        for i, ((w, b), (w_shape, b_shape)) in enumerate(zip(weights, expected)):
            if tuple(w.shape) != w_shape or tuple(b.shape) != b_shape:
                raise InvalidModelError(
                    f"layer {i}: weight/bias shapes {w.shape}/{b.shape} "
                    f"do not match spec {w_shape}/{b_shape}"
                )
        self.spec = spec
        self.weights = [(w.astype(np.float64), b.astype(np.float64)) for w, b in weights]
        # prepare runs layers [0, _split): through the first dropout layer, else every hidden one
        layers = spec.dropout_layers
        self._split = min(layers) + 1 if layers else len(weights) - 1

    @classmethod
    def from_seed(cls, spec: ConvNetSpec, seed: int = 0) -> "ConvNetLocalizer":
        """Xavier-style uniform initialization driven by the seed."""
        rng = np.random.default_rng(seed)
        weights = []
        for w_shape, b_shape in spec.layer_shapes:
            fan_in = w_shape[1] * spec.kernel_size**3
            fan_out = w_shape[0] * spec.kernel_size**3
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append((rng.uniform(-limit, limit, w_shape), np.zeros(b_shape)))
        return cls(spec, weights)

    @classmethod
    def from_file(cls, spec: ConvNetSpec, manifest_path: str | Path) -> "ConvNetLocalizer":
        return cls(spec, load_weights(manifest_path))

    def prepare(self, v: Volume3) -> tuple[np.ndarray, tuple[float, float, float]]:
        x = v.data.astype(np.float64, copy=False)[None]
        for w, b in self.weights[: self._split]:
            x = _conv3d_same(x, w, b)
            np.maximum(x, 0.0, out=x)
        x.setflags(write=False)
        return x, v.spacing

    def sample(
        self, state: tuple[np.ndarray, tuple[float, float, float]], stochastic: bool = False, seed: int = 0
    ) -> Volume3:
        x, spacing = state
        rng = np.random.default_rng(seed) if stochastic else None
        split = self._split
        if stochastic and split - 1 in self.spec.dropout_layers:
            x = apply_inverted_dropout(x, self.spec.dropout_rate, rng)
        last = len(self.weights) - 1
        for i in range(split, last + 1):
            w, b = self.weights[i]
            x = _conv3d_same(x, w, b)
            if i == last:
                x = special.expit(x)
            else:
                np.maximum(x, 0.0, out=x)
                if stochastic and i in self.spec.dropout_layers:
                    x = apply_inverted_dropout(x, self.spec.dropout_rate, rng)
        return Volume3(x[0], spacing)


def save_weights(net: ConvNetLocalizer, manifest_path: str | Path) -> None:
    """Write weights as a JSON shape manifest plus raw little-endian f32 payload."""
    manifest_path = Path(manifest_path)
    manifest = {
        "dtype": "f32",
        "layers": [
            {"weight": list(w.shape), "bias": list(b.shape)} for w, b in net.weights
        ],
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    chunks = []
    for w, b in net.weights:
        chunks.append(w.astype("<f4").ravel())
        chunks.append(b.astype("<f4").ravel())
    manifest_path.with_suffix(".raw").write_bytes(np.concatenate(chunks).tobytes())


def load_weights(manifest_path: str | Path) -> list[tuple[np.ndarray, np.ndarray]]:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise InvalidModelError(f"weight manifest {manifest_path} is not a JSON object")
    if manifest.get("dtype") != "f32":
        raise InvalidModelError(f"unsupported weight dtype {manifest.get('dtype')!r}")
    raw = manifest_path.with_suffix(".raw").read_bytes()
    layers = manifest.get("layers", [])
    if not isinstance(layers, list) or not all(isinstance(layer, dict) for layer in layers):
        raise InvalidModelError(f"layers must be a list of objects, got {layers!r} in {manifest_path}")
    for layer in layers:
        for key in ("weight", "bias"):
            dims = layer.get(key)
            if not isinstance(dims, list) or not all(type(n) is int and n >= 1 for n in dims):
                raise InvalidModelError(
                    f"layer {key} dims must be a list of integers >= 1, got {dims!r} in {manifest_path}"
                )
    # Python ints: a product past int64 cannot wrap the count as np.prod would
    total = sum(math.prod(layer["weight"]) + math.prod(layer["bias"]) for layer in layers)
    if len(raw) != total * 4:
        raise InvalidModelError(
            f"weight payload length mismatch: expected {total * 4} bytes, got {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f4")
    weights = []
    offset = 0
    for layer in layers:
        w_shape, b_shape = tuple(layer["weight"]), tuple(layer["bias"])
        w_size, b_size = math.prod(w_shape), math.prod(b_shape)
        w = flat[offset : offset + w_size].reshape(w_shape).astype(np.float64)
        offset += w_size
        b = flat[offset : offset + b_size].reshape(b_shape).astype(np.float64)
        offset += b_size
        weights.append((w, b))
    return weights


# ---------------------------------------------------------------------------
# oracle localizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleLocalizerConfig:
    """Controlled error model for localizer test doubles.

    ``jitter_std`` adds per-axis Gaussian position noise in stochastic
    mode; with probability ``failure_rate`` the heatmap is replaced by a
    spurious peak far from the target. A deterministic pass only fails
    when ``failure_rate`` is 1 (guaranteed failures must corrupt
    baselines too).
    """

    jitter_std: float = 0.0
    failure_rate: float = 0.0
    heatmap: HeatmapSpec = field(default_factory=HeatmapSpec)

    def __post_init__(self):
        if not 0 <= self.jitter_std < np.inf:  # NaN fails both comparisons
            raise ValueError(f"jitter_std must be finite and >= 0, got {self.jitter_std}")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure_rate must lie in [0,1], got {self.failure_rate}")


def _far_peak_deterministic(truth: np.ndarray, dims: np.ndarray) -> np.ndarray:
    # two fixed candidates near opposite corners; one is always far
    a = 0.15 * (dims - 1.0)
    b = 0.85 * (dims - 1.0)
    return a if np.linalg.norm(a - truth) >= np.linalg.norm(b - truth) else b


def _far_peak_random(truth: np.ndarray, dims: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    min_dist = max(8.0, float(dims.min()) / 3.0)
    for _ in range(100):
        cand = rng.uniform(0.0, dims - 1.0)
        if np.linalg.norm(cand - truth) >= min_dist:
            return cand
    return _far_peak_deterministic(truth, dims)  # pragma: no cover - tiny volumes only


def oracle_localize(
    cfg: OracleLocalizerConfig,
    truth: TargetPoint,
    v: Volume3,
    stochastic: bool = False,
    seed: int = 0,
) -> Volume3:
    """Gaussian heatmap at truth, with configured jitter/failures."""
    pos = truth.as_array
    dims = np.asarray(v.dims, dtype=np.float64)
    if np.any(pos < 0) or np.any(pos > dims - 1.0):
        raise ValueError(f"truth {truth.position} outside volume bounds {v.dims}")
    center = pos
    if stochastic:
        rng = np.random.default_rng(seed)
        if rng.uniform() < cfg.failure_rate:
            center = _far_peak_random(pos, dims, rng)
        elif cfg.jitter_std > 0:
            center = pos + rng.normal(0.0, cfg.jitter_std, size=3)
    elif cfg.failure_rate >= 1.0:
        center = _far_peak_deterministic(pos, dims)
    return gaussian_heatmap(cfg.heatmap, TargetPoint(tuple(center)), v.dims, v.spacing)


class OracleLocalizer(_TwoStageLocalizer):
    """Localizer bound to a fixed known target position."""

    def __init__(self, cfg: OracleLocalizerConfig, truth: TargetPoint):
        self.cfg = cfg
        self.truth = truth

    def prepare(self, v: Volume3) -> Volume3:
        return v

    def sample(self, state: Volume3, stochastic: bool = False, seed: int = 0) -> Volume3:
        return oracle_localize(self.cfg, self.truth, state, stochastic=stochastic, seed=seed)


# MarkerLocalizer's detection: smoothing width, and the half-width in voxels
# of the centroid window around the smoothed argmax
_MARKER_SMOOTH_SIGMA_MM = 1.0
_MARKER_REFINE_RADIUS = 2


class MarkerLocalizer(_TwoStageLocalizer):
    """Localizer that finds the brightest compact blob in the volume.

    Detection runs on a Gaussian-smoothed copy (argmax, then an
    intensity-weighted centroid over a small window for sub-voxel
    precision). Because the target is read from the content, predictions
    move with the image under spatial transforms, so the oracle behaves
    equivariantly in augmentation chains. The configured error model is
    applied on top of the detected position: ``prepare`` detects once,
    ``sample`` draws the error.
    """

    def __init__(self, cfg: OracleLocalizerConfig):
        self.cfg = cfg

    def detect(self, v: Volume3) -> TargetPoint:
        sigma_vox = [_MARKER_SMOOTH_SIGMA_MM / s for s in v.spacing]
        smooth = ndimage.gaussian_filter(v.data, sigma=sigma_vox, mode="nearest", output=np.float64)
        idx = np.unravel_index(int(np.argmax(smooth.ravel(order="F"))), v.dims, order="F")
        r = _MARKER_REFINE_RADIUS
        lo = [max(0, idx[a] - r) for a in range(3)]
        hi = [min(v.dims[a], idx[a] + r + 1) for a in range(3)]
        window = smooth[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
        weights = window - window.min()
        total = weights.sum()
        if total <= 0.0:
            return TargetPoint(tuple(float(i) for i in idx))
        grids = np.meshgrid(*(np.arange(lo[a], hi[a], dtype=np.float64) for a in range(3)), indexing="ij")
        centroid = tuple(float((g * weights).sum() / total) for g in grids)
        return TargetPoint(centroid)

    def prepare(self, v: Volume3) -> tuple[TargetPoint, Volume3]:
        return self.detect(v), v

    def sample(self, state: tuple[TargetPoint, Volume3], stochastic: bool = False, seed: int = 0) -> Volume3:
        detected, v = state
        return oracle_localize(self.cfg, detected, v, stochastic=stochastic, seed=seed)


class EchoLocalizer(_TwoStageLocalizer):
    """Returns the input volume as its heatmap. For chain-reduction tests."""

    def prepare(self, v: Volume3) -> Volume3:
        return v

    def sample(self, state: Volume3, stochastic: bool = False, seed: int = 0) -> Volume3:
        return state


# ---------------------------------------------------------------------------
# segmenters
# ---------------------------------------------------------------------------

def _binarize(v: Volume3, dims) -> np.ndarray:
    if v.dims != tuple(dims):
        v = downsample_to(v, dims, interpolation="nearest")
    return v.data > 0.5


class TruthMaskSegmenter:
    """Stage-1 stand-in that reads known masks.

    Masks are resampled (nearest) to the requested grid. A voxel that
    both masks hold belongs to neither side. The scan's values are never
    read, so the scan itself is not resampled.
    """

    def __init__(self, left_mask: Volume3, right_mask: Volume3):
        self.left_mask = left_mask
        self.right_mask = right_mask

    def predict(self, image: Volume3, dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
        left = _binarize(self.left_mask, dims)
        right = _binarize(self.right_mask, dims)
        return left & ~right, right & ~left
