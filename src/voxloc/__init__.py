"""Volumetric target localization with sampling-based uncertainty estimation.

The pieces compose in pipeline order: volumes and boxes, rigid and
intensity transforms, Gaussian target heatmaps, the predictor protocols,
the two-stage segment/crop/localize pipeline, repeated-sampling
dispersion estimates, and the synthetic phantom generator that feeds the
tests and the experiment commands.
"""

from voxloc.heatmap import HeatmapSpec, TargetPoint, argmax_position, gaussian_heatmap
from voxloc.phantom import PhantomCase, PhantomSpec, generate_phantom
from voxloc.pipeline import PipelineConfig, PipelineResult, run_pipeline
from voxloc.predictors import (
    ConvNetLocalizer,
    ConvNetSpec,
    Localizer,
    MarkerLocalizer,
    OracleLocalizer,
    OracleLocalizerConfig,
    Segmenter,
    TruthMaskSegmenter,
)
from voxloc.transforms import (
    IntensityCurve,
    RigidTransform,
    TransformPriors,
    intensity_apply,
    intensity_apply_inverse,
    rigid_apply,
    sample_transform,
)
from voxloc.uncertainty import (
    McConfig,
    UncertaintySummary,
    mad,
    mean_variance,
    rejection_stats,
    run_mcdo,
    run_mode,
    run_tta,
)
from voxloc.volume import Volume3, VoxelBox, crop_box, flip_lr, read_volume, write_volume

__version__ = "0.1.0"

__all__ = [
    "Volume3",
    "VoxelBox",
    "crop_box",
    "flip_lr",
    "read_volume",
    "write_volume",
    "RigidTransform",
    "IntensityCurve",
    "TransformPriors",
    "rigid_apply",
    "intensity_apply",
    "intensity_apply_inverse",
    "sample_transform",
    "HeatmapSpec",
    "TargetPoint",
    "gaussian_heatmap",
    "argmax_position",
    "Localizer",
    "Segmenter",
    "ConvNetSpec",
    "ConvNetLocalizer",
    "MarkerLocalizer",
    "OracleLocalizer",
    "OracleLocalizerConfig",
    "TruthMaskSegmenter",
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
    "McConfig",
    "UncertaintySummary",
    "run_mcdo",
    "run_tta",
    "run_mode",
    "mad",
    "mean_variance",
    "rejection_stats",
    "PhantomSpec",
    "PhantomCase",
    "generate_phantom",
    "__version__",
]
