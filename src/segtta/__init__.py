"""segtta: training-free test-time-augmentation ensembling for volumetric
semantic segmentation.

The pipeline perturbs an input volume with four intensity augmentations
(gamma, contrast, blur, noise), collects probability maps from pluggable
segmentation backends on every view, fuses them with confidence-weighted
threshold voting, and evaluates with IoU/Dice (per-class, mean, agnostic)
and the 95th percentile Hausdorff distance.
"""

from .config import (
    BackendDescriptor,
    DatasetManifest,
    ManifestEntry,
    RunConfig,
    load_config,
    load_manifest,
)
from .core import (
    AugmentationSpec,
    LabelMask,
    ProbabilityMap,
    Spacing,
    Volume,
    default_augmentations,
    normalize_intensity,
)
from .augment import (
    apply,
    contrast_enhancement,
    gamma_correction,
    gaussian_blur,
    gaussian_noise,
)
from .backends import predict
from .fusion import (
    FusionInput,
    foreground_volume,
    fuse,
)
from .metrics import (
    CaseScorer,
    MetricReport,
    distance_transform,
    evaluate,
    hd95,
    overlap_metrics,
    surface_voxels,
)
from .nifti import (
    NiftiHeader,
    read_header,
    read_label_mask,
    read_probability_map,
    read_volume,
    write_label_mask,
    write_probability_map,
    write_volume,
)
from .phantoms import make_blob_mask, make_phantom, write_phantom_dataset
from .pipeline import (
    PredictionCache,
    RunResult,
    run_ablation,
    run_segtta,
    run_threshold_sweep,
)
from .report import emit_report, render
from .rng import SeededRng

__version__ = "0.1.0"

__all__ = [
    "AugmentationSpec",
    "BackendDescriptor",
    "CaseScorer",
    "DatasetManifest",
    "FusionInput",
    "LabelMask",
    "ManifestEntry",
    "MetricReport",
    "NiftiHeader",
    "PredictionCache",
    "ProbabilityMap",
    "RunConfig",
    "RunResult",
    "SeededRng",
    "Spacing",
    "Volume",
    "apply",
    "contrast_enhancement",
    "default_augmentations",
    "distance_transform",
    "emit_report",
    "evaluate",
    "foreground_volume",
    "fuse",
    "gamma_correction",
    "gaussian_blur",
    "gaussian_noise",
    "hd95",
    "load_config",
    "load_manifest",
    "make_blob_mask",
    "make_phantom",
    "normalize_intensity",
    "overlap_metrics",
    "predict",
    "read_header",
    "read_label_mask",
    "read_probability_map",
    "read_volume",
    "render",
    "run_ablation",
    "run_segtta",
    "run_threshold_sweep",
    "surface_voxels",
    "write_label_mask",
    "write_phantom_dataset",
    "write_probability_map",
    "write_volume",
]
