"""Screen-content image segmentation by smooth + group-sparse decomposition.

Splits mixed-content images into a smooth background (a few low-frequency
DCT atoms per block) and a sparse, connected foreground (text/graphics),
and ships the evaluation harness and synthetic-data generator used to score
the segmenter.
"""

from .admm import (
    Decomposition,
    DivergenceError,
    SolverParams,
    objective,
    solve_blocks,
)
from .baseline import kmeans2_block, kmeans2_image
from .dct import BasisMatrix, build_basis
from .evaluation import (
    ManifestEntry,
    MaskMetrics,
    confusion,
    evaluate_dataset,
    load_manifest,
    metrics,
)
from .image_io import (
    BlockGrid,
    MalformedHeaderError,
    PnmError,
    TruncatedDataError,
    UnsupportedFormatError,
    load_gray,
    load_mask,
    save_gray,
    save_mask,
    stitch,
    tile,
)
from .segmentation import (
    SegmentationConfig,
    SegmentedImage,
    fill_background,
    reconstruct_layers,
    segment_image,
    segment_images,
)
from .synth import SynthSpec, gen_block, write_dataset

__version__ = "0.1.0"

__all__ = [
    "BasisMatrix",
    "BlockGrid",
    "Decomposition",
    "DivergenceError",
    "MalformedHeaderError",
    "ManifestEntry",
    "MaskMetrics",
    "PnmError",
    "SegmentationConfig",
    "SegmentedImage",
    "SolverParams",
    "SynthSpec",
    "TruncatedDataError",
    "UnsupportedFormatError",
    "build_basis",
    "confusion",
    "evaluate_dataset",
    "fill_background",
    "gen_block",
    "kmeans2_block",
    "kmeans2_image",
    "load_gray",
    "load_manifest",
    "load_mask",
    "metrics",
    "objective",
    "reconstruct_layers",
    "save_gray",
    "save_mask",
    "segment_image",
    "segment_images",
    "solve_blocks",
    "stitch",
    "tile",
    "write_dataset",
]
