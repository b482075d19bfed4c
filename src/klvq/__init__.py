"""Supervised vector quantization by KL-divergence minimization."""

from .bof import (
    EvalReport,
    FeatureBag,
    build_histogram,
    class_mode_layout,
    classify_1nn,
    evaluate,
    generate_synthetic,
)
from .divergence import SmoothingConfig, kl_divergence, kl_matrix, objective, smooth
from .errors import (
    DatasetFormatError,
    DomainError,
    KlvqError,
    ModelFormatError,
    ParameterError,
)
from .fileio import (
    load_bags,
    load_dataset,
    load_feature_matrix,
    load_model,
    save_bags,
    save_dataset,
    save_model,
)
from .kmeans import KmeansModel, kmeans_assign, kmeans_fit
from .label_model import (
    KnnConfig,
    LabeledDataset,
    estimate_all,
    knn_indices,
    label_distributions,
)
from .partition import Partition, repair_empty
from .quantizer import (
    QuantizerConfig,
    QuantizerModel,
    assign_step,
    fit,
    init_partition,
    quantize,
    update_subset_distributions,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetFormatError",
    "DomainError",
    "EvalReport",
    "FeatureBag",
    "KlvqError",
    "KmeansModel",
    "KnnConfig",
    "LabeledDataset",
    "ModelFormatError",
    "ParameterError",
    "Partition",
    "QuantizerConfig",
    "QuantizerModel",
    "SmoothingConfig",
    "assign_step",
    "build_histogram",
    "class_mode_layout",
    "classify_1nn",
    "estimate_all",
    "evaluate",
    "fit",
    "generate_synthetic",
    "init_partition",
    "kl_divergence",
    "kl_matrix",
    "kmeans_assign",
    "kmeans_fit",
    "knn_indices",
    "label_distributions",
    "load_bags",
    "load_dataset",
    "load_feature_matrix",
    "load_model",
    "objective",
    "quantize",
    "repair_empty",
    "save_bags",
    "save_dataset",
    "save_model",
    "smooth",
    "update_subset_distributions",
]
