"""Temporal knowledge-graph completion: complex tensor factorisation models
(TComplEx, TNTComplEx, ChronoR) with a pluggable family of temporal
regularizers, trained by mini-batch Adam and evaluated with filtered ranking
metrics.

The public names below load their module on first access, so that
``import tkgc.cli`` does not import numpy: the command line sets the BLAS
thread caps first, and BLAS reads them only when numpy loads it.
"""

import importlib

_EXPORTS = {
    "core": (
        "DatasetSplits", "Vocabulary", "complex_trilinear", "conjugate",
        "inverse_relation",
    ),
    "datasets": (
        "FilterIndex", "RawFact", "augment_reciprocal", "build_dataset",
        "build_filter_index", "group_yago_relations", "load_dataset",
        "parse_icews", "parse_yago15k", "save_dataset",
    ),
    "evaluation": ("Metrics", "evaluate", "rank_query"),
    "models": (
        "ModelParams", "ModelSpec", "init_params", "load_checkpoint",
        "param_count", "save_checkpoint", "score", "score_all_objects",
    ),
    "regularizers": (
        "RecurrentParams", "TemporalRegSpec", "linear3",
        "norm_curve", "recurrent_generate", "temporal_lp", "temporal_np",
    ),
    "training": (
        "TrainConfig", "TrainState", "adam_step", "batch_loss",
        "gradient_check", "grid_search", "train",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
