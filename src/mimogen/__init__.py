"""mimogen: deterministic geometric mmWave/massive-MIMO channel dataset
generator with an image-method ray tracer and beam-prediction exports.

The public names below are imported from their modules on first use
(PEP 562), so ``import mimogen`` and the subcommands that need no arrays
do not import numpy.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.1.0"

_MODULES = {
    "scene": ("Building", "BaseStation", "Scene", "SceneConfigError", "UserGrid",
              "build_o1_scene", "enumerate_users", "users_in_row_range"),
    "rayio": ("PathList", "PathRecord"),
    "tracer": ("mirror_point", "path_phase", "path_power", "trace_paths"),
    "params": ("ParamSet", "parse_params", "subcarrier_set"),
    "channel": ("ChannelMatrix", "array_response", "channel_matrix"),
    "dataset": ("Dataset", "build_dataset", "get_channel", "get_location", "write_shards"),
    "beams": ("BeamEvalConfig", "Codebook", "achievable_rate", "best_beam", "dft_codebook",
              "omni_feature", "write_ml_dataset"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str) -> Any:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
