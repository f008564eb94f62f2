"""Continued-fraction regression with penalized additive spline layers.

The root holds what a user of the model document needs: fit a model, save
it, load it, and predict. Every other name lives in its module and is
internal.
"""

from .cfr_core import CFracModel, FitConfig, deserialize, fit, serialize
from .data_io import load_csv
from .errors import DataError, ModelFormatError, SplineCfrError, TrainingRmseWarning

__version__ = "0.1.0"

__all__ = [
    "CFracModel",
    "DataError",
    "FitConfig",
    "ModelFormatError",
    "SplineCfrError",
    "TrainingRmseWarning",
    "deserialize",
    "fit",
    "load_csv",
    "serialize",
]
