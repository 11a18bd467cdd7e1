"""Localization-call control for mobile sensors: mobility model, closed-form
error analysis, tracking protocols (MAINT, MADRD, SFR, DVM) and the Monte
Carlo experiments that compare them."""

__version__ = "0.12.0"

from .errors import (
    BracketError,
    DegeneratePairError,
    ParameterError,
    StaleQueryError,
    UnsupportedMomentError,
)

__all__ = [
    "BracketError",
    "DegeneratePairError",
    "ParameterError",
    "StaleQueryError",
    "UnsupportedMomentError",
    "__version__",
]
