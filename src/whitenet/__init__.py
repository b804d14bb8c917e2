"""System identification with residual-whitening training losses."""

__version__ = "0.1.0"

from .numerics import RngState

__all__ = [
    "RngState",
    "__version__",
]
