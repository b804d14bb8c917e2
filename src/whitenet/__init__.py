"""System identification with residual-whitening training losses."""

__version__ = "0.1.0"

from .accel import NUMBA_ENABLED, backend_name
from .numerics import RngState

__all__ = [
    "NUMBA_ENABLED",
    "RngState",
    "__version__",
    "backend_name",
]
