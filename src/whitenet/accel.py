"""Numba acceleration toggle.

Hot kernels in this package come in two flavours: a numba ``@njit`` build and
a pure-numpy fallback.  Which one runs is decided once, at import time:

* numba missing                      -> fallback
* ``WHITENET_NO_NUMBA=1`` in the env -> fallback (set it before importing)
* otherwise                          -> jitted kernels

``njit`` exported here is either the real decorator or an identity wrapper,
so kernel modules can decorate unconditionally.  ``whitenet bench`` times the
two builds against each other when numba is enabled, and the numpy build
alone otherwise; the test suite asserts they agree numerically.
"""

import os

ENV_FLAG = "WHITENET_NO_NUMBA"


def _env_disabled():
    return os.environ.get(ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


try:
    import numba as _numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - mirror has numba, but stay importable
    _numba = None
    HAVE_NUMBA = False

NUMBA_ENABLED = HAVE_NUMBA and not _env_disabled()


def njit(*args, **kwargs):
    """``numba.njit`` when enabled, identity decorator otherwise."""
    if NUMBA_ENABLED:
        return _numba.njit(*args, **kwargs)
    if args and callable(args[0]):
        return args[0]

    def deco(fn):
        return fn

    return deco


def backend_name():
    return "numba" if NUMBA_ENABLED else "numpy"
