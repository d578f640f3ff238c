"""Curve-kernel scope: exact in production, grid for the oracles.

The functional façade (:mod:`repro.curves.operations`) dispatches every
general min-plus operation on the *active kernel*:

``"exact"``
    The exact piecewise-linear algebra (:mod:`repro.curves.exact`):
    no horizon, no sampling pad, bit-identical across runs.  The only
    production kernel.
``"grid"``
    The sampled backend (:mod:`repro.curves.numeric`): uniform
    4096-point grids with rate-aware horizons and resolution-derived
    soundness pads.  Entered only through :func:`use_kernel` by the
    differential oracles, the golden corpus, benchmarks and tests.

The scope is thread-local, like the metrics registry's activation
(:mod:`repro.context.metrics`).  Outside every scope the kernel is
``"exact"``; no setting, flag or environment variable changes that.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["KERNELS", "current_kernel", "use_kernel"]

#: The valid kernel identifiers; "exact" is the production kernel.
KERNELS = ("exact", "grid")

_ACTIVE = threading.local()


def current_kernel() -> str:
    """The kernel active on this thread: the innermost
    :func:`use_kernel` scope, else ``"exact"``."""
    return getattr(_ACTIVE, "kernel", None) or "exact"


@contextmanager
def use_kernel(name: str):
    """Make *name* the active kernel on this thread for the block.

    Nested scopes stack (innermost wins).  Anything outside
    :data:`KERNELS` raises :class:`ValueError` — a misspelled (or
    retired, like ``auto``) kernel must fail loudly, not silently pick
    a backend.
    """
    if name not in KERNELS:
        raise ValueError(
            f"unknown curve kernel {name!r}; expected one of {KERNELS}")
    prev = getattr(_ACTIVE, "kernel", None)
    _ACTIVE.kernel = name
    try:
        yield name
    finally:
        _ACTIVE.kernel = prev
