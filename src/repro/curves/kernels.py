"""Curve-kernel selection: exact / grid.

The functional façade (:mod:`repro.curves.operations`) dispatches every
general min-plus operation on the *active kernel*:

``"exact"``
    The exact piecewise-linear algebra (:mod:`repro.curves.exact`):
    no horizon, no sampling pad, bit-identical across runs.  The
    default.
``"grid"``
    The legacy sampled backend (:mod:`repro.curves.numeric`): uniform
    4096-point grids with rate-aware horizons and resolution-derived
    soundness pads.  Kept as a differential-checking backend and for
    comparison benchmarks.

Selection mirrors the metrics registry's thread-local activation
pattern (:mod:`repro.context.metrics`): analyses activate a kernel for
a scope via :func:`use_kernel` (an :class:`~repro.context.
AnalysisContext` does this inside ``analysis_scope``), and the ambient
default — consulted when no scope is active — comes from the
``REPRO_CURVE_KERNEL`` environment variable (the CLI's ``--kernel``
flag sets it so sweep worker processes inherit the choice).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "resolve_kernel",
    "current_kernel",
    "use_kernel",
]

#: The valid kernel identifiers, in preference order.
KERNELS = ("exact", "grid")

#: Compiled-in default when neither a scope nor the environment selects.
DEFAULT_KERNEL = "exact"

#: Environment variable consulted for the ambient default.
ENV_VAR = "REPRO_CURVE_KERNEL"

_ACTIVE = threading.local()


def resolve_kernel(name: str) -> str:
    """Validate and normalize a kernel identifier.

    Raises :class:`ValueError` for anything outside :data:`KERNELS` —
    a misspelled kernel must fail loudly, not silently pick a backend.
    """
    normalized = str(name).strip().lower()
    if normalized not in KERNELS:
        raise ValueError(
            f"unknown curve kernel {name!r}; expected one of {KERNELS}")
    return normalized


def current_kernel() -> str:
    """The kernel active on this thread.

    Innermost :func:`use_kernel` scope first, then the
    ``REPRO_CURVE_KERNEL`` environment variable, then
    :data:`DEFAULT_KERNEL`.
    """
    active = getattr(_ACTIVE, "kernel", None)
    if active is not None:
        return active
    env = os.environ.get(ENV_VAR, "")
    if env:
        return resolve_kernel(env)
    return DEFAULT_KERNEL


@contextmanager
def use_kernel(name: str | None):
    """Make *name* the active kernel on this thread for the block.

    Nested scopes stack (innermost wins); ``None`` is a no-op
    passthrough so callers can thread an optional selection without
    branching.
    """
    if name is None:
        yield current_kernel()
        return
    resolved = resolve_kernel(name)
    prev = getattr(_ACTIVE, "kernel", None)
    _ACTIVE.kernel = resolved
    try:
        yield resolved
    finally:
        _ACTIVE.kernel = prev
