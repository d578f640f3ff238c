"""Kernel selection and dispatch: resolve / precedence / divergence.

The dispatch contract (see docs/KERNELS.md): per-call ``kernel=``
argument beats the innermost :func:`use_kernel` scope, which beats the
``REPRO_CURVE_KERNEL`` environment variable, which beats the compiled
default ``"exact"``.  A diverging deconvolution raises on the exact
kernel; nothing silently switches to the grid.
"""

import pytest

from repro.context import AnalysisContext
from repro.curves.kernels import (DEFAULT_KERNEL, ENV_VAR, KERNELS,
                                  current_kernel, resolve_kernel,
                                  use_kernel)
from repro.curves.operations import deconvolve
from repro.curves.piecewise import PiecewiseLinearCurve as P
from repro.errors import CurveError


class TestResolveKernel:
    def test_valid_names(self):
        assert KERNELS == ("exact", "grid")
        for name in KERNELS:
            assert resolve_kernel(name) == name

    def test_retired_auto_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown curve kernel"):
            resolve_kernel("auto")

    def test_normalizes_case_and_whitespace(self):
        assert resolve_kernel("  Exact ") == "exact"
        assert resolve_kernel("GRID") == "grid"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown curve kernel"):
            resolve_kernel("sampled")
        with pytest.raises(ValueError, match="unknown curve kernel"):
            resolve_kernel("")


class TestPrecedence:
    def test_compiled_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert current_kernel() == DEFAULT_KERNEL == "exact"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "grid")
        assert current_kernel() == "grid"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            current_kernel()

    def test_retired_auto_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "auto")
        with pytest.raises(ValueError, match="unknown curve kernel"):
            current_kernel()

    def test_scope_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "grid")
        with use_kernel("exact"):
            assert current_kernel() == "exact"
        assert current_kernel() == "grid"

    def test_scopes_nest_and_restore(self):
        with use_kernel("grid"):
            assert current_kernel() == "grid"
            with use_kernel("exact"):
                assert current_kernel() == "exact"
            assert current_kernel() == "grid"

    def test_none_scope_is_passthrough(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "grid")
        with use_kernel(None) as active:
            assert active == "grid"
            assert current_kernel() == "grid"

    def test_scope_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_kernel("grid"):
                raise RuntimeError("boom")
        assert current_kernel() == DEFAULT_KERNEL

    def test_per_call_arg_beats_scope(self):
        # grid deconvolve pads its bound above the exact one; the
        # per-call override must pick the exact backend despite the
        # ambient grid scope
        f, g = P.affine(2.0, 0.25), P.rate_latency(1.0, 2.0)
        with use_kernel("grid"):
            exact = deconvolve(f, g, kernel="exact")
            grid = deconvolve(f, g)
        assert exact(0.0) == pytest.approx(2.5)
        assert grid(0.0) > exact(0.0)

    def test_invalid_scope_name_raises(self):
        with pytest.raises(ValueError):
            with use_kernel("fast"):
                pass  # pragma: no cover

    def test_retired_auto_scope_raises(self):
        with pytest.raises(ValueError, match="unknown curve kernel"):
            with use_kernel("auto"):
                pass  # pragma: no cover


class TestContextPropagation:
    def test_with_kernel_copies(self):
        ctx = AnalysisContext()
        assert ctx.kernel is None
        grid_ctx = ctx.with_kernel("grid")
        assert grid_ctx.kernel == "grid"
        assert ctx.kernel is None

    def test_analysis_scope_activates_kernel(self):
        ctx = AnalysisContext(kernel="grid")
        with ctx.analysis_scope("test"):
            assert current_kernel() == "grid"
        assert current_kernel() == DEFAULT_KERNEL

    def test_analysis_scope_none_kernel_inherits(self):
        ctx = AnalysisContext()
        with use_kernel("grid"):
            with ctx.analysis_scope("test"):
                assert current_kernel() == "grid"


class TestAutoFallback:
    """No automatic fallback: exact raises where the grid would truncate."""

    def test_exact_kernel_raises_instead(self):
        with use_kernel("exact"):
            with pytest.raises(CurveError, match="diverges"):
                deconvolve(P.affine(1.0, 2.0), P.line(1.0))
