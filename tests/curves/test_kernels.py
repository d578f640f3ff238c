"""Kernel scope and dispatch.

The contract (see docs/KERNELS.md): ``exact`` is the only production
kernel.  The innermost :func:`use_kernel` scope on the thread selects
the kernel every curve operation dispatches on; outside every scope it
is ``"exact"``, and no setting, argument or environment variable
changes that.  A diverging deconvolution raises on the exact kernel;
nothing silently switches to the grid.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext
from repro.core.integrated import IntegratedAnalysis
from repro.curves.kernels import KERNELS, current_kernel, use_kernel
from repro.curves.operations import deconvolve
from repro.curves.piecewise import PiecewiseLinearCurve as P
from repro.errors import CurveError
from repro.network.tandem import build_tandem

SRC = Path(__file__).resolve().parents[2] / "src"


class TestResolveKernel:
    """:func:`use_kernel` accepts exactly the names in :data:`KERNELS`."""

    def test_valid_names(self):
        assert KERNELS == ("exact", "grid")
        for name in KERNELS:
            with use_kernel(name) as active:
                assert active == name == current_kernel()

    def test_retired_auto_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown curve kernel"):
            with use_kernel("auto"):
                pass  # pragma: no cover

    def test_unknown_raises(self):
        for name in ("sampled", ""):
            with pytest.raises(ValueError, match="unknown curve kernel"):
                with use_kernel(name):
                    pass  # pragma: no cover

    def test_normalizes_case_and_whitespace(self):
        # no normalization any more: only the exact spellings are names
        for name in ("GRID", " exact", "Exact\n"):
            with pytest.raises(ValueError, match="unknown curve kernel"):
                with use_kernel(name):
                    pass  # pragma: no cover


class TestPrecedence:
    def test_compiled_default(self):
        assert current_kernel() == "exact"

    def test_env_overrides_default(self, monkeypatch):
        # the variable no longer overrides the exact default
        monkeypatch.setenv("REPRO_CURVE_KERNEL", "grid")
        assert current_kernel() == "exact"

    def test_invalid_env_raises(self, monkeypatch):
        # an invalid value no longer raises: the variable is not read
        monkeypatch.setenv("REPRO_CURVE_KERNEL", "bogus")
        assert current_kernel() == "exact"

    def test_retired_auto_env_raises(self, monkeypatch):
        # likewise the retired "auto": ignored, not refused
        monkeypatch.setenv("REPRO_CURVE_KERNEL", "auto")
        assert current_kernel() == "exact"

    def test_scope_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CURVE_KERNEL", "exact")
        with use_kernel("grid"):
            assert current_kernel() == "grid"
        assert current_kernel() == "exact"

    def test_scopes_nest_and_restore(self):
        with use_kernel("grid"):
            assert current_kernel() == "grid"
            with use_kernel("exact"):
                assert current_kernel() == "exact"
            assert current_kernel() == "grid"

    def test_scope_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_kernel("grid"):
                raise RuntimeError("boom")
        assert current_kernel() == "exact"

    def test_operations_follow_the_scope(self):
        # grid deconvolve pads its bound above the exact one
        f, g = P.affine(2.0, 0.25), P.rate_latency(1.0, 2.0)
        exact = deconvolve(f, g)
        with use_kernel("grid"):
            grid = deconvolve(f, g)
        assert exact(0.0) == pytest.approx(2.5)
        assert grid(0.0) > exact(0.0)

    def test_invalid_scope_name_raises(self):
        with pytest.raises(ValueError):
            with use_kernel("fast"):
                pass  # pragma: no cover

    def test_none_scope_is_passthrough(self):
        # None is no longer a passthrough: it is refused like any
        # other non-kernel name, and the active kernel is untouched
        with use_kernel("grid"):
            with pytest.raises(ValueError, match="unknown curve kernel"):
                with use_kernel(None):
                    pass  # pragma: no cover
            assert current_kernel() == "grid"

    def test_retired_auto_scope_raises(self):
        with pytest.raises(ValueError, match="unknown curve kernel"):
            with use_kernel("auto"):
                pass  # pragma: no cover


class TestContextPropagation:
    def test_with_kernel_copies(self):
        # the context carries no kernel: no with_kernel, and the copies
        # it does make leave the thread's kernel alone
        ctx = AnalysisContext()
        assert not hasattr(ctx, "with_kernel")
        assert not hasattr(ctx, "kernel")
        for copy in (ctx.with_deadline(None), ctx.with_interceptors()):
            assert not hasattr(copy, "kernel")
            with copy.analysis_scope("test"):
                assert current_kernel() == "exact"

    def test_analysis_scope_activates_kernel(self):
        # analysis_scope activates no kernel of its own: exact outside
        # every use_kernel scope, and a kernel= is refused
        with pytest.raises(TypeError):
            AnalysisContext(kernel="grid")
        with AnalysisContext().analysis_scope("test"):
            assert current_kernel() == "exact"
        assert current_kernel() == "exact"

    def test_analysis_scope_none_kernel_inherits(self):
        ctx = AnalysisContext()
        with use_kernel("grid"):
            with ctx.analysis_scope("test"):
                assert current_kernel() == "grid"


class TestNoProductionSelection:
    """The kernel cannot be selected outside the oracles' scope."""

    def test_env_does_not_move_a_bound(self, monkeypatch):
        net = build_tandem(4, 0.7, 1.0)

        def bounds():
            out = {}
            for analyzer in (DecomposedAnalysis(), IntegratedAnalysis()):
                report = analyzer.analyze(net)
                out[analyzer.name] = {f: report.delay_of(f).hex()
                                      for f in net.flows}
            return out

        monkeypatch.delenv("REPRO_CURVE_KERNEL", raising=False)
        plain = bounds()
        monkeypatch.setenv("REPRO_CURVE_KERNEL", "grid")
        assert bounds() == plain
        with use_kernel("grid"):  # the scope itself still reaches them
            assert bounds() != plain

    def test_only_curves_and_validate_enter_the_scope(self):
        mentions = {path.relative_to(SRC).parts[:2]
                    for path in SRC.rglob("*.py")
                    if re.search(r"\buse_kernel\b", path.read_text())}
        assert mentions == {("repro", "curves"), ("repro", "validate")}


class TestAutoFallback:
    """No automatic fallback: exact raises where the grid would truncate."""

    def test_exact_kernel_raises_instead(self):
        with use_kernel("exact"):
            with pytest.raises(CurveError, match="diverges"):
                deconvolve(P.affine(1.0, 2.0), P.line(1.0))
