"""The runtime runs without networkx.

networkx is a test-only oracle (``tests/network/test_graph_differential.py``).
This test starts a fresh interpreter whose import system refuses
networkx and drives every path that reads the server graph: network
construction and edits, the cycle check, the three analyses under both
pairing strategies, an incremental engine query, a parallel batch
admission, a survivability reroute and the ``analyze`` command.
"""

import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent('''
    import sys


    class RefuseNetworkx:
        """A meta-path finder that makes ``import networkx`` fail."""

        def find_spec(self, name, path=None, target=None):
            if name == "networkx" or name.startswith("networkx."):
                raise ImportError(f"{name} is refused in this test")
            return None


    sys.meta_path.insert(0, RefuseNetworkx())

    from repro.admission import AdmissionController, ConnectionRequest
    from repro.analysis import DecomposedAnalysis, ServiceCurveAnalysis
    from repro.cli import main
    from repro.context import AnalysisContext, MetricsRegistry
    from repro.core import GreedyPairing, IntegratedAnalysis, PairAlongPath
    from repro.curves import TokenBucket
    from repro.engine import IncrementalEngine
    from repro.errors import TopologyError
    from repro.network import Flow, Network, ServerSpec, build_tandem
    from repro.network.generators import random_multicomponent
    from repro.resilience import ServerFailure, survivability

    bucket = TokenBucket(1.0, 0.1)

    # construction, edits and the cycle check
    net = build_tandem(4, 0.5)
    extra = Flow("extra", bucket, (2, 3))
    assert net.with_flow(extra).without_flow("extra").content_key() \\
        == net.content_key()
    try:
        Network([ServerSpec(1), ServerSpec(2)],
                [Flow("f", bucket, (1, 2)), Flow("g", bucket, (2, 1))])
    except TopologyError as exc:
        assert "server graph has a cycle ([(" in str(exc), exc
    else:
        raise AssertionError("a cyclic network was accepted")

    # the three analyses, both pairing strategies
    for analyzer in (DecomposedAnalysis(), ServiceCurveAnalysis(),
                     IntegratedAnalysis(PairAlongPath()),
                     IntegratedAnalysis(GreedyPairing())):
        analyzer.analyze(net)

    # one incremental engine query
    IncrementalEngine(IntegratedAnalysis()).analyze(net.with_flow(extra))

    # a parallel batch admission over two tandems
    two = random_multicomponent(0, n_components=2, servers_per_component=3,
                                flows_per_component=3, max_utilization=0.5)
    requests = [ConnectionRequest(f"req{i}", TokenBucket(0.5, 0.03),
                                  (3 * (i % 2), 3 * (i % 2) + 1), 100.0)
                for i in range(4)]
    ctx = AnalysisContext(metrics=MetricsRegistry())
    AdmissionController(two, DecomposedAnalysis()).admit_batch(
        requests, workers=2, ctx=ctx)
    assert ctx.metrics.get("parallel.batch_groups") == 2

    # a survivability reroute: failing b moves "target" onto a -> c -> d
    diamond = Network([ServerSpec(s) for s in "abcd"],
                      [Flow("target", bucket, ("a", "b", "d")),
                       Flow("upper", bucket, ("a", "c")),
                       Flow("lower", bucket, ("c", "d"))])
    report = survivability(diamond, [ServerFailure("b")],
                           DecomposedAnalysis())
    verdict = {v.flow: v for v in report.outcomes[0].verdicts}
    assert verdict["target"].rerouted, verdict

    assert main(["analyze", "--analyzer", "all", "--hops", "2",
                 "--load", "0.5"]) == 0
    assert "networkx" not in sys.modules
    print("ran without networkx")
''')


def test_runtime_runs_with_networkx_refused():
    out = subprocess.run([sys.executable, "-c", SCRIPT],
                         capture_output=True, text=True, timeout=240)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("ran without networkx")
