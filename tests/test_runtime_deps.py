"""The runtime runs without networkx, and the admission service without
numpy.

networkx is a test-only oracle (``tests/network/test_graph_differential.py``).
The first test starts a fresh interpreter whose import system refuses
networkx and drives every path that reads the server graph: network
construction and edits, the cycle check, the three analyses under both
pairing strategies, an incremental engine query, a parallel batch
admission, a survivability reroute and the ``analyze`` command.

numpy is imported only by the features that compute with it.  The
second test drives a Decomposed admission service's whole life with
numpy refused and compares every bound and content key, bit for bit,
with the same run in an interpreter that loaded numpy first.  The third
imports the curves and the hashing before numpy, so their "numpy is
already loaded" branches are the ones taken, and checks that numpy
values give the bytes that lists and Python floats give.
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


NUMPY_DRILL = textwrap.dedent("""
    import sys

    if sys.argv[1] == "refuse":
        class RefuseNumpy:
            # a meta-path finder that makes ``import numpy`` fail

            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ImportError(f"{name} is refused in this test")
                return None

        sys.meta_path.insert(0, RefuseNumpy())
    else:
        import numpy  # noqa: F401

    import contextlib
    import io
    from pathlib import Path

    import repro
    import repro.cli
    import repro.service
    from repro.admission.requests import ConnectionRequest
    from repro.analysis import DecomposedAnalysis
    from repro.core.integrated import BlockInput, FlowAtBlock
    from repro.curves import TokenBucket
    from repro.engine import IncrementalEngine
    from repro.engine.incremental import _block_key
    from repro.network import Network, ServerSpec, build_tandem
    from repro.service import AdmissionService, recover_service
    from repro.store import AnalysisStore

    out = []


    def show(label, bound):
        out.append(f"{label} {float(bound).hex()}")


    def request(name, path, deadline=1e3):
        return ConnectionRequest(name, TokenBucket(1.0, 0.03), path,
                                 deadline)


    root = Path(sys.argv[2])
    journal, store_dir = root / "j", root / "s"
    tandems = ((1, 2), (3, 4), (5, 6))
    network = Network([ServerSpec(k) for k in range(1, 7)], [])

    # a journaled, store-backed Decomposed service
    store = AnalysisStore(store_dir)
    svc = AdmissionService(network, DecomposedAnalysis(),
                           journal_dir=journal, store=store)
    for k in range(6):
        d = svc.admit(request(f"h{k}", tandems[k % 3]))
        assert d.admitted, d
        show(f"admit h{k}", d.bound)
    d = svc.admit(request("tight", (1, 2), deadline=1e-3))
    assert not d.admitted, d
    show("reject tight", d.bound)
    svc.release("h1")
    svc.checkpoint()
    svc.close()
    store.close()

    # verified recovery from journal and store, one admit after it
    store = AnalysisStore(store_dir)
    svc = recover_service(journal, store=store, verify=True)
    d = svc.admit(request("after", (3, 4)))
    assert d.admitted, d
    show("admit after", d.bound)

    # a parallel batch over the three tandems
    batch = [request(f"b{k}", tandems[k % 3]) for k in range(6)]
    for r, d in zip(batch, svc.admit_batch(batch, workers=2)):
        show(f"batch {r.name}", d.bound)
    svc.close()
    # the server and sweep keys the service stored
    out += [f"key {key.hex()}" for key in sorted(store.keys())]
    store.close()

    # a cold analysis and an engine query
    net = build_tandem(4, 0.5)
    for name, fd in sorted(DecomposedAnalysis().analyze(net).delays.items()):
        show(f"cold {name}", fd.total)
    report = IncrementalEngine(DecomposedAnalysis()).analyze(net)
    for name, fd in sorted(report.delays.items()):
        show(f"engine {name}", fd.total)

    curve = TokenBucket(1.5, 0.25, peak=2.0).constraint_curve()
    block = BlockInput(kind="fifo_pair", capacities=(1.0, 2.0),
                       disciplines=("fifo", "fifo"), use_family_kernel=True,
                       flows=(FlowAtBlock("a", "through", curve, True, 0,
                                          0.25),),
                       kernel="exact")
    out.append(f"block {_block_key(block).hex()}")

    # the admit command; its timing lines differ from run to run
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert repro.cli.main(["admit", "--analyzer", "decomposed",
                               "--hops", "3", "--max", "20",
                               "--store", str(root / "cli")]) == 0
    out += [line.replace(str(root), "ROOT")
            for line in text.getvalue().splitlines()
            if not line.split()[0].endswith("_s")]

    if sys.argv[1] == "refuse":
        assert "numpy" not in sys.modules
    print("\\n".join(out))
""")


def _drill(mode, root):
    root.mkdir()
    out = subprocess.run([sys.executable, "-c", NUMPY_DRILL, mode, str(root)],
                         capture_output=True, text=True, timeout=240)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_admission_service_runs_with_numpy_refused(tmp_path):
    refused = _drill("refuse", tmp_path / "refused")
    assert "reject tight" in refused and "key " in refused
    assert "decomposed: admitted" in refused
    assert refused == _drill("numpy", tmp_path / "loaded")


NUMPY_AFTER = textwrap.dedent("""
    import enum
    import struct
    import sys

    from repro.curves import PiecewiseLinearCurve
    from repro.utils.hashing import Encoded, stable_digest

    assert "numpy" not in sys.modules
    import numpy as np

    xs, ys = [0.0, 1.0, 2.5], [0.5, 1.25, 3.0]


    def state(c):
        return ([v.hex() for p in c.breakpoints() for v in p],
                c.final_slope.hex(), c.key_part())


    plain = PiecewiseLinearCurve(xs, ys, 0.75)
    for x, y in (([np.float64(v) for v in xs], [np.float64(v) for v in ys]),
                 (tuple(map(np.float64, xs)), ys),
                 ([0, 1, 2.5], [np.float64(0.5), 1.25, 3]),
                 (np.array(xs), np.array(ys))):
        c = PiecewiseLinearCurve(x, y, np.float64(0.75))
        assert state(c) == state(plain), (x, y)
        assert type(c.breakpoints()[0][0]) is float
    for t in (0, 1, 2, 3, -1, 2**70):
        assert plain(t).hex() == plain(float(t)).hex(), t
        assert type(plain(t)) is float
    for t in (0.0, 0.3, 1.0, 2.5, 7.0, -0.5):
        assert plain(np.float64(t)).hex() == plain(t).hex(), t
        assert plain(np.array(t)).hex() == plain(t).hex(), t
        assert type(plain(np.float64(t))) is float
        v = np.float64(t + 1.0)
        assert plain.pseudo_inverse(v).hex() \\
            == plain.pseudo_inverse(float(v)).hex()
    sampled = plain(np.array([0.0, 0.3, 2.5, 7.0]))
    assert [v.hex() for v in sampled.tolist()] \\
        == [plain(t).hex() for t in (0.0, 0.3, 2.5, 7.0)]

    # 1-d arrays: the curve's key part; a 0-d array: one tagged float64
    assert stable_digest(plain.key_part()) \\
        == stable_digest(np.array(xs), np.array(ys), 0.75) \\
        == stable_digest(plain.x, plain.y, plain.final_slope)
    assert stable_digest(np.array(2.5)) \\
        == stable_digest(Encoded(struct.pack("<cqd", b"a", 8, 2.5)))
    assert stable_digest(np.float64(0.1)) == stable_digest(0.1)
    assert stable_digest(np.arange(6.0)[::2]) \\
        == stable_digest(np.array([0.0, 2.0, 4.0]))
    # tests/engine/test_content_keys.py's values off the fast paths
    # and their pinned digest
    class Level(enum.IntEnum):
        HIGH = 3


    odd = (None, True, False, -7, 2**70, -2**63 - 1, Level.HIGH, -0.0,
           float("inf"), np.float64(0.1), "é", b"\\x00y",
           np.arange(6.0)[::2], np.array([1, 2], dtype=">f8"),
           np.array([1, 2], dtype=np.int32), np.array(2.5), [1, (2.0, "x")])
    assert stable_digest(*odd).hex() == "0fa71d08b0f6ba3ad49c9c985038a585"
    print("same bytes")
""")


def test_numpy_values_imported_after_repro_give_the_same_bytes():
    out = subprocess.run([sys.executable, "-c", NUMPY_AFTER],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "same bytes"
