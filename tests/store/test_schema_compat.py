"""Stores of both value schemas read each other as the contract says.

Segments tagged ``repro-analysis-v1`` hold curves pickled as read-only
float64 arrays; this code writes ``repro-analysis-v2`` segments, whose
curves are pickled as float lists.  It reads both.  Code that reads
only ``v1`` ignores ``v2`` segments (and an index tagged ``v2``), so it
recomputes rather than misreading them.
"""

import base64
from dataclasses import fields, is_dataclass

import repro.store.format as store_format
from repro.analysis.decomposed import DecomposedAnalysis
from repro.cli import main
from repro.core.integrated import IntegratedAnalysis
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.curves.token_bucket import TokenBucket
from repro.engine import IncrementalEngine
from repro.network.flow import Flow
from repro.network.topology import Network, ServerSpec
from repro.store import VALUE_SCHEMA, AnalysisStore
from repro.store.format import parse_segment_header

OLD_SCHEMA = "repro-analysis-v1"

#: base64 of ``seg-00000001.dat`` as the store wrote it before float-list
#: pickles: the Decomposed engine's two server steps and the Integrated
#: engine's one block of :func:`network`, with array-state curves
OLD_SEGMENT = base64.b64decode(
    "eyJmb3JtYXQiOiAxLCAic2NoZW1hIjogInJlcHJvLWFuYWx5c2lzLXYxIn0Kq1JTMd1x"
    "7yehDm1GeZ5tW1d2o8IzAgAAqKpxwYAFlSgCAAAAAAAAjBpyZXByby5hbmFseXNpcy5w"
    "cm9wYWdhdGlvbpSMClNlcnZlclN0ZXCUk5QpgZR9lCiMBWxvY2FslIwScmVwcm8uc2Vy"
    "dmVycy5iYXNllIwNTG9jYWxBbmFseXNpc5STlCmBlH2UKIwNZGVsYXlfYnlfZmxvd5R9"
    "lCiMAWGURz/4AAAAAAAAjAFilEc/+AAAAAAAAHWMB2JhY2tsb2eURz/4AAAAAAAAjAti"
    "dXN5X3BlcmlvZJRHQAMzMzMzMzOMCWFnZ3JlZ2F0ZZSMFnJlcHJvLmN1cnZlcy5waWVj"
    "ZXdpc2WUjBRQaWVjZXdpc2VMaW5lYXJDdXJ2ZZSTlCmBlE59lCiMAXiUjBNudW1weS5f"
    "Y29yZS5udW1lcmljlIwLX2Zyb21idWZmZXKUk5QoQwgAAAAAAAAAAJSMBW51bXB5lIwF"
    "ZHR5cGWUk5SMAmY4lImIh5RSlChLA4wBPJROTk5K/////0r/////SwB0lGJLAYWUjAFD"
    "lHSUUpSMAXmUaBooQwgAAAAAAAD4P5RoIUsBhZRoJXSUUpSMC2ZpbmFsX3Nsb3BllEc/"
    "2AAAAAAAAHWGlGJ1YowKb3V0X2N1cnZlc5RoDWgUKYGUTn2UKGgXaBooQwgAAAAAAAAA"
    "AJRoIUsBhZRoJXSUUpRoKGgaKEMIAAAAAAAA8z+UaCFLAYWUaCV0lFKUaC1HP8AAAAAA"
    "AAB1hpRihpSFlHViRz9WmfeEAAAAhpQuq1JTMcjJKfr80RdcRBqXLwUsyuveAQAAkTXw"
    "q4AFldMBAAAAAAAAjBpyZXByby5hbmFseXNpcy5wcm9wYWdhdGlvbpSMClNlcnZlclN0"
    "ZXCUk5QpgZR9lCiMBWxvY2FslIwScmVwcm8uc2VydmVycy5iYXNllIwNTG9jYWxBbmFs"
    "eXNpc5STlCmBlH2UKIwNZGVsYXlfYnlfZmxvd5R9lCiMAWGURz//AAAAAAAAjAFjlEc/"
    "/wAAAAAAAHWMB2JhY2tsb2eURz//AAAAAAAAjAtidXN5X3BlcmlvZJRHQAMTsTsTsTuM"
    "CWFnZ3JlZ2F0ZZSMFnJlcHJvLmN1cnZlcy5waWVjZXdpc2WUjBRQaWVjZXdpc2VMaW5l"
    "YXJDdXJ2ZZSTlCmBlE59lCiMAXiUjBNudW1weS5fY29yZS5udW1lcmljlIwLX2Zyb21i"
    "dWZmZXKUk5QoQwgAAAAAAAAAAJSMBW51bXB5lIwFZHR5cGWUk5SMAmY4lImIh5RSlChL"
    "A4wBPJROTk5K/////0r/////SwB0lGJLAYWUjAFDlHSUUpSMAXmUaBooQwgAAAAAAAD/"
    "P5RoIUsBhZRoJXSUUpSMC2ZpbmFsX3Nsb3BllEc/yAAAAAAAAHWGlGJ1YowKb3V0X2N1"
    "cnZlc5QpdWJHPyPFjUAAAACGlC6rUlMxi/JxG9xXpsLtqsKwFH+VeqIAAABEjhUBgAWV"
    "lwAAAAAAAACMFXJlcHJvLmNvcmUuaW50ZWdyYXRlZJSMDEJsb2NrT3V0Y29tZZSTlCmB"
    "lH2UKIwGZGVsYXlzlIwBYZRHQAKtttttttyGlIwBYpRHP/gAAAAAAACGlIwBY5RHP+q2"
    "2222226GlIeUjApvdXRfY3VydmVzlCmMBmtlcm5lbJSMCHRoZW9yZW0xlHViRz+GH+FP"
    "QAAAhpQu"
)


def network():
    return Network([ServerSpec(1), ServerSpec(2)],
                   [Flow("a", TokenBucket(1.0, 0.125), (1, 2)),
                    Flow("b", TokenBucket(0.5, 0.25), (1,)),
                    Flow("c", TokenBucket(0.75, 0.0625), (2,))])


def other_network():
    return Network([ServerSpec(1), ServerSpec(2), ServerSpec(3)],
                   [Flow("x", TokenBucket(2.0, 0.125), (1, 2, 3)),
                    Flow("y", TokenBucket(0.25, 0.375), (2, 3))])


def canon(value):
    """A result's every float as ``float.hex``, curves included."""
    if isinstance(value, PiecewiseLinearCurve):
        return ("curve", [v.hex() for v in value.x.tolist()],
                [v.hex() for v in value.y.tolist()],
                value.final_slope.hex())
    if is_dataclass(value):
        return (type(value).__name__,
                [(f.name, canon(getattr(value, f.name)))
                 for f in fields(value)])
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return sorted((k, canon(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    return value


def computed(net):
    """Content key -> freshly computed result, for both engines."""
    out = {}
    for analyzer in (DecomposedAnalysis(), IntegratedAnalysis()):
        engine = IncrementalEngine(analyzer)
        engine.analyze(net)
        out.update((key, rec[0]) for key, rec in engine._cache.items())
    return out


def old_store(path):
    path.mkdir()
    (path / "seg-00000001.dat").write_bytes(OLD_SEGMENT)
    return path


def schema_of(segment):
    return parse_segment_header(segment.read_bytes().split(b"\n")[0] + b"\n")


def test_old_segment_is_served_in_full(tmp_path):
    fresh = computed(network())
    assert len(fresh) == 3
    with AnalysisStore(old_store(tmp_path / "s"), read_only=True) as store:
        assert len(store) == 3
        for key, value in fresh.items():
            entry = store.get(key)  # the content keys did not move
            assert entry is not None
            assert canon(entry.value) == canon(value)
        assert store.stats.corrupt == 0


def test_old_segment_warms_an_engine(tmp_path):
    with AnalysisStore(old_store(tmp_path / "s"), read_only=True) as store:
        for analyzer in (DecomposedAnalysis(), IntegratedAnalysis()):
            engine = IncrementalEngine(analyzer, store=store)
            report = engine.analyze(network())
            assert engine.stats.misses == 0 and engine.stats.store_hits > 0
            cold = analyzer.analyze(network())
            for name in ("a", "b", "c"):
                assert (report.delay_of(name).hex()
                        == cold.delay_of(name).hex())


def test_new_entries_go_to_a_new_segment(tmp_path):
    path = old_store(tmp_path / "s")
    with AnalysisStore(path) as store:
        IncrementalEngine(DecomposedAnalysis(), store=store).analyze(
            other_network())
        assert len(store) > 3
    segments = sorted(path.glob("seg-*.dat"))
    assert [schema_of(s) for s in segments] == [(1, OLD_SCHEMA),
                                                 (1, VALUE_SCHEMA)]
    assert segments[0].read_bytes() == OLD_SEGMENT  # never appended to
    payload = segments[1].read_bytes()
    assert b"numpy" not in payload  # float lists, no arrays


def test_mixed_store_compacts_without_losing_entries(tmp_path, capsys):
    path = old_store(tmp_path / "s")
    with AnalysisStore(path) as store:
        for analyzer in (DecomposedAnalysis(), IntegratedAnalysis()):
            IncrementalEngine(analyzer, store=store).analyze(other_network())
        before = set(store.keys())
        report = store.compact()
        assert report.kept == len(before) and report.dropped == 0
        assert set(store.keys()) == before
    expected = {**computed(network()), **computed(other_network())}
    assert set(expected) == before
    with AnalysisStore(path) as store:
        for key, value in expected.items():
            assert canon(store.get(key).value) == canon(value)
        assert store.stats.corrupt == 0
    assert [schema_of(s) for s in path.glob("seg-*.dat")] == [
        (1, VALUE_SCHEMA)]
    assert main(["store", "verify", str(path)]) == 0
    assert "all good" in capsys.readouterr().out


def test_reader_of_the_old_schema_ignores_new_segments(tmp_path,
                                                        monkeypatch):
    path = old_store(tmp_path / "s")
    with AnalysisStore(path) as store:
        IncrementalEngine(DecomposedAnalysis(), store=store).analyze(
            other_network())
        new_keys = set(store.keys()) - set(computed(network()))
    assert new_keys
    # what code that knows only the old tag accepts
    monkeypatch.setattr(store_format, "READ_SCHEMAS",
                        frozenset({OLD_SCHEMA}))
    with AnalysisStore(path, read_only=True) as store:
        assert len(store) == 3  # the index (tagged v2) is not trusted
        assert all(store.get(key) is None for key in new_keys)
        for key, value in computed(network()).items():
            assert canon(store.get(key).value) == canon(value)
