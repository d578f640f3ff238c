"""Golden-bound corpus: every flow bound of a fixed set of networks.

``bounds.json`` next to this script holds, for each corpus network and
curve kernel, the ``float.hex`` of every flow's end-to-end bound under
Decomposed, Service Curve and Integrated.  ``test_golden.py`` recomputes
the corpus and compares it bit for bit, so a change that moves any bound
by a single ulp fails tier-1.  A change that moves a bound on purpose
must say why in CHANGES.md, bump the matching content-key version tag
and regenerate the file.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen.py              # compare, exit 1 on drift
    PYTHONPATH=src python tests/golden/regen.py --write      # rewrite bounds.json
    PYTHONPATH=src python tests/golden/regen.py --soundness  # simulator oracle

``--soundness`` runs the adversarial-simulator soundness oracle
(:func:`repro.validate.oracles.check_soundness`) over every corpus
network with all three analyzers and exits 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.service_curve import ServiceCurveAnalysis
from repro.core.integrated import IntegratedAnalysis
from repro.curves.kernels import use_kernel
from repro.network.generators import (
    fat_tree,
    parking_lot,
    random_multicomponent,
    with_burst,
)
from repro.network.tandem import build_tandem
from repro.network.topology import Network

CORPUS_PATH = Path(__file__).with_name("bounds.json")

#: Bump when the file layout (not the bounds) changes.
FORMAT = 1

ANALYZERS: dict[str, Callable[[], object]] = {
    "decomposed": DecomposedAnalysis,
    "service_curve": ServiceCurveAnalysis,
    "integrated": IntegratedAnalysis,
}


def _cases() -> list[tuple[str, Callable[[], Network], tuple[str, ...]]]:
    cases = []
    for n in (2, 4, 8, 16):
        kernels = ("exact", "grid") if n <= 4 else ("exact",)
        for u in (0.2, 0.5, 0.8, 0.95):
            cases.append((f"tandem-n{n}-u{u}",
                          lambda n=n, u=u: build_tandem(n, u), kernels))
    cases += [
        ("parking_lot-n4-u0.5", lambda: parking_lot(4, 0.5), ("exact",)),
        ("parking_lot-n8-u0.9", lambda: parking_lot(8, 0.9), ("exact",)),
        ("fat_tree-d2-u0.5", lambda: fat_tree(2, 0.5), ("exact",)),
        ("fat_tree-d3-u0.9", lambda: fat_tree(3, 0.9), ("exact",)),
        # zero-burst through traffic: F12 starts at zero
        ("zero_burst_parking_lot-n4-u0.8",
         lambda: with_burst(parking_lot(4, 0.8), ["long"], 0.0),
         ("exact",)),
        ("zero_burst_random_multicomponent-s3",
         lambda: with_burst(random_multicomponent(3),
                            [f"c{c}_f{i}" for c in range(4)
                             for i in range(0, 8, 2)], 0.0),
         ("exact",)),
    ]
    for seed in (0, 1, 2):
        cases.append((f"random_multicomponent-s{seed}",
                      lambda seed=seed: random_multicomponent(seed),
                      ("exact",)))
    return cases


#: ``(name, network builder, kernels)`` of every corpus network.
CASES = _cases()


def case_keys() -> list[tuple[str, str]]:
    """Every ``(network, kernel)`` pair the corpus records."""
    return [(name, kernel) for name, _, kernels in CASES
            for kernel in kernels]


def network_of(name: str) -> Network:
    """Build the corpus network called *name*."""
    for case, build, _ in CASES:
        if case == name:
            return build()
    raise KeyError(name)


def compute(name: str, kernel: str) -> dict[str, dict[str, str]]:
    """``{analyzer: {flow: float.hex(bound)}}`` for one corpus entry."""
    net = network_of(name)
    out = {}
    for label, analyzer in ANALYZERS.items():
        with use_kernel(kernel):
            report = analyzer().analyze(net)
        out[label] = {flow: float(report.delay_of(flow)).hex()
                      for flow in sorted(report.delays)}
    return out


def load() -> dict[str, dict[str, dict[str, dict[str, str]]]]:
    """The committed corpus: ``{network: {kernel: {analyzer: {flow: hex}}}}``."""
    doc = json.loads(CORPUS_PATH.read_text())
    if doc.get("format") != FORMAT:
        raise ValueError(f"{CORPUS_PATH} has format {doc.get('format')!r}, "
                         f"expected {FORMAT}")
    return doc["bounds"]


def build() -> dict[str, dict[str, dict[str, dict[str, str]]]]:
    """Recompute the whole corpus."""
    bounds: dict = {}
    for name, kernel in case_keys():
        bounds.setdefault(name, {})[kernel] = compute(name, kernel)
    return bounds


def _soundness() -> int:
    from repro.validate.oracles import check_soundness

    analyzers = {label: cls() for label, cls in ANALYZERS.items()}
    failures = 0
    for name, build_net, _ in CASES:
        violations = check_soundness(build_net(), analyzers=analyzers)
        print(f"{name}: {'ok' if not violations else 'VIOLATED'}")
        for v in violations:
            print(f"  {v.flow}: {v.detail}")
        failures += len(violations)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite bounds.json from the current code")
    mode.add_argument("--soundness", action="store_true",
                      help="run the simulator soundness oracle over "
                           "every corpus network")
    args = parser.parse_args(argv)
    if args.soundness:
        return _soundness()
    fresh = build()
    if args.write:
        CORPUS_PATH.write_text(json.dumps(
            {"format": FORMAT, "bounds": fresh}, indent=1,
            sort_keys=True) + "\n")
        print(f"wrote {CORPUS_PATH} ({len(case_keys())} entries)")
        return 0
    stored = load()
    drift = [f"{name}/{kernel}" for name, kernel in case_keys()
             if stored.get(name, {}).get(kernel) != fresh[name][kernel]]
    for entry in drift:
        print(f"drift: {entry}")
    print(f"{len(case_keys()) - len(drift)}/{len(case_keys())} entries "
          "match bit for bit")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
