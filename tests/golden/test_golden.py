"""The golden-bound corpus must reproduce bit for bit.

Regenerate ``bounds.json`` only for a change that moves bounds on
purpose: ``PYTHONPATH=src python tests/golden/regen.py --write``.
"""

import pytest

from tests.golden import regen

STORED = regen.load()


def test_corpus_covers_every_case():
    assert sorted((name, kernel) for name in STORED
                  for kernel in STORED[name]) == sorted(regen.case_keys())


@pytest.mark.parametrize("name,kernel", regen.case_keys(),
                         ids=[f"{n}-{k}" for n, k in regen.case_keys()])
def test_bounds_bit_identical(name, kernel):
    fresh = regen.compute(name, kernel)
    stored = STORED[name][kernel]
    for analyzer, flows in stored.items():
        assert fresh[analyzer] == flows, (
            f"{name}/{kernel}/{analyzer}: bounds moved "
            f"(stored vs fresh float.hex)")
    assert fresh.keys() == stored.keys()
