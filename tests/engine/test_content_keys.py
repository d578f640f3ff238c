"""Content keys are pinned byte for byte.

Engine caches and persistent stores are addressed by these digests, so
a change to how a value is encoded would silently cool every existing
store (or, worse, alias old entries).  The literals below were computed
with the element-by-element encoder that preceded the one-buffer
encoder in ``repro.utils.hashing``; a change that moves them must bump
the key version tags instead.
"""

import enum
import hashlib

import numpy as np

from repro.analysis.propagation import FlowAtServer, ServerInput
from repro.core.integrated import BlockInput, FlowAtBlock
from repro.curves.token_bucket import TokenBucket
from repro.engine.incremental import _block_key, _server_key
from repro.utils.hashing import digest_many, digest_update, stable_digest

A = TokenBucket(1.5, 0.25, peak=2.0).constraint_curve()
B = TokenBucket(0.75, 0.125).constraint_curve()


class Level(enum.IntEnum):
    HIGH = 3


#: Values off the exact-type fast paths: subclasses, big ints, strided,
#: byte-swapped, non-float and 0-d arrays, nested sequences.
ODD = (None, True, False, -7, 2**70, -2**63 - 1, Level.HIGH, -0.0,
       float("inf"), np.float64(0.1), "é", b"\x00y",
       np.arange(6.0)[::2], np.array([1, 2], dtype=">f8"),
       np.array([1, 2], dtype=np.int32), np.array(2.5), [1, (2.0, "x")])


def test_server_key_is_pinned():
    si = ServerInput(capacity=1.0, discipline="fifo", capped=False,
                     flows=(FlowAtServer("a", A, True, 0, 0.25),
                            FlowAtServer("b", B, False, 1, 0.125)),
                     kernel="exact")
    assert _server_key(si).hex() == "ccde258d99b5d87049086ef52619cfed"


def test_block_key_is_pinned():
    bi = BlockInput(kind="fifo_pair", capacities=(1.0, 2.0),
                    disciplines=("fifo", "fifo"), use_family_kernel=True,
                    flows=(FlowAtBlock("a", "through", A, True, 0, 0.25),
                           FlowAtBlock("b", "cross2", B, False, 1, 0.125)),
                    kernel="exact")
    assert _block_key(bi).hex() == "5649e4d5d467ee67ef864d50131c1dc5"


def test_odd_values_are_pinned():
    assert stable_digest(*ODD).hex() == "0fa71d08b0f6ba3ad49c9c985038a585"


def test_every_entry_point_encodes_alike():
    h = hashlib.blake2b(digest_size=16)
    for value in ODD:
        digest_update(h, value)
    assert h.digest() == stable_digest(*ODD) == digest_many(iter(ODD))


def test_fast_paths_match_general_paths():
    # a float64 view that is not C-contiguous, and its contiguous copy
    strided = np.arange(8.0)[::2]
    assert stable_digest(strided) == stable_digest(strided.copy())
    assert stable_digest(np.float64(0.5)) == stable_digest(0.5)
    assert stable_digest(Level.HIGH) == stable_digest(3)
    assert stable_digest(1) != stable_digest(1.0) != stable_digest("1")
