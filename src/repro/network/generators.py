"""Canonical topology generators beyond the paper's tandem.

The delay-analysis literature evaluates on a handful of standard
shapes; these builders produce them as ready-to-analyze
:class:`repro.network.topology.Network` objects:

* :func:`parking_lot` — a tandem where fresh cross traffic enters at
  every hop and exits immediately after one contended hop (the
  "parking-lot" fairness topology);
* :func:`fat_tree` — a binary aggregation tree with leaf-to-root flows;
* :func:`random_feedforward` — seeded random flows over a line of
  servers with a per-server utilization budget (useful for fuzzing);
* :func:`with_burst` — any of these with some flows' bursts reset,
  e.g. to zero (through aggregates that start at zero, an edge case of
  the θ-family kernel).

All generators guarantee stability (utilization strictly below the
requested budget at every server).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.curves.token_bucket import TokenBucket
from repro.network.flow import Flow
from repro.network.topology import Network, ServerSpec
from repro.utils.validation import check_positive

__all__ = ["parking_lot", "fat_tree", "random_feedforward",
           "random_multicomponent", "with_burst"]


def parking_lot(n_hops: int, utilization: float, sigma: float = 1.0,
                capacity: float = 1.0) -> Network:
    """The parking-lot topology: one long flow, one fresh cross per hop.

    Each server carries exactly two flows (the long one and its local
    cross), each with rate ``utilization * capacity / 2``.
    """
    if n_hops < 1:
        raise ValueError(f"n_hops must be >= 1, got {n_hops}")
    if not (0.0 < utilization < 1.0):
        raise ValueError(f"utilization must be in (0,1), got {utilization}")
    check_positive("sigma", sigma)
    rho = utilization * capacity / 2.0
    bucket = TokenBucket(sigma, rho, peak=capacity)
    servers = [ServerSpec(k, capacity) for k in range(1, n_hops + 1)]
    flows = [Flow("long", bucket, tuple(range(1, n_hops + 1)))]
    flows += [Flow(f"cross_{k}", bucket, (k,))
              for k in range(1, n_hops + 1)]
    return Network(servers, flows)


def fat_tree(depth: int, utilization: float, sigma: float = 1.0,
             capacity: float = 1.0) -> Network:
    """A binary aggregation tree: leaves at level 0, root at ``depth``.

    One flow per leaf runs to the root.  Interior servers aggregate
    ``2^level`` flows; rates are sized so the *root* runs at the
    requested utilization (upstream servers run proportionally lighter).
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not (0.0 < utilization < 1.0):
        raise ValueError(f"utilization must be in (0,1), got {utilization}")
    n_leaves = 2 ** depth
    rho = utilization * capacity / n_leaves
    bucket = TokenBucket(sigma, rho, peak=capacity)

    # node ids: (level, index); level 0 nodes are the leaf access ports
    servers = [ServerSpec((lvl, i), capacity)
               for lvl in range(depth + 1)
               for i in range(2 ** (depth - lvl))]
    flows = []
    for leaf in range(n_leaves):
        path = []
        idx = leaf
        for lvl in range(depth + 1):
            path.append((lvl, idx))
            idx //= 2
        flows.append(Flow(f"leaf_{leaf}", bucket, tuple(path)))
    return Network(servers, flows)


def random_feedforward(seed: int, n_servers: int = 5,
                       n_flows: int = 8, max_utilization: float = 0.85,
                       sigma_range: tuple[float, float] = (0.2, 3.0),
                       capacity: float = 1.0) -> Network:
    """A seeded random feed-forward network on a line of servers.

    Flows occupy random contiguous server intervals with random bursts;
    rates are drawn and then clipped so that no server exceeds
    ``max_utilization``.
    """
    if n_servers < 1 or n_flows < 1:
        raise ValueError("need at least one server and one flow")
    if not (0.0 < max_utilization < 1.0):
        raise ValueError(
            f"max_utilization must be in (0,1), got {max_utilization}")
    rng = np.random.default_rng(seed)
    loads = np.zeros(n_servers)
    flows = []
    for i in range(n_flows):
        a = int(rng.integers(0, n_servers))
        b = int(rng.integers(a, n_servers))
        sigma = float(rng.uniform(*sigma_range))
        rho = float(rng.uniform(0.01, max_utilization / 2)) * capacity
        headroom = max_utilization * capacity - loads[a:b + 1].max()
        rho = min(rho, max(headroom / 2, 1e-3 * capacity))
        loads[a:b + 1] += rho
        flows.append(Flow(f"f{i}", TokenBucket(sigma, rho, peak=capacity),
                          tuple(range(a, b + 1))))
    servers = [ServerSpec(k, capacity) for k in range(n_servers)]
    return Network(servers, flows)


def random_multicomponent(seed: int, n_components: int = 4,
                          servers_per_component: int = 4,
                          flows_per_component: int = 8,
                          max_utilization: float = 0.85,
                          sigma_range: tuple[float, float] = (0.2, 3.0),
                          capacity: float = 1.0) -> Network:
    """Disjoint random feed-forward components in one network.

    Component ``c`` occupies the integer servers
    ``[c * servers_per_component, (c + 1) * servers_per_component)``
    with flows named ``c{c}_f{i}``; no flow crosses a component
    boundary, so the network's server graph has exactly
    ``n_components`` weakly connected components carrying flows.  This
    is the natural stress shape for parallel batch admission
    (:meth:`repro.admission.controller.AdmissionController.admit_batch`):
    the dependency cones are the components.

    Integer server ids keep the topology journal-serializable
    (:func:`repro.network.serialization.network_to_dict` accepts
    ``str | int`` ids only).
    """
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    servers: list[ServerSpec] = []
    flows: list[Flow] = []
    for c in range(n_components):
        comp = random_feedforward(
            seed + 7919 * c, n_servers=servers_per_component,
            n_flows=flows_per_component,
            max_utilization=max_utilization, sigma_range=sigma_range,
            capacity=capacity)
        base = c * servers_per_component
        servers += [ServerSpec(base + int(s.server_id), s.capacity,
                               s.discipline)
                    for s in comp.servers.values()]
        flows += [Flow(f"c{c}_{f.name}", f.bucket,
                       tuple(base + int(k) for k in f.path),
                       f.deadline)
                  for f in comp.flows.values()]
    return Network(servers, flows)


def with_burst(network: Network, names: Iterable[str],
               sigma: float) -> Network:
    """*network* with the named flows' bursts set to *sigma*.

    Rates, peaks and paths are kept, so utilization (and stability) is
    unchanged.  ``sigma = 0`` gives zero-burst flows; peak-limited, a
    zero-burst flow's constraint curve is ``rho * t``, so a through
    aggregate of them starts at zero.
    """
    for name in names:
        f = network.flow(name)
        bucket = TokenBucket(sigma, f.bucket.rho, f.bucket.peak)
        network = network.replace_flow(
            Flow(f.name, bucket, f.path, f.deadline, f.priority))
    return network
