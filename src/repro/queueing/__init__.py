"""Analytical queueing-theory library.

Closed-form steady-state models used by the load predictor &
performance modeler (paper §IV-B) and by the fluid simulation engine:

* :class:`MM1Queue` — M/M/1 (infinite buffer, single server)
* :class:`MM1KQueue` — M/M/1/K, the paper's per-instance model
* :class:`MMCQueue` — M/M/c (pooled fleet, infinite buffer)
* :class:`MMCKQueue` — M/M/c/K (pooled fleet, finite buffer)
* :class:`MMInfQueue` — M/M/∞, the paper's dispatch-tier model
* :class:`MD1Queue` / :class:`MD1KQueue` — deterministic-service
  companions for the low-variability simulated workloads
* :func:`erlang_b` / :func:`erlang_c` — multi-server primitives
* :class:`ProvisioningNetwork` — the composed Figure-2 network

All models share the :class:`QueueModel` interface, so Algorithm 1 can
be run against any of them (see the queue-model ablation benchmark).
"""

from .base import QueueModel, validate_capacity, validate_rates
from .erlang import erlang_b, erlang_c
from .md1 import MD1KQueue, MD1Queue
from .mg1 import MG1Queue, uniform_jitter_scv
from .mm1 import MM1Queue
from .mm1k import MM1KQueue, mm1k_blocking, mm1k_mean_number
from .mmc import MMCQueue
from .mmck import MMCKQueue
from .mminf import MMInfQueue
from .network import NetworkPerformance, ProvisioningNetwork

__all__ = [
    "QueueModel",
    "validate_rates",
    "validate_capacity",
    "MM1Queue",
    "MM1KQueue",
    "mm1k_blocking",
    "mm1k_mean_number",
    "MMCQueue",
    "MMCKQueue",
    "MMInfQueue",
    "MD1Queue",
    "MD1KQueue",
    "MG1Queue",
    "uniform_jitter_scv",
    "erlang_b",
    "erlang_c",
    "NetworkPerformance",
    "ProvisioningNetwork",
]
