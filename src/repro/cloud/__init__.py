"""Cloud substrate: the IaaS data center and the SaaS application layer.

Infrastructure (paper §V-A):

* :class:`Datacenter` — 1000 hosts × (8 cores, 16 GB), VM placement via
  :class:`LeastLoadedPlacement` (alternatives for ablations).
* :class:`Host`, :class:`VirtualMachine`, :class:`VMSpec` — physical and
  virtual resources; one core per VM, no time-sharing.

Application layer (paper §III–IV):

* :class:`AppInstance` — the M/M/1/k station: bounded FIFO queue, one
  server, graceful-drain lifecycle.
* :class:`ApplicationFleet` — instance lifecycle + dispatch mechanics.
* :class:`AdmissionControl` — the "all instances hold k requests ⇒
  reject" gate.
* :class:`RoundRobinBalancer` (paper default) and alternatives.
* :class:`Monitor` — the CloudWatch stand-in feeding ``T_m`` and rate
  history to the provisioning mechanism.
* :class:`WorkloadSource` — the request-generating broker.
"""

from .admission import AdmissionControl
from .broker import WorkloadSource
from .datacenter import Datacenter
from .failures import FailureInjector
from .fleet import ApplicationFleet
from .host import Host
from .instance import AppInstance, InstanceState
from .loadbalancer import (
    LeastConnectionsBalancer,
    LoadBalancer,
    RandomBalancer,
    RoundRobinBalancer,
)
from .monitor import Monitor
from .placement import (
    FirstFitPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    RandomPlacement,
)
from .request import RequestOutcome, RequestRecord
from .vecfleet import VectorFleet
from .vm import DEFAULT_VM_SPEC, VirtualMachine, VMSpec, VMState

__all__ = [
    "Datacenter",
    "Host",
    "VirtualMachine",
    "VMSpec",
    "VMState",
    "DEFAULT_VM_SPEC",
    "AppInstance",
    "InstanceState",
    "ApplicationFleet",
    "VectorFleet",
    "AdmissionControl",
    "FailureInjector",
    "LoadBalancer",
    "RoundRobinBalancer",
    "LeastConnectionsBalancer",
    "RandomBalancer",
    "Monitor",
    "WorkloadSource",
    "PlacementPolicy",
    "LeastLoadedPlacement",
    "FirstFitPlacement",
    "RandomPlacement",
    "RequestOutcome",
    "RequestRecord",
]
