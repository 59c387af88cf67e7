"""The paper's contribution: adaptive QoS-driven VM provisioning.

Components (paper §IV, Figure 1):

* :class:`WorkloadAnalyzer` — arrival-rate estimation and alerts;
* :class:`PerformanceModeler` — Algorithm 1 over the Figure-2 queueing
  network, returning the fleet size ``m`` that meets QoS at acceptable
  utilization;
* :class:`ControlPlane` — the backend-agnostic analyzer-cadence →
  modeler → actuation loop shared by the DES and fluid backends
  (:mod:`repro.core.controlplane`);
* :class:`ApplicationProvisioner` — the DES adapter that actuates
  modeler decisions through the fleet (create / revive / drain
  instances);
* :class:`QoSTarget` — the negotiated contract and the Eq.-1 capacity
  rule;
* :class:`AdaptivePolicy` / :class:`StaticPolicy` — the evaluated
  provisioning policies, attachable to a :class:`SimulationContext`.
"""

from .analyzer import WorkloadAnalyzer
from .context import SimulationContext
from .controlplane import (
    ControlClock,
    ControlPlane,
    FleetActuator,
    RecordingActuator,
    alert_schedule,
    next_alert_time,
)
from .modeler import PerformanceModeler, ProvisioningDecision
from .policies import AdaptivePolicy, ProvisioningPolicy, StaticPolicy, default_predictor
from .provisioner import ApplicationProvisioner, ScalingAction
from .qos import QoSTarget

__all__ = [
    "QoSTarget",
    "PerformanceModeler",
    "ProvisioningDecision",
    "WorkloadAnalyzer",
    "ApplicationProvisioner",
    "ScalingAction",
    "ControlPlane",
    "ControlClock",
    "FleetActuator",
    "RecordingActuator",
    "next_alert_time",
    "alert_schedule",
    "SimulationContext",
    "ProvisioningPolicy",
    "StaticPolicy",
    "AdaptivePolicy",
    "default_predictor",
]
