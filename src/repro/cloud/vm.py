"""Virtual-machine model.

Matches the paper's setup (§V-A): every application VM requests one
core and 2 GB of RAM, is pinned to an idle core of a physical host
(no CPU time-sharing between VMs), and hosts exactly one application
instance (the paper's one-to-one ``s_j`` ↔ ``v_j`` mapping).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["VMState", "VMSpec", "VirtualMachine", "DEFAULT_VM_SPEC"]


class VMState(enum.Enum):
    """Lifecycle of a virtual machine."""

    #: Requested but still booting (image transfer, OS start-up).
    PROVISIONING = "provisioning"
    #: Running and able to serve its application instance.
    RUNNING = "running"
    #: Destroyed; its core and RAM are back in the host's free pool.
    DESTROYED = "destroyed"


@dataclass(frozen=True)
class VMSpec:
    """Resource requirements of a VM class.

    Attributes
    ----------
    cores:
        Physical cores pinned to the VM (the paper uses 1).
    ram_mb:
        RAM in megabytes (the paper uses 2048).
    name:
        Label of the VM class, e.g. ``"app-small"``.
    """

    cores: int = 1
    ram_mb: int = 2048
    name: str = "app-small"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"a VM needs at least one core, got {self.cores}")
        if self.ram_mb < 1:
            raise ValueError(f"a VM needs positive RAM, got {self.ram_mb}")


#: The single VM class used by every experiment in the paper.
DEFAULT_VM_SPEC = VMSpec()


@dataclass
class VirtualMachine:
    """A placed VM.

    Attributes
    ----------
    vm_id:
        Data-center-unique identifier.
    spec:
        Resource class the VM was created from.
    host_id:
        Identifier of the physical host the VM is pinned to.
    created_at:
        Simulation time the placement was made.
    state:
        Current :class:`VMState`.
    destroyed_at:
        Simulation time the VM was destroyed, if it was.
    """

    vm_id: int
    spec: VMSpec
    host_id: int
    created_at: float
    state: VMState = VMState.PROVISIONING
    destroyed_at: Optional[float] = field(default=None)

    def boot_completed(self) -> None:
        """Transition PROVISIONING → RUNNING (idempotent on RUNNING)."""
        if self.state is VMState.DESTROYED:
            raise ValueError(f"VM {self.vm_id} is destroyed and cannot boot")
        self.state = VMState.RUNNING

    def destroy(self, when: float) -> None:
        """Transition to DESTROYED, recording the time."""
        if self.state is VMState.DESTROYED:
            raise ValueError(f"VM {self.vm_id} destroyed twice")
        self.state = VMState.DESTROYED
        self.destroyed_at = when

    def lifetime(self, now: float) -> float:
        """Wall-clock seconds from creation to destruction (or ``now``).

        This is the quantity summed into the paper's *VM hours* metric.
        """
        end = self.destroyed_at if self.destroyed_at is not None else now
        return max(0.0, end - self.created_at)

    def core_seconds(self, now: float) -> float:
        """``spec.cores`` × :meth:`lifetime` — the capacity-cost unit."""
        return self.spec.cores * self.lifetime(now)
