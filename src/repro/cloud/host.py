"""Physical host model.

The simulated data center (paper §V-A) has 1000 hosts, each with two
quad-core processors (8 cores) and 16 GB of RAM.  A host tracks the
cores and RAM consumed by its pinned VMs; there is no over-subscription
and no CPU time-sharing.
"""

from __future__ import annotations

from typing import Dict

from ..errors import CapacityError
from .vm import VMSpec, VirtualMachine

__all__ = ["Host"]


class Host:
    """One physical server in the data center.

    Parameters
    ----------
    host_id:
        Data-center-unique identifier.
    cores:
        Total physical cores (paper: 2 × quad-core = 8).
    ram_mb:
        Total RAM in MB (paper: 16384).
    """

    __slots__ = ("host_id", "cores", "ram_mb", "free_cores", "free_ram_mb", "_vms")

    def __init__(self, host_id: int, cores: int = 8, ram_mb: int = 16_384) -> None:
        if cores < 1 or ram_mb < 1:
            raise ValueError(f"host needs positive capacity, got cores={cores} ram={ram_mb}")
        self.host_id = host_id
        self.cores = cores
        self.ram_mb = ram_mb
        self.free_cores = cores
        self.free_ram_mb = ram_mb
        self._vms: Dict[int, VirtualMachine] = {}

    # ------------------------------------------------------------------
    @property
    def vm_count(self) -> int:
        """Number of VMs currently pinned to this host."""
        return len(self._vms)

    def can_fit(self, spec: VMSpec) -> bool:
        """Whether the host has free cores and RAM for ``spec``."""
        return self.free_cores >= spec.cores and self.free_ram_mb >= spec.ram_mb

    def attach(self, vm: VirtualMachine) -> None:
        """Pin ``vm`` to this host, reserving its cores and RAM.

        Raises
        ------
        CapacityError
            If the host cannot fit the VM (placement policies must call
            :meth:`can_fit` first; this is a consistency backstop).
        """
        if not self.can_fit(vm.spec):
            raise CapacityError(
                f"host {self.host_id} cannot fit VM {vm.vm_id} "
                f"(free cores={self.free_cores}, free ram={self.free_ram_mb} MB)"
            )
        if vm.vm_id in self._vms:
            raise CapacityError(f"VM {vm.vm_id} already attached to host {self.host_id}")
        self.free_cores -= vm.spec.cores
        self.free_ram_mb -= vm.spec.ram_mb
        self._vms[vm.vm_id] = vm

    def detach(self, vm: VirtualMachine) -> None:
        """Release the resources of ``vm`` (called on VM destruction)."""
        if self._vms.pop(vm.vm_id, None) is None:
            raise CapacityError(f"VM {vm.vm_id} is not attached to host {self.host_id}")
        self.free_cores += vm.spec.cores
        self.free_ram_mb += vm.spec.ram_mb

    def utilization(self) -> float:
        """Fraction of cores currently allocated to VMs."""
        return 1.0 - self.free_cores / self.cores

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Host {self.host_id} vms={self.vm_count} "
            f"free={self.free_cores}c/{self.free_ram_mb}MB>"
        )
