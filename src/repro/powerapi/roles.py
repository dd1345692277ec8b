"""Power API roles and the attribute permission matrix.

The Power API specification defines *roles* — who is calling the
interface — and scopes what each role may read and write.  The paper's
end-to-end framework leans on exactly this separation: the resource
manager may move node power limits, a job-level runtime may move limits
on *its own* nodes, an application may only report/monitor, and a
site-wide monitoring daemon reads everything but writes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet

from repro.powerapi.objects import AttrName, ObjType

__all__ = ["Role", "RolePermissions", "default_permissions"]


class Role(str, Enum):
    """Who is talking to the Power API (the spec's actor roles)."""

    #: The application itself (APP): telemetry only.
    APPLICATION = "application"
    #: A monitoring/management daemon (MC): read-only, system-wide.
    MONITOR = "monitor"
    #: The node operating system (OS): node-local control.
    OPERATING_SYSTEM = "operating_system"
    #: The job-level runtime (USER in the spec's terms, e.g. GEOPM/Conductor).
    RUNTIME = "runtime"
    #: The system resource manager (RM, e.g. SLURM).
    RESOURCE_MANAGER = "resource_manager"
    #: Facility administrator: unrestricted.
    ADMINISTRATOR = "administrator"


@dataclass(frozen=True)
class RolePermissions:
    """What one role may read and write, and at which tree levels."""

    role: Role
    readable: FrozenSet[AttrName]
    writable: FrozenSet[AttrName]
    #: Object types on which *writes* are allowed (reads are allowed anywhere
    #: the attribute itself is readable).
    write_scope: FrozenSet[ObjType]

    def may_read(self, attr: AttrName) -> bool:
        return attr in self.readable

    def may_write(self, attr: AttrName, obj_type: ObjType) -> bool:
        return attr in self.writable and obj_type in self.write_scope


_ALL_ATTRS: FrozenSet[AttrName] = frozenset(AttrName)
_ALL_TYPES: FrozenSet[ObjType] = frozenset(ObjType)
_TELEMETRY: FrozenSet[AttrName] = frozenset(
    {
        AttrName.POWER,
        AttrName.ENERGY,
        AttrName.FREQ,
        AttrName.TEMP,
        AttrName.TDP,
        AttrName.POWER_LIMIT_MAX,
        AttrName.POWER_LIMIT_MIN,
        AttrName.FREQ_LIMIT_MAX,
        AttrName.FREQ_LIMIT_MIN,
        AttrName.UNCORE_FREQ,
        AttrName.FREQ_REQUEST,
        AttrName.GOV,
    }
)
_CONTROL: FrozenSet[AttrName] = frozenset(
    {
        AttrName.POWER_LIMIT_MAX,
        AttrName.FREQ_REQUEST,
        AttrName.UNCORE_FREQ,
        AttrName.GOV,
    }
)


def default_permissions() -> Dict[Role, RolePermissions]:
    """The default role → permissions matrix.

    * application / monitor: read everything, write nothing;
    * operating system: node-local control (node, socket, memory);
    * runtime: control at node and socket granularity (its own job's
      nodes — the *which* nodes part is enforced by the context's scope);
    * resource manager: control at platform, cabinet and node granularity;
    * administrator: everything everywhere.
    """
    return {
        Role.APPLICATION: RolePermissions(
            Role.APPLICATION, _TELEMETRY, frozenset(), frozenset()
        ),
        Role.MONITOR: RolePermissions(Role.MONITOR, _TELEMETRY, frozenset(), frozenset()),
        Role.OPERATING_SYSTEM: RolePermissions(
            Role.OPERATING_SYSTEM,
            _TELEMETRY,
            _CONTROL,
            frozenset({ObjType.NODE, ObjType.SOCKET, ObjType.CORE, ObjType.MEMORY}),
        ),
        Role.RUNTIME: RolePermissions(
            Role.RUNTIME,
            _TELEMETRY,
            _CONTROL,
            frozenset({ObjType.NODE, ObjType.SOCKET, ObjType.ACCELERATOR}),
        ),
        Role.RESOURCE_MANAGER: RolePermissions(
            Role.RESOURCE_MANAGER,
            _TELEMETRY,
            _CONTROL,
            frozenset({ObjType.PLATFORM, ObjType.CABINET, ObjType.NODE}),
        ),
        Role.ADMINISTRATOR: RolePermissions(
            Role.ADMINISTRATOR, _ALL_ATTRS, _ALL_ATTRS, _ALL_TYPES
        ),
    }
