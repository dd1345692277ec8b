"""Power API context: hardware binding, role enforcement, get/set entry point.

A :class:`PowerApiContext` is what a PowerStack layer holds when it talks
to the hardware through the standard interface: it owns the object tree
built from a :class:`~repro.hardware.cluster.Cluster` (or a bare node
list), knows which :class:`~repro.powerapi.roles.Role` the caller has,
optionally restricts the caller to a *scope* (the nodes of one job), and
turns permission violations and unknown attributes into
:class:`PowerApiError` with spec-style error codes.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.hardware.cluster import Cluster
from repro.hardware.cpu import CpuPackage
from repro.hardware.gpu import GpuDevice
from repro.hardware.node import Node
from repro.powerapi.objects import (
    AttrName,
    AttributeProvider,
    ObjType,
    PowerGroup,
    PowerObject,
)
from repro.powerapi.roles import Role, RolePermissions, default_permissions

__all__ = [
    "ErrorCode",
    "PowerApiError",
    "PowerApiContext",
    "NodeProvider",
    "SocketProvider",
    "AcceleratorProvider",
    "PlatformProvider",
]


class ErrorCode(str, Enum):
    """Spec-style error codes carried by :class:`PowerApiError`."""

    NOT_IMPLEMENTED = "PWR_RET_NOT_IMPLEMENTED"
    NO_PERMISSION = "PWR_RET_NO_PERM"
    BAD_VALUE = "PWR_RET_BAD_VALUE"
    NO_OBJECT = "PWR_RET_NO_OBJ_AT_INDEX"
    OUT_OF_SCOPE = "PWR_RET_OUT_OF_SCOPE"


class PowerApiError(RuntimeError):
    """A failed Power API operation with its spec error code."""

    def __init__(self, code: ErrorCode, message: str):
        super().__init__(f"{code.value}: {message}")
        self.code = code


# ---------------------------------------------------------------------------
# hardware providers
# ---------------------------------------------------------------------------
class SocketProvider(AttributeProvider):
    """Binds a socket-level power object to one :class:`CpuPackage`."""

    _READABLE = (
        AttrName.POWER,
        AttrName.ENERGY,
        AttrName.FREQ,
        AttrName.FREQ_REQUEST,
        AttrName.FREQ_LIMIT_MAX,
        AttrName.FREQ_LIMIT_MIN,
        AttrName.UNCORE_FREQ,
        AttrName.POWER_LIMIT_MAX,
        AttrName.POWER_LIMIT_MIN,
        AttrName.TEMP,
        AttrName.TDP,
    )
    _WRITABLE = (AttrName.POWER_LIMIT_MAX, AttrName.FREQ_REQUEST, AttrName.UNCORE_FREQ)

    def __init__(self, package: CpuPackage):
        self.package = package

    def readable_attrs(self) -> Sequence[AttrName]:
        return self._READABLE

    def writable_attrs(self) -> Sequence[AttrName]:
        return self._WRITABLE

    def read(self, attr: AttrName) -> float:
        pkg = self.package
        if attr is AttrName.POWER:
            # The package does not track a live draw on its own; report the
            # idle floor which is the guaranteed-correct lower bound.
            return pkg.idle_power_w()
        if attr is AttrName.ENERGY:
            return pkg.energy_j
        if attr in (AttrName.FREQ, AttrName.FREQ_REQUEST):
            return pkg.frequency_ghz
        if attr is AttrName.FREQ_LIMIT_MAX:
            return pkg.max_frequency_ghz
        if attr is AttrName.FREQ_LIMIT_MIN:
            return pkg.spec.freq_min_ghz
        if attr is AttrName.UNCORE_FREQ:
            return pkg.uncore_ghz
        if attr is AttrName.POWER_LIMIT_MAX:
            return pkg.power_cap_w if pkg.power_cap_w is not None else pkg.spec.tdp_w
        if attr is AttrName.POWER_LIMIT_MIN:
            return pkg.spec.min_power_cap_w
        if attr is AttrName.TEMP:
            return pkg.thermal.temperature_c
        if attr is AttrName.TDP:
            return pkg.spec.tdp_w
        raise KeyError(attr.value)

    def write(self, attr: AttrName, value: float) -> float:
        pkg = self.package
        if attr is AttrName.POWER_LIMIT_MAX:
            return float(pkg.set_power_cap(value) or pkg.spec.tdp_w)
        if attr is AttrName.FREQ_REQUEST:
            return float(pkg.set_frequency(value))
        if attr is AttrName.UNCORE_FREQ:
            return float(pkg.set_uncore_frequency(value))
        raise KeyError(attr.value)


class AcceleratorProvider(AttributeProvider):
    """Binds an accelerator power object to one :class:`GpuDevice`."""

    _READABLE = (
        AttrName.POWER,
        AttrName.ENERGY,
        AttrName.FREQ,
        AttrName.POWER_LIMIT_MAX,
        AttrName.POWER_LIMIT_MIN,
        AttrName.TDP,
    )
    _WRITABLE = (AttrName.POWER_LIMIT_MAX, AttrName.FREQ_REQUEST)

    def __init__(self, gpu: GpuDevice):
        self.gpu = gpu

    def readable_attrs(self) -> Sequence[AttrName]:
        return self._READABLE

    def writable_attrs(self) -> Sequence[AttrName]:
        return self._WRITABLE

    def read(self, attr: AttrName) -> float:
        gpu = self.gpu
        if attr is AttrName.POWER:
            return gpu.idle_power_w()
        if attr is AttrName.ENERGY:
            return gpu.energy_j
        if attr is AttrName.FREQ:
            return gpu.frequency_ghz
        if attr is AttrName.POWER_LIMIT_MAX:
            return gpu.power_cap_w if gpu.power_cap_w is not None else gpu.spec.max_power_w
        if attr is AttrName.POWER_LIMIT_MIN:
            return gpu.spec.min_power_cap_w
        if attr is AttrName.TDP:
            return gpu.spec.max_power_w
        raise KeyError(attr.value)

    def write(self, attr: AttrName, value: float) -> float:
        if attr is AttrName.POWER_LIMIT_MAX:
            return float(self.gpu.set_power_cap(value) or self.gpu.spec.max_power_w)
        if attr is AttrName.FREQ_REQUEST:
            return float(self.gpu.set_frequency(value))
        raise KeyError(attr.value)


class NodeProvider(AttributeProvider):
    """Binds a node-level power object to one :class:`Node`."""

    _READABLE = (
        AttrName.POWER,
        AttrName.ENERGY,
        AttrName.FREQ,
        AttrName.POWER_LIMIT_MAX,
        AttrName.POWER_LIMIT_MIN,
        AttrName.TEMP,
        AttrName.TDP,
    )
    _WRITABLE = (AttrName.POWER_LIMIT_MAX, AttrName.FREQ_REQUEST, AttrName.UNCORE_FREQ)

    def __init__(self, node: Node):
        self.node = node

    def readable_attrs(self) -> Sequence[AttrName]:
        return self._READABLE

    def writable_attrs(self) -> Sequence[AttrName]:
        return self._WRITABLE

    def read(self, attr: AttrName) -> float:
        node = self.node
        if attr is AttrName.POWER:
            return node.current_power_w if not node.is_free else node.idle_power_w()
        if attr is AttrName.ENERGY:
            return node.total_energy_j()
        if attr is AttrName.FREQ:
            return min(pkg.frequency_ghz for pkg in node.packages)
        if attr is AttrName.POWER_LIMIT_MAX:
            return (
                node.node_power_cap_w
                if node.node_power_cap_w is not None
                else node.max_power_w()
            )
        if attr is AttrName.POWER_LIMIT_MIN:
            return node.spec.min_power_w
        if attr is AttrName.TEMP:
            return node.max_temperature_c()
        if attr is AttrName.TDP:
            return node.max_power_w()
        raise KeyError(attr.value)

    def write(self, attr: AttrName, value: float) -> float:
        node = self.node
        if attr is AttrName.POWER_LIMIT_MAX:
            return float(node.set_power_cap(value) or node.max_power_w())
        if attr is AttrName.FREQ_REQUEST:
            return float(node.set_frequency(value))
        if attr is AttrName.UNCORE_FREQ:
            return float(node.set_uncore_frequency(value))
        raise KeyError(attr.value)


class PlatformProvider(AttributeProvider):
    """Platform-level aggregate view over a set of nodes."""

    _READABLE = (AttrName.POWER, AttrName.ENERGY, AttrName.TDP, AttrName.POWER_LIMIT_MIN)

    def __init__(self, nodes: Sequence[Node]):
        self.nodes = list(nodes)

    def readable_attrs(self) -> Sequence[AttrName]:
        return self._READABLE

    def read(self, attr: AttrName) -> float:
        if attr is AttrName.POWER:
            return sum(
                n.current_power_w if not n.is_free else n.idle_power_w() for n in self.nodes
            )
        if attr is AttrName.ENERGY:
            return sum(n.total_energy_j() for n in self.nodes)
        if attr is AttrName.TDP:
            return sum(n.max_power_w() for n in self.nodes)
        if attr is AttrName.POWER_LIMIT_MIN:
            return sum(n.spec.min_power_w for n in self.nodes)
        raise KeyError(attr.value)


# ---------------------------------------------------------------------------
# the context
# ---------------------------------------------------------------------------
class PowerApiContext:
    """Role-scoped entry point to the Power API object tree."""

    def __init__(
        self,
        root: PowerObject,
        role: Role = Role.MONITOR,
        permissions: Optional[Mapping[Role, RolePermissions]] = None,
        scope_paths: Optional[Iterable[str]] = None,
    ):
        self.root = root
        self.role = role
        self._permissions = dict(permissions or default_permissions())
        if role not in self._permissions:
            raise ValueError(f"no permissions defined for role {role.value!r}")
        #: When set, writes are only allowed on objects whose path starts
        #: with one of these prefixes (e.g. the nodes of the caller's job).
        self._scope_prefixes: Optional[List[str]] = (
            [p.rstrip("/") for p in scope_paths] if scope_paths is not None else None
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def for_cluster(
        cls,
        cluster: Cluster,
        role: Role = Role.MONITOR,
        permissions: Optional[Mapping[Role, RolePermissions]] = None,
        scope_hostnames: Optional[Iterable[str]] = None,
    ) -> "PowerApiContext":
        """Build the platform → node → socket/accelerator tree for a cluster."""
        root = PowerObject(
            ObjType.PLATFORM, cluster.spec.name, provider=PlatformProvider(cluster.nodes)
        )
        for node in cluster.nodes:
            cls._attach_node(root, node)
        scope_paths = None
        if scope_hostnames is not None:
            scope_paths = [f"{root.name}/{hostname}" for hostname in scope_hostnames]
        return cls(root, role=role, permissions=permissions, scope_paths=scope_paths)

    # No src caller; kept for §3.1.1 runtime view of one job.
    @classmethod
    def for_nodes(  # repro-lint: disable=RL006
        cls,
        nodes: Sequence[Node],
        role: Role = Role.RUNTIME,
        platform_name: str = "allocation",
        permissions: Optional[Mapping[Role, RolePermissions]] = None,
    ) -> "PowerApiContext":
        """Build a tree over one job's allocated nodes (runtime-side view)."""
        root = PowerObject(ObjType.PLATFORM, platform_name, provider=PlatformProvider(nodes))
        for node in nodes:
            cls._attach_node(root, node)
        return cls(root, role=role, permissions=permissions)

    @staticmethod
    def _attach_node(root: PowerObject, node: Node) -> PowerObject:
        node_obj = root.add_child(ObjType.NODE, node.hostname, provider=NodeProvider(node))
        for pkg in node.packages:
            node_obj.add_child(
                ObjType.SOCKET, f"socket-{pkg.package_id}", provider=SocketProvider(pkg)
            )
        for gpu in node.gpus:
            node_obj.add_child(
                ObjType.ACCELERATOR,
                f"accelerator-{gpu.device_id}",
                provider=AcceleratorProvider(gpu),
            )
        return node_obj

    # -- permissions --------------------------------------------------------
    @property
    def permissions(self) -> RolePermissions:
        return self._permissions[self.role]

    def with_role(self, role: Role) -> "PowerApiContext":
        """A sibling context over the same tree with a different role."""
        ctx = PowerApiContext(self.root, role=role, permissions=self._permissions)
        ctx._scope_prefixes = self._scope_prefixes
        return ctx

    def _in_scope(self, obj: PowerObject) -> bool:
        if self._scope_prefixes is None:
            return True
        path = obj.path
        return any(path == p or path.startswith(p + "/") for p in self._scope_prefixes)

    def in_scope(self, path_or_obj) -> bool:
        """Whether an object lies inside this context's write scope.

        Public counterpart of the check :meth:`write` applies, so batch
        operations (the control-plane service's vectorised power-cap
        commands) can enforce the same scope without issuing per-object
        writes.
        """
        return self._in_scope(self._resolve(path_or_obj))

    # -- navigation ---------------------------------------------------------
    def object(self, path: str) -> PowerObject:
        """Resolve an absolute path (rooted at the platform object)."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            return self.root
        if parts[0] == self.root.name:
            parts = parts[1:]
        try:
            return self.root.find("/".join(parts))
        except KeyError as exc:
            raise PowerApiError(ErrorCode.NO_OBJECT, str(exc)) from exc

    def objects_of_type(self, obj_type: ObjType) -> List[PowerObject]:
        if self.root.obj_type is obj_type:
            return [self.root]
        return self.root.descendants(obj_type)

    def group(self, name: str, obj_type: ObjType) -> PowerGroup:
        """A group of every object of one type (scoped contexts: in scope only)."""
        members = [o for o in self.objects_of_type(obj_type) if self._in_scope(o)]
        return PowerGroup(name=name, members=members)

    # -- attribute access ------------------------------------------------------
    def read(self, path_or_obj, attr: AttrName) -> float:
        obj = self._resolve(path_or_obj)
        if not self.permissions.may_read(attr):
            raise PowerApiError(
                ErrorCode.NO_PERMISSION,
                f"role {self.role.value!r} may not read {attr.value!r}",
            )
        try:
            return obj.read(attr)
        except KeyError as exc:
            raise PowerApiError(ErrorCode.NOT_IMPLEMENTED, str(exc)) from exc

    def write(self, path_or_obj, attr: AttrName, value: float) -> float:
        obj = self._resolve(path_or_obj)
        if not self.permissions.may_write(attr, obj.obj_type):
            raise PowerApiError(
                ErrorCode.NO_PERMISSION,
                f"role {self.role.value!r} may not write {attr.value!r} "
                f"on a {obj.obj_type.value}",
            )
        if not self._in_scope(obj):
            raise PowerApiError(
                ErrorCode.OUT_OF_SCOPE,
                f"{obj.path!r} is outside this context's scope",
            )
        if value < 0 and attr is not AttrName.GOV:
            raise PowerApiError(
                ErrorCode.BAD_VALUE, f"negative value {value} for {attr.value!r}"
            )
        try:
            return obj.write(attr, value)
        except KeyError as exc:
            raise PowerApiError(ErrorCode.NOT_IMPLEMENTED, str(exc)) from exc

    def _resolve(self, path_or_obj) -> PowerObject:
        if isinstance(path_or_obj, PowerObject):
            return path_or_obj
        return self.object(str(path_or_obj))

    # -- convenience telemetry ----------------------------------------------
    def system_power_w(self) -> float:
        """Platform power (W) as seen through the standard interface."""
        return self.read(self.root, AttrName.POWER)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Read every readable attribute of every in-scope object."""
        out: Dict[str, Dict[str, float]] = {}
        for obj in self.root.walk():
            if not self._in_scope(obj):
                continue
            row: Dict[str, float] = {}
            for attr in obj.readable_attrs():
                if not self.permissions.may_read(attr):
                    continue
                try:
                    row[attr.value] = obj.read(attr)
                except KeyError:
                    continue
            if row:
                out[obj.path] = row
        return out
