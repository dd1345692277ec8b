"""Power API object hierarchy, attributes and groups.

The Sandia Power API models the system as a tree of *power objects*
(platform, cabinet, board, node, socket, core, memory, NIC, accelerator)
each exposing typed *attributes* (power, energy, frequency, power limits,
temperature, governor).  Software navigates the tree, reads attributes,
and — subject to its role — writes the writable ones.  This module
implements that object model; the hardware binding is supplied by
*providers* (see :mod:`repro.powerapi.context`), so the object tree
itself stays hardware-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "ObjType",
    "AttrName",
    "AttrAccess",
    "AttributeSpec",
    "AttributeProvider",
    "PowerObject",
    "PowerGroup",
    "ATTRIBUTE_SPECS",
]


class ObjType(str, Enum):
    """Power API object types (the levels of the hardware tree)."""

    PLATFORM = "platform"
    CABINET = "cabinet"
    BOARD = "board"
    NODE = "node"
    SOCKET = "socket"
    CORE = "core"
    MEMORY = "memory"
    NIC = "nic"
    ACCELERATOR = "accelerator"


class AttrName(str, Enum):
    """Typed attributes a power object may expose."""

    #: Instantaneous power draw (W).
    POWER = "power"
    #: Cumulative energy counter (J).
    ENERGY = "energy"
    #: Upper power limit / cap currently in force (W).
    POWER_LIMIT_MAX = "power_limit_max"
    #: Lowest enforceable power limit (W).
    POWER_LIMIT_MIN = "power_limit_min"
    #: Current operating frequency (GHz).
    FREQ = "freq"
    #: Maximum settable frequency (GHz).
    FREQ_LIMIT_MAX = "freq_limit_max"
    #: Minimum settable frequency (GHz).
    FREQ_LIMIT_MIN = "freq_limit_min"
    #: Requested frequency target (GHz).
    FREQ_REQUEST = "freq_request"
    #: Uncore frequency (GHz).
    UNCORE_FREQ = "uncore_freq"
    #: Die / component temperature (degC).
    TEMP = "temp"
    #: Thermal design power of the component (W).
    TDP = "tdp"
    #: Governor / policy label (string-valued, carried as a float index).
    GOV = "gov"


class AttrAccess(str, Enum):
    """Whether an attribute is readable, writable, or both."""

    READ_ONLY = "ro"
    WRITE_ONLY = "wo"
    READ_WRITE = "rw"


@dataclass(frozen=True)
class AttributeSpec:
    """Static description of one attribute: units and nominal access."""

    name: AttrName
    units: str
    access: AttrAccess
    description: str


#: The canonical attribute dictionary (Power API "attribute" table analogue).
ATTRIBUTE_SPECS: Dict[AttrName, AttributeSpec] = {
    AttrName.POWER: AttributeSpec(AttrName.POWER, "W", AttrAccess.READ_ONLY,
                                  "instantaneous power draw"),
    AttrName.ENERGY: AttributeSpec(AttrName.ENERGY, "J", AttrAccess.READ_ONLY,
                                   "cumulative energy counter"),
    AttrName.POWER_LIMIT_MAX: AttributeSpec(AttrName.POWER_LIMIT_MAX, "W", AttrAccess.READ_WRITE,
                                            "upper power limit (cap)"),
    AttrName.POWER_LIMIT_MIN: AttributeSpec(AttrName.POWER_LIMIT_MIN, "W", AttrAccess.READ_ONLY,
                                            "lowest enforceable power limit"),
    AttrName.FREQ: AttributeSpec(AttrName.FREQ, "GHz", AttrAccess.READ_ONLY,
                                 "current operating frequency"),
    AttrName.FREQ_LIMIT_MAX: AttributeSpec(AttrName.FREQ_LIMIT_MAX, "GHz", AttrAccess.READ_ONLY,
                                           "maximum settable frequency"),
    AttrName.FREQ_LIMIT_MIN: AttributeSpec(AttrName.FREQ_LIMIT_MIN, "GHz", AttrAccess.READ_ONLY,
                                           "minimum settable frequency"),
    AttrName.FREQ_REQUEST: AttributeSpec(AttrName.FREQ_REQUEST, "GHz", AttrAccess.READ_WRITE,
                                         "requested frequency target"),
    AttrName.UNCORE_FREQ: AttributeSpec(AttrName.UNCORE_FREQ, "GHz", AttrAccess.READ_WRITE,
                                        "uncore frequency"),
    AttrName.TEMP: AttributeSpec(AttrName.TEMP, "degC", AttrAccess.READ_ONLY,
                                 "component temperature"),
    AttrName.TDP: AttributeSpec(AttrName.TDP, "W", AttrAccess.READ_ONLY,
                                "thermal design power"),
    AttrName.GOV: AttributeSpec(AttrName.GOV, "index", AttrAccess.READ_WRITE,
                                "governor / policy selector"),
}


class AttributeProvider:
    """Hardware binding of one power object.

    Subclasses (in :mod:`repro.powerapi.context`) read from and write to
    the simulated hardware.  The base class exposes nothing: attempting
    to access an attribute the provider does not implement raises
    ``KeyError`` which the context turns into a Power API error code.
    """

    def readable_attrs(self) -> Sequence[AttrName]:
        return ()

    def writable_attrs(self) -> Sequence[AttrName]:
        return ()

    def read(self, attr: AttrName) -> float:
        raise KeyError(f"attribute {attr.value!r} is not readable on this object")

    def write(self, attr: AttrName, value: float) -> float:
        raise KeyError(f"attribute {attr.value!r} is not writable on this object")


class PowerObject:
    """One node of the Power API object tree."""

    def __init__(
        self,
        obj_type: ObjType,
        name: str,
        provider: Optional[AttributeProvider] = None,
        parent: Optional["PowerObject"] = None,
    ):
        self.obj_type = obj_type
        self.name = name
        self.provider = provider or AttributeProvider()
        self.parent = parent
        self.children: List["PowerObject"] = []
        if parent is not None:
            parent.children.append(self)

    # -- tree navigation -----------------------------------------------------
    @property
    def depth(self) -> int:
        return 0 if self.parent is None else self.parent.depth + 1

    @property
    def path(self) -> str:
        """Slash-separated path from the root, e.g. ``platform/node-0003/socket-1``."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}/{self.name}"

    def add_child(
        self, obj_type: ObjType, name: str, provider: Optional[AttributeProvider] = None
    ) -> "PowerObject":
        return PowerObject(obj_type, name, provider=provider, parent=self)

    def walk(self) -> Iterator["PowerObject"]:
        """Depth-first traversal including this object."""
        yield self
        for child in self.children:
            yield from child.walk()

    def descendants(self, obj_type: Optional[ObjType] = None) -> List["PowerObject"]:
        """All objects below (and excluding) this one, optionally filtered by type."""
        out = [obj for obj in self.walk() if obj is not self]
        if obj_type is not None:
            out = [obj for obj in out if obj.obj_type is obj_type]
        return out

    def find(self, path: str) -> "PowerObject":
        """Resolve a path relative to this object (``"node-0001/socket-0"``)."""
        obj: PowerObject = self
        for part in [p for p in path.split("/") if p]:
            match = next((c for c in obj.children if c.name == part), None)
            if match is None:
                raise KeyError(f"no object {part!r} under {obj.path!r}")
            obj = match
        return obj

    # -- attribute access ------------------------------------------------------
    def readable_attrs(self) -> List[AttrName]:
        return list(self.provider.readable_attrs())

    def writable_attrs(self) -> List[AttrName]:
        return list(self.provider.writable_attrs())

    def read(self, attr: AttrName) -> float:
        """Read an attribute from this object's provider."""
        return float(self.provider.read(attr))

    def write(self, attr: AttrName, value: float) -> float:
        """Write an attribute; returns the value actually applied."""
        return float(self.provider.write(attr, float(value)))

    def __repr__(self) -> str:
        return f"PowerObject({self.obj_type.value}, {self.path!r}, children={len(self.children)})"


@dataclass
class PowerGroup:
    """A named set of power objects operated on together.

    The Power API lets callers build groups (e.g. "all sockets of my
    job's nodes") and issue one get/set over the whole group — which is
    exactly how a job-level runtime applies a uniform cap.
    """

    name: str
    members: List[PowerObject] = field(default_factory=list)

    def add(self, obj: PowerObject) -> "PowerGroup":
        if obj not in self.members:
            self.members.append(obj)
        return self

    def extend(self, objs: Iterable[PowerObject]) -> "PowerGroup":
        for obj in objs:
            self.add(obj)
        return self

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[PowerObject]:
        return iter(self.members)

    def read(self, attr: AttrName) -> Dict[str, float]:
        """Read one attribute from every member (path → value)."""
        return {obj.path: obj.read(attr) for obj in self.members}

    def write(self, attr: AttrName, value: float) -> Dict[str, float]:
        """Write the same value to every member (path → applied value)."""
        return {obj.path: obj.write(attr, value) for obj in self.members}

    def total(self, attr: AttrName) -> float:
        return float(sum(self.read(attr).values()))

    def statistics(self, attr: AttrName) -> Dict[str, float]:
        """Min / max / mean / total of an attribute over the group."""
        values = np.asarray(list(self.read(attr).values()), dtype=float)
        if values.size == 0:
            return {"count": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0, "total": 0.0}
        return {
            "count": float(values.size),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "total": float(values.sum()),
        }
