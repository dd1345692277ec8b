"""The control-plane facade: one versioned service over every stack layer.

:class:`StackService` is the transport-agnostic entry point the paper's
argument calls for — the layers of the stack (site → resource manager →
job runtime → node hardware) reachable through *one* standardised,
role-checked command surface instead of per-subsystem Python APIs.
Commands arrive as typed :class:`~repro.service.envelopes.Request`
envelopes and leave as :class:`~repro.service.envelopes.Response`
envelopes; failures are structured error codes, never exceptions through
the facade.

Sessions are first-class and multi-tenant: :meth:`StackService.handle`
dispatches every command under the session's Power API
:class:`~repro.powerapi.roles.Role` (the same permission matrix
``PowerApiContext`` enforces — a role-denied command answers with the
same ``PWR_RET_*`` code the context would raise), a deterministic
per-tenant RNG stream seeds the session's tuning searches, and an
optional evaluation quota bounds what one tenant can spend.

Batch commands ride the vectorised kernels: one ``power.set_caps``
envelope for an index array of nodes lands in a single
:meth:`~repro.hardware.cluster.Cluster.apply_power_caps` pass, and every
result — ask/tell tuning telemetry, served autotuning runs, whole
campaigns — is captured in a
:class:`~repro.telemetry.sharding.ShardedPerformanceDatabase` routed by
tenant/session key.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union
from typing import get_args, get_origin, get_type_hints

import numpy as np

from repro.apps.base import Application
from repro.apps.generator import JobRequest
from repro.apps.hypre import HypreLaplacian
from repro.apps.kernels import TileableKernel
from repro.apps.lulesh import LuleshProxy
from repro.apps.stream import DgemmKernel, StreamTriad
from repro.core.objectives import PENALTY_OBJECTIVE
from repro.core.search.base import SearchAlgorithm, make_search, search_class
from repro.core.space import ParameterSpace
from repro.core.tuner import Autotuner
from repro.experiments.campaign import Campaign
from repro.experiments.registry import build_scenario, list_use_cases
from repro.experiments.shared import make_cluster
from repro.hardware.cluster import Cluster
from repro.powerapi.context import PowerApiContext, PowerApiError
from repro.powerapi.objects import AttrName, ObjType
from repro.powerapi.roles import Role
from repro.resource_manager.job import JobState
from repro.resource_manager.slurm import PowerAwareScheduler, SchedulerConfig
from repro.runtime.base import JobRuntime
from repro.service.envelopes import (
    MAX_WIRE_BYTES,
    PROTOCOL_VERSION,
    WIRE_ENCODE_ERRORS,
    Request,
    Response,
    ServiceError,
    ServiceErrorCode,
    not_wire_safe,
    parse_wire_request,
    protocol_compatible,
)
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.telemetry.database import EvaluationRecord, SnapshotCorruptError, objective_stats
from repro.telemetry.sharding import ShardedPerformanceDatabase

__all__ = [
    "StackService",
    "Session",
    "EVALUATOR_REGISTRY",
    "register_evaluator",
]


# ---------------------------------------------------------------------------
# served evaluators (for tuning.run, which drives an Autotuner here)
# ---------------------------------------------------------------------------
def quadratic_evaluator(config: Mapping[str, Any]) -> Dict[str, float]:
    """Sum of squared distances of numeric parameters from 1.0."""
    value = sum(
        (float(v) - 1.0) ** 2
        for v in config.values()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    )
    return {"runtime_s": 0.1 + value}


def linear_evaluator(config: Mapping[str, Any]) -> Dict[str, float]:
    """Sum of numeric parameter values (smaller is better)."""
    value = sum(
        float(v)
        for v in config.values()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    )
    return {"runtime_s": 0.1 + abs(value)}


#: Named evaluators ``tuning.run`` may execute service-side.  Module-level
#: functions, so the batched tuner's process executor could ship them.
EVALUATOR_REGISTRY: Dict[str, Callable[[Mapping[str, Any]], Mapping[str, float]]] = {
    "quadratic": quadratic_evaluator,
    "linear": linear_evaluator,
}


def register_evaluator(
    name: str, evaluator: Callable[[Mapping[str, Any]], Mapping[str, float]]
) -> None:
    """Register a named evaluator for ``tuning.run`` commands."""
    EVALUATOR_REGISTRY[str(name)] = evaluator


#: Applications the ``jobs.submit`` envelope can instantiate by kind.
_APP_BUILDERS: Dict[str, Callable[..., Application]] = {
    "stream": StreamTriad,
    "dgemm": DgemmKernel,
    "hypre": HypreLaplacian,
    "lulesh": LuleshProxy,
    "kernel": TileableKernel,
}


def _build_application(spec: Any) -> Application:
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ServiceError(
            ServiceErrorCode.BAD_REQUEST,
            "'app' must be a kind name or an object with a 'kind' field",
        )
    kind = spec["kind"]
    builder = _APP_BUILDERS.get(kind)
    if builder is None:
        raise ServiceError(
            ServiceErrorCode.BAD_REQUEST,
            f"unknown application kind {kind!r}; available: {sorted(_APP_BUILDERS)}",
        )
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return builder(**kwargs)
    except (TypeError, ValueError, OverflowError) as error:
        raise ServiceError(
            ServiceErrorCode.BAD_REQUEST, f"bad application spec for {kind!r}: {error}"
        ) from error


# ---------------------------------------------------------------------------
# the command schema, derived from the ``_cmd_<family>_<verb>`` handlers
# ---------------------------------------------------------------------------
#: Handler annotation -> (wire kind, kind check); ``Optional[X]`` reads as ``X``.
_WIRE_KINDS: Dict[Any, Tuple[str, Callable[[Any], bool]]] = {
    str: ("str", lambda v: isinstance(v, str)),
    int: ("int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    bool: ("bool", lambda v: isinstance(v, bool)),
    list: ("list", lambda v: isinstance(v, list)),
    Mapping: ("dict", lambda v: isinstance(v, Mapping)),
    Any: ("any", lambda v: True),
}


def _finite(value: float) -> bool:
    """Whether a wire number is a finite float.  NaN fails every comparison,
    and an int beyond the float range compares exactly, so neither passes."""
    return -sys.float_info.max <= value <= sys.float_info.max


def _metrics(value: Any) -> Dict[str, float]:
    """A ``tuning.tell`` result's ``metrics``: an object of finite numbers
    (every key is checked before any value)."""
    if (type(value) is not dict and not isinstance(value, Mapping)) or not all(
        isinstance(key, str) for key in value
    ):
        raise ServiceError(
            ServiceErrorCode.BAD_REQUEST, "each result's 'metrics' must be an object"
        )
    is_number = _WIRE_KINDS[float][1]
    for key, number in value.items():
        if (type(number) is not float and not is_number(number)) or not _finite(number):
            raise ServiceError(
                ServiceErrorCode.BAD_VALUE,
                f"each result's 'metrics' values must be finite numbers ({key!r})",
            )
    return dict(value)


def _check_search(search: str) -> None:
    """SVC_RET_BAD_REQUEST for an unknown search name, checked before a
    request spends a tuner or run id and the seed stream named by it."""
    try:
        search_class(search)
    except ValueError as error:
        raise ServiceError(ServiceErrorCode.BAD_REQUEST, str(error)) from error


def _check_seed(seed: Optional[int]) -> None:
    """SVC_RET_BAD_REQUEST for a negative seed, checked, like the search,
    before a request spends a tuner or run id."""
    if seed is not None and seed < 0:
        raise ServiceError(ServiceErrorCode.BAD_REQUEST, "seed must be >= 0")


def _wire_kind(annotation: Any) -> Tuple[str, Callable[[Any], bool]]:
    members = [arg for arg in get_args(annotation) if arg is not type(None)]
    if get_origin(annotation) is Union and len(members) == 1:
        annotation = members[0]
    return _WIRE_KINDS[get_origin(annotation) or annotation]


class _Command:
    """One wire command and the validator its handler's signature implies.

    ``_cmd_<family>_<verb>`` serves ``<family>.<verb>``.  A leading
    ``session`` parameter means the command needs a session; every other
    parameter is an argument, required when it has no default, whose wire
    kind comes from its annotation.  ``null`` passes only an argument
    annotated ``Optional[...]`` or ``Any``.
    """

    def __init__(self, handler: Callable[..., Any]):
        params = list(inspect.signature(handler).parameters.values())[1:]  # self
        self.requires_session = bool(params) and params[0].name == "session"
        if self.requires_session:
            params = params[1:]
        hints = get_type_hints(handler)
        self.op = handler.__name__[len("_cmd_"):].replace("_", ".", 1)
        self.handler = handler
        self.doc = inspect.getdoc(handler) or ""
        #: name -> (wire kind, kind check, required), in signature order
        self.args = {
            p.name: (*_wire_kind(hints[p.name]), p.default is inspect.Parameter.empty)
            for p in params
        }
        self.names = frozenset(self.args)
        self.required = frozenset(name for name, spec in self.args.items() if spec[2])
        self.optional = frozenset(
            name for name in self.args if type(None) in get_args(hints[name])
        )

    def validate(self, given: Mapping[str, Any]) -> None:
        """Reject unknown, missing, wrong-kind and non-finite arguments;
        ``null`` is of kind ``any`` and of every ``Optional`` kind."""
        keys = given.keys()
        if not keys <= self.names:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"{self.op}: unknown argument(s) {sorted(keys - self.names)}; "
                f"accepted: {sorted(self.names)}",
            )
        if not keys >= self.required:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"{self.op}: missing required argument(s) "
                f"{sorted(self.required.difference(keys))}",
            )
        for name, value in given.items():
            if value is None and name in self.optional:
                continue
            kind, accepts, _ = self.args[name]
            if not accepts(value):
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST,
                    f"{self.op}: argument {name!r} must be of kind {kind!r}",
                )
            if kind == "number" and not _finite(value):
                raise ServiceError(
                    ServiceErrorCode.BAD_VALUE,
                    f"{self.op}: argument {name!r} must be a finite number",
                )

    def describe(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "doc": self.doc,
            "requires_session": self.requires_session,
            "args": [
                {"name": name, "kind": kind, "required": required}
                for name, (kind, _, required) in self.args.items()
            ],
        }


def _derive_commands(cls: type) -> Dict[str, _Command]:
    """``cls``'s command table, one command per ``_cmd_*`` method in definition order."""
    commands = [_Command(fn) for name, fn in vars(cls).items() if name.startswith("_cmd_")]
    return {command.op: command for command in commands}


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------
@dataclass
class _TuningState:
    """One open ask/tell tuning exchange inside a session."""

    tuner_id: str
    space: ParameterSpace
    search: SearchAlgorithm
    minimize: bool
    batch_size: int
    seed: int
    told: int = 0
    #: Best *feasible* record told so far (a reported best must be
    #: deployable), kept current by :meth:`fold`.
    best: Optional[EvaluationRecord] = None

    def fold(self, record: EvaluationRecord) -> None:
        """Fold one record of this tuner, in global order, into ``best``.

        Only a strictly better objective displaces the best, so ties keep
        the earlier record, exactly as ``min``/``max`` over the tuner's
        records in global order would.
        """
        if not record.feasible:
            return
        best = self.best
        if (
            best is None
            or (self.minimize and record.objective < best.objective)
            or (not self.minimize and record.objective > best.objective)
        ):
            self.best = record


@dataclass
class Session:
    """One tenant's handle on the service."""

    session_id: str
    tenant: str
    role: Role
    context: PowerApiContext
    streams: RandomStreams
    quota: Optional[int] = None
    used_evaluations: int = 0
    tuners: Dict[str, _TuningState] = field(default_factory=dict)
    _tuner_counter: int = 0
    #: The tenant's session ordinal (n-th session of this tenant) — part
    #: of the RNG stream derivation, so a restored session re-derives the
    #: exact streams the original had.
    ordinal: int = 1
    #: The scope restriction session.open applied, kept for snapshots.
    scope_hostnames: Optional[List[str]] = None

    def check_quota(self, evaluations: int) -> None:
        """Structured error when spending ``evaluations`` would overrun."""
        if self.quota is not None and self.used_evaluations + evaluations > self.quota:
            raise ServiceError(
                ServiceErrorCode.QUOTA_EXCEEDED,
                f"session {self.session_id!r} quota exhausted: "
                f"{self.used_evaluations}/{self.quota} used, {evaluations} requested",
            )

    def charge(self, evaluations: int) -> None:
        """Spend quota; structured error when the budget would overrun."""
        self.check_quota(evaluations)
        self.used_evaluations += evaluations

    def info(self) -> Dict[str, Any]:
        return {
            "session": self.session_id,
            "tenant": self.tenant,
            "role": self.role.value,
            "quota": self.quota,
            "used_evaluations": self.used_evaluations,
            "open_tuners": sorted(self.tuners),
            "rng_seed": self.streams.seed,
        }


#: Roles allowed to drive the shared DES clock / whole-machine actions.
_OPERATOR_ROLES = (Role.RESOURCE_MANAGER, Role.ADMINISTRATOR)
#: Roles whose database queries see every tenant (site-wide read).
_SITE_READ_ROLES = (Role.MONITOR, Role.ADMINISTRATOR)
#: Read-only actor roles: telemetry only, no state mutation anywhere.
_READ_ONLY_ROLES = (Role.APPLICATION, Role.MONITOR)


class StackService:
    """Versioned multi-tenant control plane over the whole stack.

    Each ``_cmd_*`` method is one wire command: its signature is the
    command's schema and its docstring the command's doc.  ``_commands``,
    derived from them once below the class, is what both dispatch and
    ``service.describe`` read.

    A handler returns fresh containers (``to_dict()``, ``info()``, a new
    dict), never one the service keeps and mutates: the response carries
    the result as returned and a transport encodes it after the lock is
    released, once, before it dispatches the next envelope.
    """

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        n_nodes: int = 8,
        seed: int = 0,
        n_shards: int = 4,
        default_quota: Optional[int] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
    ):
        self.cluster = cluster if cluster is not None else make_cluster(n_nodes, seed)
        self.seed = int(seed)
        self.env = Environment()
        self.scheduler = PowerAwareScheduler(
            self.env,
            self.cluster,
            config=scheduler_config,
            streams=RandomStreams(seed).spawn("service-scheduler"),
        )
        self.database = ShardedPerformanceDatabase(n_shards=n_shards, name="service")
        self.default_quota = default_quota
        self._streams = RandomStreams(seed)
        self._admin_context = PowerApiContext.for_cluster(
            self.cluster, role=Role.ADMINISTRATOR
        )
        self._node_index = {
            node.hostname: index for index, node in enumerate(self.cluster.nodes)
        }
        self._sessions: Dict[str, Session] = {}
        self._session_counter = 0
        self._tenant_counters: Dict[str, int] = {}
        self._job_counter = 0
        self._run_counter = 0
        #: One facade, many tenants: dispatch is serialised, so concurrent
        #: clients (threads, a real server front-end) can share the service.
        self._lock = threading.RLock()

    def close(self) -> None:
        """Detach the database's write-ahead journal, if any, and close it."""
        with self._lock:
            journal = self.database.detach_journal()
            if journal is not None:
                journal.close()

    # -- dispatch ----------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Dispatch one envelope.  Never raises: failures are responses."""
        with self._lock:
            try:
                compatible, ours = protocol_compatible(request.protocol)
                if not compatible:
                    raise ServiceError(
                        ServiceErrorCode.UNSUPPORTED_PROTOCOL,
                        f"protocol {request.protocol!r} not served "
                        f"(this service speaks {PROTOCOL_VERSION})",
                    )
                command = self._commands.get(request.op)
                if command is None:
                    raise ServiceError(
                        ServiceErrorCode.UNKNOWN_COMMAND,
                        f"unknown command {request.op!r}; "
                        f"see service.describe for the command list",
                    )
                command.validate(request.args)
                if command.requires_session:
                    session = self._session_of(request)
                    result = command.handler(self, session, **request.args)
                else:
                    result = command.handler(self, **request.args)
                return Response.success(result, request=request)
            except ServiceError as error:
                return Response.failure(error.code, error.message, request=request)
            except PowerApiError as error:
                return Response.failure(
                    ServiceErrorCode(error.code.value), str(error), request=request
                )
            # Before ValueError: SnapshotCorruptError subclasses it, and
            # storage corruption must stay distinguishable on the wire.
            except SnapshotCorruptError as error:
                return Response.failure(
                    ServiceErrorCode.SNAPSHOT_CORRUPT, str(error), request=request
                )
            except ValueError as error:
                return Response.failure(
                    ServiceErrorCode.BAD_VALUE, str(error), request=request
                )
            except Exception as error:  # the facade never raises
                return Response.failure(
                    ServiceErrorCode.INTERNAL,
                    f"{type(error).__name__}: {error}",
                    request=request,
                )

    def handle_dict(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Dict → dict dispatch (what a JSON transport calls).

        Returns the response's pre-encode form (:meth:`Response.to_dict`):
        the caller encodes it with :func:`~repro.service.envelopes.encode_wire`
        before it dispatches another envelope.
        """
        try:
            request = Request.from_dict(payload)
        except ServiceError as error:
            return Response.failure(error.code, error.message).to_dict()
        return self.handle(request).to_dict()

    #: Upper bound on one wire line — the transport-shared limit from
    #: :data:`repro.service.envelopes.MAX_WIRE_BYTES` (the framed TCP
    #: transport enforces the same constant per frame).
    MAX_REQUEST_BYTES = MAX_WIRE_BYTES

    def handle_wire(self, line: str) -> str:
        """One JSON line in, one JSON line out (the stdin driver's path).

        Never raises: malformed, hostile or oversized input goes through
        the transport-shared :func:`~repro.service.envelopes.parse_wire_request`
        gate and comes back as a structured failure envelope, and a result
        that cannot be encoded answers ``SVC_RET_INTERNAL`` under the
        request's id.
        """
        try:
            request = parse_wire_request(line)
        except ServiceError as error:
            return Response.failure(error.code, error.message).to_json()
        except Exception as error:  # defensive: the gate itself must not crash
            return Response.failure(
                ServiceErrorCode.BAD_REQUEST,
                f"malformed request: {type(error).__name__}: {error}",
            ).to_json()
        response = self.handle(request)
        try:
            return response.to_json()
        except WIRE_ENCODE_ERRORS as error:
            return not_wire_safe(response.to_dict(), error)

    def _session_of(self, request: Request) -> Session:
        if request.session is None:
            raise ServiceError(
                ServiceErrorCode.NO_SESSION,
                f"command {request.op!r} requires a session "
                "(open one with session.open)",
            )
        session = self._sessions.get(request.session)
        if session is None:
            raise ServiceError(
                ServiceErrorCode.NO_SESSION,
                f"unknown or closed session {request.session!r}",
            )
        return session

    # -- service/session commands -----------------------------------------
    def _cmd_service_ping(self, payload: Any = None) -> Dict[str, Any]:
        """Liveness probe; echoes ``payload`` back verbatim."""
        return {"pong": True, "time_s": self.env.now, "payload": payload}

    def _cmd_service_describe(self) -> Dict[str, Any]:
        """Protocol version, command catalogue, cluster and shard facts."""
        return {
            "protocol": PROTOCOL_VERSION,
            "commands": [command.describe() for command in self._commands.values()],
            "roles": [role.value for role in Role],
            "evaluators": sorted(EVALUATOR_REGISTRY),
            "use_cases": [defn.name for defn in list_use_cases()],
            "database": {
                "n_shards": self.database.n_shards,
                "shard_key_tags": list(self.database.shard_key_tags),
            },
            "cluster": self.cluster.summary(),
        }

    def _cmd_session_open(
        self,
        tenant: str,
        role: str = Role.MONITOR.value,
        quota: Optional[int] = None,
        scope_hostnames: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """Open a tenant session carrying a Power API ``role`` (default
        monitor), an RNG stream and a ``quota`` of chargeable evaluations;
        ``scope_hostnames`` restricts writes to those nodes."""
        try:
            resolved = Role(role)
        except ValueError:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"unknown role {role!r}; valid: {[r.value for r in Role]}",
            ) from None
        ordinal = self._tenant_counters.get(tenant, 0) + 1
        session = self._register_session(
            f"s{self._session_counter + 1:04d}-{tenant}", tenant, resolved, ordinal,
            quota if quota is not None else self.default_quota, scope_hostnames,
        )
        self._session_counter += 1
        self._tenant_counters[tenant] = ordinal
        return session.info()

    def _register_session(
        self,
        session_id: str,
        tenant: str,
        role: Role,
        ordinal: int,
        quota: Optional[int],
        scope_hostnames: Optional[List[str]],
        used_evaluations: int = 0,
    ) -> Session:
        """Build and register a session for ``session.open``/``restore``.

        An unknown scope hostname is rejected before anything changes.
        """
        scope_paths = None
        if scope_hostnames is not None:
            root = self._admin_context.root.name
            unknown = sorted(set(scope_hostnames) - set(self._node_index))
            if unknown:
                raise ServiceError(
                    ServiceErrorCode.NO_OBJECT, f"unknown hostname(s) {unknown}"
                )
            scope_paths = [f"{root}/{hostname}" for hostname in scope_hostnames]
            scope_hostnames = list(scope_hostnames)
        session = Session(
            session_id=session_id,
            tenant=tenant,
            role=role,
            context=PowerApiContext(
                self._admin_context.root, role=role, scope_paths=scope_paths
            ),
            # Deterministic per-tenant stream: the same tenant opening its
            # n-th session always gets the same RNG, whatever other tenants
            # do, and a restored session re-derives the original's streams.
            streams=self._streams.spawn(f"tenant:{tenant}").spawn(f"session:{ordinal}"),
            quota=quota,
            used_evaluations=used_evaluations,
            ordinal=ordinal,
            scope_hostnames=scope_hostnames,
        )
        self._sessions[session_id] = session
        return session

    def _cmd_session_info(self, session: Session) -> Dict[str, Any]:
        """Session facts."""
        return session.info()

    def _cmd_session_close(self, session: Session) -> Dict[str, Any]:
        """Close this session."""
        self._sessions.pop(session.session_id, None)
        return {"closed": True, "used_evaluations": session.used_evaluations}

    def _cmd_session_snapshot(self, session: Session) -> Dict[str, Any]:
        """Portable session-state snapshot (identity, role, quota, RNG
        derivation).  Open tuning exchanges are not captured."""
        return {
            "state": {
                "session": session.session_id,
                "tenant": session.tenant,
                "role": session.role.value,
                "quota": session.quota,
                "used_evaluations": session.used_evaluations,
                "ordinal": session.ordinal,
                "scope_hostnames": session.scope_hostnames,
            },
            # Tuning exchanges hold live search objects; they are not
            # portable and must be reopened after a restore.
            "open_tuners": sorted(session.tuners),
        }

    def _cmd_session_restore(self, state: Mapping[str, Any]) -> Dict[str, Any]:
        """Recreate a session from the ``state`` a session.snapshot returned;
        RNG streams re-derive identically."""
        required = {"session", "tenant", "role", "ordinal"}
        missing = sorted(required - set(state))
        if missing:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"session.restore: state is missing field(s) {missing}",
            )
        session_id = str(state["session"])
        if session_id in self._sessions:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"session {session_id!r} is still open; close it before restoring",
            )
        tenant = str(state["tenant"])
        ordinal = int(state["ordinal"])
        if ordinal < 1:
            raise ServiceError(
                ServiceErrorCode.BAD_VALUE, "session ordinal must be >= 1"
            )
        try:
            role = Role(state["role"])
        except ValueError:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"unknown role {state['role']!r} in snapshot",
            ) from None
        quota = state.get("quota")
        session = self._register_session(
            session_id, tenant, role, ordinal, None if quota is None else int(quota),
            state.get("scope_hostnames"), int(state.get("used_evaluations", 0)),
        )
        # Keep future session.open calls from reusing the restored ordinal
        # or session number.
        self._tenant_counters[tenant] = max(
            self._tenant_counters.get(tenant, 0), ordinal
        )
        prefix = session_id.split("-", 1)[0]
        if prefix.startswith("s") and prefix[1:].isdigit():
            self._session_counter = max(self._session_counter, int(prefix[1:]))
        return session.info()

    # -- power plane -------------------------------------------------------
    @staticmethod
    def _attr(name: str) -> AttrName:
        try:
            return AttrName(name)
        except ValueError:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"unknown attribute {name!r}; valid: {[a.value for a in AttrName]}",
            ) from None

    def _cmd_power_read(self, session: Session, path: str, attr: str) -> Dict[str, Any]:
        """Read one attribute of one power object (role-checked)."""
        value = session.context.read(path, self._attr(attr))
        return {"path": path, "attr": attr, "value": value}

    def _cmd_power_write(
        self, session: Session, path: str, attr: str, value: float
    ) -> Dict[str, Any]:
        """Write one attribute of one power object (role- and scope-checked)."""
        applied = session.context.write(path, self._attr(attr), float(value))
        return {"path": path, "attr": attr, "applied": applied}

    def _cmd_power_read_group(
        self, session: Session, obj_type: str, attr: str
    ) -> Dict[str, Any]:
        """Read one attribute across every in-scope object of a type."""
        try:
            resolved = ObjType(obj_type)
        except ValueError:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"unknown object type {obj_type!r}; valid: {[t.value for t in ObjType]}",
            ) from None
        attribute = self._attr(attr)
        group = session.context.group(f"{obj_type}s", resolved)
        # Per-member reads go through the context so the role check (and
        # its error code) is identical to single-object power.read.
        return {
            "attr": attr,
            "values": {obj.path: session.context.read(obj, attribute) for obj in group},
        }

    def _cmd_power_snapshot(self, session: Session) -> Dict[str, Any]:
        """Every readable attribute of every in-scope object."""
        return session.context.snapshot()

    def _resolve_node_indices(
        self,
        indices: Optional[Sequence[int]],
        hostnames: Optional[Sequence[str]],
    ) -> np.ndarray:
        if (indices is None) == (hostnames is None):
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                "exactly one of 'indices' and 'hostnames' must be given",
            )
        targets = hostnames if hostnames is not None else indices
        if not targets:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST, "the target node list must not be empty"
            )
        if hostnames is not None:
            unknown = sorted(set(hostnames) - set(self._node_index))
            if unknown:
                raise ServiceError(
                    ServiceErrorCode.NO_OBJECT, f"unknown hostname(s) {unknown}"
                )
            return np.asarray([self._node_index[h] for h in hostnames], dtype=int)
        out = []
        for index in indices:
            if not isinstance(index, int) or isinstance(index, bool):
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST, "'indices' must be integers"
                )
            if not 0 <= index < len(self.cluster.nodes):
                raise ServiceError(
                    ServiceErrorCode.NO_OBJECT,
                    f"node index {index} out of range (cluster has "
                    f"{len(self.cluster.nodes)} nodes)",
                )
            out.append(index)
        return np.asarray(out, dtype=int)

    @staticmethod
    def _watt_value(value: Any, field: str) -> float:
        """A cap scalar off the wire: finite number or null, never bool."""
        if value is None:
            return np.nan
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"{field!r} entries must be numbers (or null to uncap)",
            )
        if not _finite(value):
            raise ServiceError(ServiceErrorCode.BAD_VALUE, f"{field!r} entries must be finite")
        return float(value)

    def _check_batch_node_write(
        self, session: Session, attr: AttrName, node_indices: np.ndarray
    ) -> None:
        """The exact role/scope gate ``PowerApiContext.write`` applies, once
        for a whole node batch."""
        if not session.context.permissions.may_write(attr, ObjType.NODE):
            raise ServiceError(
                ServiceErrorCode.NO_PERMISSION,
                f"role {session.role.value!r} may not write {attr.value!r} on a node",
            )
        root = self._admin_context.root.name
        for index in node_indices:
            path = f"{root}/{self.cluster.nodes[int(index)].hostname}"
            if not session.context.in_scope(path):
                raise ServiceError(
                    ServiceErrorCode.OUT_OF_SCOPE,
                    f"{path!r} is outside this session's scope",
                )

    def _cmd_power_set_caps(
        self,
        session: Session,
        watts: Any,
        indices: Optional[List[int]] = None,
        hostnames: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """Batch node power caps on the ``indices`` or ``hostnames`` nodes: one
        envelope, one vectorised apply_power_caps pass.  ``watts`` is a
        scalar, a per-node list, or null to uncap."""
        node_indices = self._resolve_node_indices(indices, hostnames)
        self._check_batch_node_write(session, AttrName.POWER_LIMIT_MAX, node_indices)
        if isinstance(watts, list):
            if len(watts) != node_indices.size:
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST,
                    f"'watts' list length {len(watts)} != {node_indices.size} nodes",
                )
            values = [self._watt_value(w, "watts") for w in watts]
        else:
            values = [self._watt_value(watts, "watts")] * node_indices.size
        if any(v < 0 for v in values if not np.isnan(v)):
            raise ServiceError(
                ServiceErrorCode.BAD_VALUE, "negative value for 'power_limit_max'"
            )
        caps = self.cluster.state.node_power_cap_w.copy()
        caps[node_indices] = values
        applied = self.cluster.apply_power_caps(caps)
        return {
            "applied": {
                self.cluster.nodes[int(i)].hostname: (
                    None if np.isnan(applied[int(i)]) else float(applied[int(i)])
                )
                for i in node_indices
            }
        }

    def _cmd_power_set_frequencies(
        self,
        session: Session,
        ghz: Any,
        indices: Optional[List[int]] = None,
        hostnames: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """Batch node core-frequency targets on the ``indices`` or ``hostnames``
        nodes through the vectorised DVFS kernel; ``ghz`` is a scalar or a
        per-node list."""
        node_indices = self._resolve_node_indices(indices, hostnames)
        self._check_batch_node_write(session, AttrName.FREQ_REQUEST, node_indices)
        def freq_value(value: Any) -> float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST, "'ghz' entries must be numbers"
                )
            if not _finite(value):
                raise ServiceError(ServiceErrorCode.BAD_VALUE, "'ghz' entries must be finite")
            return float(value)

        if isinstance(ghz, list):
            if len(ghz) != node_indices.size:
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST,
                    f"'ghz' list length {len(ghz)} != {node_indices.size} nodes",
                )
            targets = np.asarray([freq_value(g) for g in ghz])
        else:
            targets = freq_value(ghz)
        if np.any(np.asarray(targets) < 0):
            raise ServiceError(ServiceErrorCode.BAD_VALUE, "negative value for 'freq_request'")
        granted = self.cluster.state.set_node_frequencies(targets, node_indices)
        # granted is per-package; report the node frequency the way the
        # Power API node object does (the slowest package).
        node_granted = np.asarray(granted).min(axis=1)
        return {
            "granted": {
                self.cluster.nodes[int(i)].hostname: float(node_granted[pos])
                for pos, i in enumerate(node_indices)
            }
        }

    # -- resource manager --------------------------------------------------
    def _job(self, job_id: str):
        job = self.scheduler.jobs.get(job_id)
        if job is None:
            raise ServiceError(ServiceErrorCode.NO_JOB, f"unknown job {job_id!r}")
        return job

    @staticmethod
    def _job_dict(job) -> Dict[str, Any]:
        return {
            "job_id": job.job_id,
            "state": job.state.value,
            "user": job.request.user,
            "nodes": [node.hostname for node in job.assigned_nodes],
            "power_budget_w": job.power_budget_w,
            "submit_time_s": job.submit_time_s,
            "start_time_s": job.start_time_s,
            "end_time_s": job.end_time_s,
            "reject_reason": job.launch_metadata.get("reject_reason"),
            "failure_reason": job.launch_metadata.get("failure_reason"),
        }

    def _cmd_jobs_submit(
        self,
        session: Session,
        app: Any,
        nodes: int = 1,
        params: Optional[Mapping[str, Any]] = None,
        walltime_s: float = 600.0,
        ranks_per_node: int = 1,
        job_id: Optional[str] = None,
        nodes_min: Optional[int] = None,
        nodes_max: Optional[int] = None,
        malleable: bool = False,
    ) -> Dict[str, Any]:
        """Submit a job to the power-aware scheduler; ``app`` is an
        application kind or spec, ``params`` its application parameters."""
        self._require_working_role(session, "submit jobs")
        application = _build_application(app)
        self._job_counter += 1
        identifier = job_id or f"job-{self._job_counter:05d}"
        try:
            request = JobRequest(
                job_id=identifier,
                application=application,
                params=dict(params or {}),
                nodes_requested=int(nodes),
                nodes_min=nodes_min,
                nodes_max=nodes_max,
                ranks_per_node=int(ranks_per_node),
                walltime_estimate_s=float(walltime_s),
                malleable=bool(malleable),
                arrival_time_s=self.env.now,
                user=session.tenant,
            )
            job = self.scheduler.submit(request)
        except ValueError as error:
            raise ServiceError(ServiceErrorCode.BAD_REQUEST, str(error)) from error
        return self._job_dict(job)

    def _cmd_jobs_query(self, session: Session, job_id: str) -> Dict[str, Any]:
        """State and accounting of one job."""
        return self._job_dict(self._job(job_id))

    def _cmd_jobs_list(self, session: Session) -> List[Dict[str, Any]]:
        """All jobs and their states."""
        # Working tenants see their own jobs; operators and the site-wide
        # monitor see the whole queue.
        jobs = self.scheduler.jobs.values()
        if session.role not in _OPERATOR_ROLES + _SITE_READ_ROLES:
            jobs = [job for job in jobs if job.request.user == session.tenant]
        return [self._job_dict(job) for job in jobs]

    def _require_owner_or_operator(self, session: Session, job) -> None:
        if session.role in _OPERATOR_ROLES or job.request.user == session.tenant:
            return
        raise ServiceError(
            ServiceErrorCode.NO_PERMISSION,
            f"role {session.role.value!r} of tenant {session.tenant!r} may not "
            f"operate on job {job.job_id!r} owned by {job.request.user!r}",
        )

    def _require_operator(self, session: Session, action: str) -> None:
        if session.role not in _OPERATOR_ROLES:
            raise ServiceError(
                ServiceErrorCode.NO_PERMISSION,
                f"role {session.role.value!r} may not {action} "
                f"(needs one of {[r.value for r in _OPERATOR_ROLES]})",
            )

    def _require_working_role(self, session: Session, action: str) -> None:
        if session.role in _READ_ONLY_ROLES:
            raise ServiceError(
                ServiceErrorCode.NO_PERMISSION,
                f"read-only role {session.role.value!r} may not {action}",
            )

    def _cmd_jobs_cancel(self, session: Session, job_id: str) -> Dict[str, Any]:
        """Cancel a pending or running job (owner or operator roles)."""
        job = self._job(job_id)
        self._require_owner_or_operator(session, job)
        if job.state in (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED):
            raise ServiceError(
                ServiceErrorCode.BAD_VALUE,
                f"job {job_id!r} is already {job.state.value}",
            )
        self.scheduler.cancel(job_id)
        return self._job_dict(job)

    def _cmd_jobs_run(self, session: Session, extra_time_s: float = 0.0) -> Dict[str, Any]:
        """Drive the simulated cluster until all submitted jobs finish
        (operator roles)."""
        self._require_operator(session, "drive the cluster")
        stats = self.scheduler.run_until_complete(extra_time_s=float(extra_time_s))
        return {"time_s": self.env.now, "stats": stats.as_dict()}

    def _cmd_jobs_advance(self, session: Session, duration_s: float) -> Dict[str, Any]:
        """Advance the simulated clock by a fixed duration (operator roles)."""
        self._require_operator(session, "advance the clock")
        if duration_s <= 0:
            raise ServiceError(ServiceErrorCode.BAD_VALUE, "duration_s must be positive")
        until = self.env.now + float(duration_s)
        if not _finite(until):
            raise ServiceError(
                ServiceErrorCode.BAD_VALUE, "duration_s must keep the clock finite"
            )
        self.scheduler.start()
        self.env.run(until=until)
        return {"time_s": self.env.now}

    def _cmd_jobs_stats(self, session: Session) -> Dict[str, Any]:
        """Scheduler statistics."""
        return self.scheduler.stats().as_dict()

    # -- runtime layer -----------------------------------------------------
    def _runtime(self, session: Session, job_id: str) -> JobRuntime:
        job = self._job(job_id)
        self._require_owner_or_operator(session, job)
        handle = self.scheduler.runtime_handles.get(job_id)
        if not isinstance(handle, JobRuntime):
            raise ServiceError(
                ServiceErrorCode.NOT_IMPLEMENTED,
                f"job {job_id!r} has no budget-capable runtime attached",
            )
        return handle

    def _cmd_runtime_report(self, session: Session, job_id: str) -> Dict[str, Any]:
        """Job-runtime telemetry reported up the stack."""
        return dict(self._runtime(session, job_id).report())

    def _cmd_runtime_request_power(
        self, session: Session, job_id: str, watts: float
    ) -> Dict[str, Any]:
        """Ask the RM for additional job power (§3.1.1)."""
        runtime = self._runtime(session, job_id)
        granted = runtime.request_power(float(watts))
        return {"job_id": job_id, "requested_w": granted, "report": dict(runtime.report())}

    def _cmd_runtime_return_power(
        self, session: Session, job_id: str, watts: float
    ) -> Dict[str, Any]:
        """Declare unused job power the RM may reclaim (§3.1.1)."""
        runtime = self._runtime(session, job_id)
        returned = runtime.return_power(float(watts))
        return {"job_id": job_id, "returned_w": returned, "report": dict(runtime.report())}

    # -- tuning plane ------------------------------------------------------
    def _refold(self, session: Session, state: _TuningState) -> None:
        """Re-derive one tuner's best from the records the store holds for it.

        For when the store gains or loses the tuner's records other than
        through ``tuning.tell``: a recover, a campaign whose scenario tags
        name the tuner, or a restored session reopening a tuner id whose
        earlier records are still stored.
        """
        state.best = None
        for record in self.database.where(
            feasible=True,
            tenant=session.tenant,
            session=session.session_id,
            tuner=state.tuner_id,
        ):
            state.fold(record)

    def _tuner(self, session: Session, tuner_id: str) -> _TuningState:
        state = session.tuners.get(tuner_id)
        if state is None:
            raise ServiceError(
                ServiceErrorCode.NO_TUNER,
                f"unknown tuner {tuner_id!r} in session {session.session_id!r}",
            )
        return state

    def _make_space(self, parameters: Mapping[str, Any]) -> ParameterSpace:
        if not parameters:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST, "'parameters' must not be empty"
            )
        for name, values in parameters.items():
            if not isinstance(values, list) or not values:
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST,
                    f"parameter {name!r} must map to a non-empty list of values",
                )
        try:
            return ParameterSpace.from_dict(parameters, name="service")
        except TypeError as error:  # an unhashable value in a categorical index
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST, f"parameter values must be hashable: {error}"
            ) from error

    def _cmd_tuning_open(
        self,
        session: Session,
        parameters: Mapping[str, Any],
        search: str = "forest",
        batch_size: int = 8,
        minimize: bool = True,
        seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Open an ask/tell tuning exchange over the parameter space
        ``parameters`` (``{name: [values]}``); ``seed`` overrides the
        session-derived seed."""
        self._require_working_role(session, "open tuning sessions")
        if batch_size < 1:
            raise ServiceError(ServiceErrorCode.BAD_VALUE, "batch_size must be >= 1")
        space = self._make_space(parameters)
        _check_search(search)
        _check_seed(seed)
        session._tuner_counter += 1
        ordinal = session._tuner_counter
        if seed is None:
            # Per-tuner deterministic seed off the session's tenant stream.
            seed = int(
                session.streams.stream(f"tuner:{ordinal}").integers(0, 2**31 - 1)
            )
        try:
            algorithm = make_search(search, space, seed=int(seed))
        except ValueError as error:
            raise ServiceError(ServiceErrorCode.BAD_REQUEST, str(error)) from error
        tuner_id = f"{session.session_id}/t{ordinal}"
        state = session.tuners[tuner_id] = _TuningState(
            tuner_id=tuner_id,
            space=space,
            search=algorithm,
            minimize=bool(minimize),
            batch_size=int(batch_size),
            seed=int(seed),
        )
        self._refold(session, state)
        return {
            "tuner_id": tuner_id,
            "search": search,
            "seed": int(seed),
            "batch_size": int(batch_size),
            "minimize": bool(minimize),
            "cardinality": space.cardinality(),
        }

    def _cmd_tuning_ask(
        self, session: Session, tuner_id: str, n: Optional[int] = None
    ) -> Dict[str, Any]:
        """Next batch of configurations to evaluate."""
        state = self._tuner(session, tuner_id)
        count = state.batch_size if n is None else int(n)
        if count < 1:
            raise ServiceError(ServiceErrorCode.BAD_VALUE, "n must be >= 1")
        configs: List[Dict[str, Any]] = []
        if not state.search.is_exhausted():
            # Searches draw values from the space's own value lists and keep
            # no reference to the dicts they propose, so those go out as
            # drawn.  Forbidden combinations are rejected service-side
            # without spending client evaluations — mirroring Autotuner.
            for config in state.search.ask_batch(count):
                if state.space.is_allowed(config):
                    configs.append(config)
                else:
                    state.search.tell(config, PENALTY_OBJECTIVE)
        return {
            "tuner_id": tuner_id,
            "configs": configs,
            "exhausted": state.search.is_exhausted() and not configs,
        }

    def _cmd_tuning_tell(
        self, session: Session, tuner_id: str, results: List[Any]
    ) -> Dict[str, Any]:
        """Report evaluated configurations (charged against the quota);
        results land in the sharded performance database."""
        state = self._tuner(session, tuner_id)
        is_number = _WIRE_KINDS[float][1]
        # One tags dict for the whole tell: its records share it.
        tags = {"tenant": session.tenant, "session": session.session_id, "tuner": state.tuner_id}
        records: List[EvaluationRecord] = []
        # Each check tests the exact JSON type first, so a decoded result
        # skips the ``Mapping`` and number checks.
        for entry in results:
            if (
                (type(entry) is not dict and not isinstance(entry, Mapping))
                or "config" not in entry
                or "objective" not in entry
            ):
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST,
                    "each result must be an object with 'config' and 'objective'",
                )
            config = entry["config"]
            if type(config) is not dict and not isinstance(config, Mapping):
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST, "each result's 'config' must be an object"
                )
            try:
                config = state.space.validate(config)
            except (KeyError, ValueError, TypeError) as error:  # TypeError: unhashable value
                raise ServiceError(ServiceErrorCode.BAD_VALUE, str(error)) from error
            objective = entry["objective"]
            if (
                type(objective) is not float and not is_number(objective)
            ) or not _finite(objective):
                raise ServiceError(
                    ServiceErrorCode.BAD_VALUE,
                    "each result's 'objective' must be a finite number",
                )
            metrics = _metrics(entry.get("metrics", {}))
            feasible = entry.get("feasible", True)
            if not isinstance(feasible, bool):
                raise ServiceError(
                    ServiceErrorCode.BAD_VALUE, "each result's 'feasible' must be a boolean"
                )
            records.append(
                EvaluationRecord(
                    config=config,
                    metrics=metrics,
                    objective=float(objective),
                    feasible=feasible,
                    tags=tags,
                )
            )
        # All-or-nothing: an over-quota tell is rejected before anything
        # is written, and a failed (torn) write raises before the quota,
        # the search, ``told`` or the best see any of the tell.
        session.check_quota(len(records))
        if records:
            self.database.add(*records)
        session.used_evaluations += len(records)
        for record in records:
            if not record.feasible:
                search_value = PENALTY_OBJECTIVE
            else:
                search_value = record.objective if state.minimize else -record.objective
            state.search.tell(record.config, search_value)
            state.told += 1
            state.fold(record)
        best = state.best
        return {
            "tuner_id": tuner_id,
            "recorded": len(records),
            "told_total": state.told,
            "quota_remaining": (
                None if session.quota is None else session.quota - session.used_evaluations
            ),
            "best": None if best is None else best.to_dict(),
        }

    def _cmd_tuning_best(self, session: Session, tuner_id: str) -> Dict[str, Any]:
        """Best recorded configuration of one tuning exchange."""
        best = self._tuner(session, tuner_id).best
        return {"tuner_id": tuner_id, "best": None if best is None else best.to_dict()}

    def _cmd_tuning_close(self, session: Session, tuner_id: str) -> Dict[str, Any]:
        """Close a tuning exchange."""
        state = self._tuner(session, tuner_id)
        del session.tuners[tuner_id]
        return {"tuner_id": tuner_id, "told_total": state.told}

    def _cmd_tuning_run(
        self,
        session: Session,
        parameters: Mapping[str, Any],
        evaluator: str,
        search: str = "forest",
        max_evals: int = 30,
        batch_size: int = 8,
        cache_evaluations: bool = False,
        seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Run a whole batched autotuning loop service-side against a
        registered evaluator."""
        self._require_working_role(session, "run tuning loops")
        if max_evals < 1:
            raise ServiceError(ServiceErrorCode.BAD_VALUE, "max_evals must be >= 1")
        fn = EVALUATOR_REGISTRY.get(evaluator)
        if fn is None:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"unknown evaluator {evaluator!r}; registered: {sorted(EVALUATOR_REGISTRY)}",
            )
        space = self._make_space(parameters)
        # Everything that can still reject the run is checked before it
        # spends a run id and the seed stream named by it.
        if batch_size < 1:
            raise ServiceError(ServiceErrorCode.BAD_REQUEST, "batch_size must be >= 1")
        _check_search(search)
        _check_seed(seed)
        session.check_quota(int(max_evals))
        self._run_counter += 1
        run_id = f"run-{self._run_counter:04d}"
        if seed is None:
            seed = int(session.streams.stream(f"tuning-run:{run_id}").integers(0, 2**31 - 1))
        try:
            tuner = Autotuner(
                space,
                fn,
                batch_size=int(batch_size),
                search=search,
                max_evals=int(max_evals),
                seed=int(seed),
                cache_evaluations=bool(cache_evaluations),
                name=run_id,
            )
        except ValueError as error:
            raise ServiceError(ServiceErrorCode.BAD_REQUEST, str(error)) from error
        # Charge the whole budget as a reservation only once the tuner is
        # actually constructed (a rejected config must cost nothing), and
        # unwind it in ``finally`` so an evaluator exploding mid-batch
        # refunds the slots it never consumed instead of leaking them.
        session.charge(int(max_evals))
        try:
            result = tuner.run()
        except Exception as error:
            raise ServiceError(
                ServiceErrorCode.INTERNAL,
                f"evaluator {evaluator!r} failed mid-run: "
                f"{type(error).__name__}: {error}",
            ) from error
        finally:
            session.used_evaluations -= max(0, int(max_evals) - len(tuner.database))
            tuner.close()
        self.database.merge(
            result.database,
            tenant=session.tenant,
            session=session.session_id,
            tuner=run_id,
        )
        return {
            "run_id": run_id,
            "seed": int(seed),
            "evaluations": result.evaluations,
            "best_config": result.best_config,
            "best_objective": result.best_objective,
            "cache_hits": result.cache_hits,
            "objective": result.objective_name,
        }

    # -- campaign plane ----------------------------------------------------
    def _cmd_campaign_run(
        self,
        session: Session,
        scenarios: List[Any],
        executor: str = "serial",
        max_workers: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run an experiment campaign; every run is charged and captured."""
        self._require_working_role(session, "run campaigns")
        if executor not in ("serial", "thread", "process"):
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST,
                f"unknown executor {executor!r}; available: serial, thread, process",
            )
        # One request must not choose how many processes the server forks.
        cpus = os.cpu_count() or 1
        if max_workers is not None and not 1 <= max_workers <= cpus:
            raise ServiceError(
                ServiceErrorCode.BAD_VALUE,
                f"max_workers must be null or in [1, {cpus}], got {max_workers}",
            )
        built = []
        for index, entry in enumerate(scenarios):
            if not isinstance(entry, Mapping) or "use_case" not in entry:
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST,
                    "each scenario must be an object with a 'use_case' field",
                )
            try:
                built.append(
                    build_scenario(
                        entry["use_case"],
                        params=entry.get("params"),
                        seeds=tuple(entry.get("seeds", (1,))),
                        name=entry.get("name", ""),
                        tags=entry.get("tags"),
                    )
                )
            except (KeyError, ValueError, TypeError) as error:
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST, f"scenario #{index}: {error}"
                ) from error
        # Built and quota-checked under the name it would get, so a
        # rejected campaign spends no run id.
        campaign_name = name or f"campaign-{self._run_counter + 1:04d}"
        try:
            campaign = Campaign(built, name=campaign_name)
        except ValueError as error:
            raise ServiceError(ServiceErrorCode.BAD_REQUEST, str(error)) from error
        session.charge(campaign.total_runs)
        self._run_counter += 1
        result = campaign.run(executor=executor, max_workers=max_workers)
        self.database.merge(
            result.database,
            tenant=session.tenant,
            session=session.session_id,
            campaign=campaign_name,
        )
        for state in session.tuners.values():  # scenario tags may name a tuner
            self._refold(session, state)
        return result.summary()

    # -- database plane ----------------------------------------------------
    def _scope_tags(self, session: Session, tags: Optional[Mapping[str, Any]]) -> Dict[str, str]:
        filters = {str(k): str(v) for k, v in (tags or {}).items()}
        # Tenant isolation: only site-read roles see other tenants'
        # records — a working role's tenant filter is *forced*, so an
        # explicit tags={"tenant": ...} cannot reach across tenants.
        if session.role not in _SITE_READ_ROLES:
            filters["tenant"] = session.tenant
        return filters

    def _cmd_db_best_for(
        self,
        session: Session,
        tags: Optional[Mapping[str, Any]] = None,
        minimize: bool = True,
    ) -> Dict[str, Any]:
        """Best record matching tag filters (tenant-scoped unless a
        site-read role)."""
        best = self.database.best_for(minimize=bool(minimize), **self._scope_tags(session, tags))
        return {"best": None if best is None else best.to_dict()}

    def _cmd_db_top_k(
        self, session: Session, k: int, minimize: bool = True
    ) -> Dict[str, Any]:
        """The k best records visible to this session."""
        if k < 0:
            raise ServiceError(ServiceErrorCode.BAD_VALUE, "k must be >= 0")
        records = self.database.top_k(
            int(k), minimize=bool(minimize), **self._scope_tags(session, None)
        )
        return {"records": [record.to_dict() for record in records]}

    def _cmd_db_aggregate(
        self, session: Session, feasible_only: bool = False
    ) -> Dict[str, Any]:
        """Objective summary statistics over visible records."""
        database = self.database
        indices = database.where_indices(
            feasible=True if feasible_only else None, **self._scope_tags(session, None)
        )
        return objective_stats(database.objectives_array()[indices])

    def _cmd_db_where(
        self,
        session: Session,
        feasible: Optional[bool] = None,
        min_objective: Optional[float] = None,
        max_objective: Optional[float] = None,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record selection by feasibility, objective range and tags."""
        records = self.database.where(
            feasible=feasible,
            min_objective=min_objective,
            max_objective=max_objective,
            **self._scope_tags(session, tags),
        )
        return {"records": [record.to_dict() for record in records]}

    def _cmd_db_stats(self, session: Session) -> Dict[str, Any]:
        """Shard layout and record counts."""
        if session.role not in _SITE_READ_ROLES:
            # Tenant view: own record count only — no cross-tenant names,
            # no global sizes (the same isolation _scope_tags enforces).
            return {
                "n_records": len(self.database.where_indices(tenant=session.tenant)),
                "n_shards": self.database.n_shards,
                "tenants": [session.tenant],
            }
        return {
            "n_records": len(self.database),
            "n_shards": self.database.n_shards,
            "shard_sizes": self.database.shard_sizes(),
            "tenants": self.database.tag_values("tenant"),
        }

    def _cmd_db_checkpoint(
        self,
        session: Session,
        directory: Optional[str] = None,
        keep_generations: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Checkpoint the sharded database into the durability root
        ``directory`` (write-ahead journal + atomic bounded snapshot
        generations, ``keep_generations`` of them kept); attaches the
        journal on first use, where ``directory`` is required (operator roles)."""
        self._require_operator(session, "checkpoint the database")
        if keep_generations is not None and keep_generations < 1:
            raise ServiceError(ServiceErrorCode.BAD_VALUE, "keep_generations must be >= 1")
        kwargs = {} if keep_generations is None else {"keep_generations": int(keep_generations)}
        from repro import durability

        journal = self.database.journal
        if journal is None:
            if directory is None:
                raise ServiceError(
                    ServiceErrorCode.BAD_REQUEST,
                    "no journal attached yet; 'directory' is required on the "
                    "first db.checkpoint",
                )
            durability.attach(self.database, directory, **kwargs)
            journal = self.database.journal
        elif directory is not None and os.path.abspath(directory) != journal.directory:
            raise ServiceError(
                ServiceErrorCode.BAD_VALUE,
                f"journal is attached at {journal.directory!r}; detach before "
                f"checkpointing into {directory!r}",
            )
        info = self.database.checkpoint(**kwargs)
        return {
            "directory": journal.directory,
            "generation": info["generation"],
            "records": info["records"],
            "absorbed_entries": info["absorbed_entries"],
        }

    def _cmd_db_recover(self, session: Session, directory: str) -> Dict[str, Any]:
        """Replace the sharded database with one recovered from a durability
        root: newest valid snapshot plus the journal's intact suffix
        (operator roles)."""
        self._require_operator(session, "recover the database")
        try:
            recovered = ShardedPerformanceDatabase.recover(directory)
        except FileNotFoundError as error:
            raise ServiceError(
                ServiceErrorCode.NO_OBJECT,
                f"{directory!r} is not a durability root: {error}",
            ) from error
        # SnapshotCorruptError (unrecoverable config corruption) propagates
        # and maps to SVC_RET_SNAPSHOT_CORRUPT in handle().
        self.close()
        self.database = recovered
        for open_session in self._sessions.values():
            for state in open_session.tuners.values():
                self._refold(open_session, state)
        return {
            "directory": directory,
            "n_records": len(recovered),
            "n_shards": recovered.n_shards,
            "shard_sizes": recovered.shard_sizes(),
            "journal_attached": recovered.journal is not None,
        }

    # -- chaos plane -------------------------------------------------------
    def _cmd_chaos_inject(
        self,
        session: Session,
        profile: str,
        seed: int = 0,
        enabled: bool = True,
    ) -> Dict[str, Any]:
        """Install the registered fault-injection ``profile`` on the service's
        power/scheduler planes (operator roles); ``seed`` is the fault-plan
        seed (default 0), and ``enabled=false`` installs the plan disarmed."""
        self._require_operator(session, "inject faults")
        from repro.faults import injector as fault_injector
        from repro.faults import profiles as fault_profiles

        try:
            plan = fault_profiles.get_profile(
                str(profile), seed=int(seed), enabled=bool(enabled)
            )
        except KeyError as error:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST, str(error.args[0])
            ) from None
        injector = fault_injector.install(plan)
        return {
            "profile": plan.name,
            "seed": plan.seed,
            "enabled": injector.enabled,
            "kinds": sorted(plan.kinds),
        }

    def _cmd_chaos_status(self, session: Session) -> Dict[str, Any]:
        """Active fault plan and injection-event counters."""
        from repro.faults import injector as fault_injector

        injector = fault_injector.active()
        if injector is None:
            return {"active": False}
        return {"active": True, **injector.stats()}

    def _cmd_chaos_clear(self, session: Session) -> Dict[str, Any]:
        """Remove the active fault plan (operator roles)."""
        self._require_operator(session, "clear fault plans")
        from repro.faults import injector as fault_injector

        injector = fault_injector.clear()
        if injector is None:
            return {"cleared": False}
        return {"cleared": True, **injector.stats()}


StackService._commands = _derive_commands(StackService)
