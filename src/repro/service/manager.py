"""Thread-safe registry of named repair sessions.

:class:`SessionManager` owns many long-lived :class:`~repro.api.RepairSession`
objects, addressed by name.  The manager's lock only guards the *registry*
(open / lookup / close); the sessions themselves are concurrency-safe per
their own threading contract, so looked-up sessions are used without holding
any manager state — N threads operating on N different sessions never
serialise against each other here.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.exceptions import ServiceError
from repro.graph.property_graph import PropertyGraph
from repro.rules.grr import GraphRepairingRule, RuleSet
from repro.repair.config import RepairConfig
from repro.api.events import SessionEvents
from repro.api.session import RepairSession


class SessionManager:
    """Named, thread-safe session registry (the service's session store)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, RepairSession] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------

    def open(self, name: str, graph: PropertyGraph,
             rules: RuleSet | list[GraphRepairingRule],
             config: RepairConfig | None = None,
             events: SessionEvents | None = None,
             pool=None) -> RepairSession:
        """Open a new named session; names are unique while open."""
        session = None
        with self._lock:
            self._require_open()
            if name in self._sessions:
                raise ServiceError(f"a session named {name!r} is already open")
            # reserve the name before the (potentially slow) session build so
            # two concurrent opens of the same name fail fast; replaced below
            self._sessions[name] = None  # type: ignore[assignment]
        try:
            session = RepairSession(graph, rules, config=config, events=events,
                                    pool=pool)
        finally:
            with self._lock:
                if session is None:
                    self._sessions.pop(name, None)
                else:
                    self._sessions[name] = session
        return session

    def get(self, name: str) -> RepairSession:
        with self._lock:
            self._require_open()
            session = self._sessions.get(name)
        if session is None:
            raise ServiceError(f"no open session named {name!r}")
        return session

    def names(self) -> list[str]:
        """The open session names, sorted (a deterministic iteration order)."""
        with self._lock:
            return sorted(name for name, session in self._sessions.items()
                          if session is not None)

    def __len__(self) -> int:
        return len(self.names())

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return self._sessions.get(name) is not None  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close_session(self, name: str) -> None:
        """Close one session and release its name."""
        with self._lock:
            self._require_open()
            session = self._sessions.pop(name, None)
        if session is None:
            raise ServiceError(f"no open session named {name!r}")
        session.close()

    def close(self) -> None:
        """Close every session; the manager becomes inert.  Idempotent.

        Every session's close is attempted even when an earlier one raises
        (a half-closed manager would leak the remaining sessions' backends
        and their graph-feed listeners); the first failure is re-raised
        after the sweep.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = [session for session in self._sessions.values()
                        if session is not None]
            self._sessions.clear()
        errors: list[BaseException] = []
        for session in sessions:
            try:
                session.close()
            except BaseException as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("the session manager is closed")

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
