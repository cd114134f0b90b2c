"""Deterministic id generation for graph elements.

Graph elements (nodes and edges) are identified by opaque string ids.  The
repair engine frequently creates new elements (``ADD_NODE`` / ``ADD_EDGE``
repairs), and experiments must be reproducible, so ids are generated by a
deterministic counter-based generator rather than ``uuid4``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container


@dataclass
class IdGenerator:
    """Generates ids of the form ``"<prefix><counter>"``.

    ``taken`` is the live id store of the generator's owner (a graph's node
    or edge dict).  A generated id never collides with an id the owner
    holds, held before, or was handed by :meth:`reserve`, yet the generator
    keeps no entry per live element: :meth:`next` skips a candidate that
    ``taken`` holds, and :meth:`retire` records an id that left the store —
    only while the counter can still reach it, so the record stays small.
    An id the counter has passed can never be a candidate again, which
    covers every id this generator issued, reserved ids included.
    """

    prefix: str = "x"
    taken: Container[str] = field(default=(), repr=False, compare=False)
    _counter: int = field(default=0, repr=False)
    _retired: set[str] = field(default_factory=set, repr=False)

    def retire(self, element_id: str) -> None:
        """Record that ``element_id`` left ``taken``, so it is never
        handed out.  Only an id of the form ``"<prefix><n>"`` with ``n`` at
        or past the counter is kept: no other id is ever a candidate."""
        prefix = self.prefix
        if not element_id.startswith(prefix):
            return
        digits = element_id[len(prefix):]
        if (digits.isascii() and digits.isdigit()
                and (digits == "0" or digits[0] != "0")
                and int(digits) >= self._counter):
            self._retired.add(element_id)

    def next(self) -> str:
        """Return a fresh id that is neither held nor retired."""
        taken, retired = self.taken, self._retired
        while True:
            candidate = f"{self.prefix}{self._counter}"
            self._counter += 1
            if candidate in retired:
                # the counter is past it now, so the record is spent
                retired.discard(candidate)
            elif candidate not in taken:
                return candidate

    @property
    def counter(self) -> int:
        """The next counter value this generator would try.

        Part of a graph's durable state: a snapshot that records the counter
        lets a restored generator resume *past* every id the original ever
        issued — including ids that were issued and then removed again, which
        the restored graph no longer holds — so a recovered process generates
        the same fresh ids the crashed one would have.
        """
        return self._counter

    def restore_counter(self, value: int) -> None:
        """Fast-forward the counter to ``value`` (never backwards: a smaller
        value could re-issue ids the generator already handed out)."""
        self._counter = max(self._counter, int(value))

    def reserve(self, count: int) -> list[str]:
        """Claim ``count`` fresh ids at once and return them.

        The counter moves past the reserved ids, so no later :meth:`next`
        (or reservation) can hand them out again — the primitive behind the
        delta id-space reservation scheme: a coordinator reserves a block from
        the primary graph's generator and rewrites a shard's (or replica's)
        delta onto it before replaying, guaranteeing replayed ids never
        collide with primary-graph ids.
        """
        return [self.next() for _ in range(count)]

    __call__ = next


_GLOBAL_GENERATORS: dict[str, IdGenerator] = {}


def fresh_id(prefix: str = "x") -> str:
    """Return a fresh id from a per-prefix process-global generator.

    Convenience for tests and examples; library code that needs reproducible
    ids should carry its own :class:`IdGenerator`.
    """
    generator = _GLOBAL_GENERATORS.setdefault(prefix, IdGenerator(prefix=prefix))
    return generator.next()
