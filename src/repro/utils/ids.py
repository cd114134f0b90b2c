"""Deterministic id generation for graph elements.

Graph elements (nodes and edges) are identified by opaque string ids.  The
repair engine frequently creates new elements (``ADD_NODE`` / ``ADD_EDGE``
repairs), and experiments must be reproducible, so ids are generated by a
deterministic counter-based generator rather than ``uuid4``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IdGenerator:
    """Generates ids of the form ``"<prefix><counter>"``.

    The generator can be told about existing ids (via :meth:`observe`) so
    that freshly generated ids never collide with ids already present in a
    graph that was loaded from disk or produced by another generator.
    """

    prefix: str = "x"
    _counter: int = field(default=0, repr=False)
    _seen: set[str] = field(default_factory=set, repr=False)

    def observe(self, existing_id: str) -> None:
        """Record an id that already exists so it is never handed out again."""
        self._seen.add(str(existing_id))

    def observe_all(self, existing_ids) -> None:
        self._seen.update(map(str, existing_ids))

    def next(self) -> str:
        """Return a fresh id that has not been observed or generated before."""
        while True:
            candidate = f"{self.prefix}{self._counter}"
            self._counter += 1
            if candidate not in self._seen:
                self._seen.add(candidate)
                return candidate

    @property
    def counter(self) -> int:
        """The next counter value this generator would try.

        Part of a graph's durable state: a snapshot that records the counter
        lets a restored generator resume *past* every id the original ever
        issued — including ids that were issued and then removed again, which
        the restored graph cannot re-discover by observation alone — so a
        recovered process generates the same fresh ids the crashed one would
        have.
        """
        return self._counter

    def restore_counter(self, value: int) -> None:
        """Fast-forward the counter to ``value`` (never backwards: a smaller
        value could re-issue ids the generator already handed out)."""
        self._counter = max(self._counter, int(value))

    def reserve(self, count: int) -> list[str]:
        """Claim ``count`` fresh ids at once and return them.

        Reserved ids are marked as seen immediately, so no later :meth:`next`
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
