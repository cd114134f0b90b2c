"""Counter records: declare each counter once, derive every view from it.

A :class:`Counters` dataclass declares its counters as numeric fields (an
``int`` or ``float`` default).  :meth:`~Counters.merge` adds another
record's counters in, :meth:`~Counters.since` returns the field-wise
difference against an earlier snapshot, and :meth:`~Counters.as_dict`
flattens the record in declaration order.  All three walk one field list,
computed once per class, so adding a counter is one field line.

A field declared with :func:`counter` may name its telemetry *mirror*, the
catalogue counter that :meth:`~Counters.bump` advances together with the
field, so an increment site cannot update one and forget the other.

The hot paths keep plain attribute adds (``stats.nodes_tried += 1``); the
record machinery runs only where a view is built, and a disabled telemetry
switch costs :meth:`~Counters.bump` one attribute read.
"""

from __future__ import annotations

from dataclasses import field, fields
from functools import cache
from typing import Any

from repro import telemetry


def counter(default: int | float = 0, *, mirror: str | None = None,
            digits: int | None = None) -> Any:
    """A numeric counter field.

    ``mirror`` names the telemetry catalogue counter :meth:`Counters.bump`
    advances along with the field; ``digits`` rounds the field's value in
    :meth:`Counters.as_dict`.
    """
    return field(default=default, metadata={"mirror": mirror, "digits": digits})


@cache
def _fields(cls: type) -> tuple[tuple[str, int | None], ...]:
    return tuple((f.name, f.metadata.get("digits")) for f in fields(cls))


@cache
def _numeric_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls)
                 if type(f.default) in (int, float))


@cache
def _mirrors(cls: type) -> dict[str, str]:
    return {f.name: f.metadata["mirror"] for f in fields(cls)
            if f.metadata.get("mirror")}


def _plain(value: Any) -> Any:
    """A detached plain-data copy: dicts stay dicts, sequences become lists."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Counters:
    """Mixin for a dataclass of counters (see the module docstring).

    Non-numeric fields (per-pattern dicts, say) are copied by
    :meth:`as_dict`; :meth:`merge` and :meth:`since` leave them to the
    subclass, and :meth:`since` returns them empty.
    """

    def merge(self, other: "Counters") -> None:
        """Add ``other``'s counters into this record."""
        for name in _numeric_fields(type(self)):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def since(self, before: "Counters") -> "Counters":
        """A new record holding each counter's growth since ``before``."""
        delta = type(self)()
        for name in _numeric_fields(type(self)):
            setattr(delta, name, getattr(self, name) - getattr(before, name))
        return delta

    def as_dict(self) -> dict[str, Any]:
        """Every field in declaration order, as detached plain data."""
        out: dict[str, Any] = {}
        for name, digits in _fields(type(self)):
            value = getattr(self, name)
            out[name] = _plain(value) if digits is None else round(value, digits)
        return out

    def mirror_values(self) -> dict[str, int | float]:
        """Each mirrored counter's value, keyed by its telemetry name."""
        return {mirror: getattr(self, name)
                for name, mirror in _mirrors(type(self)).items()}

    def bump(self, name: str, amount: int = 1, **labels: object) -> None:
        """Add ``amount`` to counter ``name`` and, when telemetry is on, to
        its mirror with ``labels``."""
        setattr(self, name, getattr(self, name) + amount)
        if telemetry.TELEMETRY.enabled:
            mirror = _mirrors(type(self)).get(name)
            if mirror is not None:
                telemetry.inc(mirror, amount, **labels)
