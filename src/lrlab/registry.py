"""One declaration per buildable thing a config can name.

Lattice families, models, curve families, spin models, the lppl chain,
the spectral-flow weight and the flow generators are each an ``Entry``:
parameters with their types and defaults, the check that says why given
values cannot be built, and the builder.  ``values`` is the one path from
given values to a builder's arguments and ``problems`` the one path from
given values to findings, so a builder and the config validator cannot
disagree about an entry.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["Entry", "registry", "lookup"]


@dataclass(frozen=True)
class Entry:
    """``params`` maps each name to (type, default), a None default marking
    a required value.  ``check(values, *context)`` yields (parameter,
    reason) pairs, parameter None for a reason about the context, for
    resolved values (as given, None where left out) that cannot be built
    in ``context``.  ``build``'s signature is its registry's.  ``noun``
    names the entry in messages; ``traits`` holds fixed facts its users
    read, such as a lattice family's ``dim``.
    """

    name: str
    params: dict = field(default_factory=dict)
    check: Callable = lambda values, *context: ()
    build: Callable | None = None
    noun: str = ""
    traits: dict = field(default_factory=dict)

    def resolve(self, given: dict) -> dict:
        """Each parameter's given value, else its default; other keys are dropped."""
        return {k: given.get(k, d) for k, (_, d) in self.params.items()}

    def values(self, given: dict) -> dict:
        """The resolved values, numbers converted to their declared types;
        a ValueError names the first one that is None."""
        out = {}
        for k, v in self.resolve(given).items():
            if v is None:
                raise ValueError(f"the {self.name} {self.noun} needs {k}")
            typ = self.params[k][0]
            out[k] = typ(v) if typ in (int, float) else v
        return out

    def problems(self, given: dict, *context) -> list:
        """Why ``given`` cannot be built in ``context``, as (parameter,
        reason) pairs; computes nothing.  Required values left out that the
        check does not name are reported alone, as ``values`` words them."""
        values = self.resolve(given)
        found = list(self.check(values, *context))
        named = {k for k, _ in found}
        left_out = [
            (k, f"the {self.name} {self.noun} needs {k}")
            for k, v in values.items() if v is None and k not in given and k not in named
        ]
        return left_out or found

    def require(self, given: dict, *context) -> dict:
        """``values``, after a ValueError "<parameter>: <reason>" on the first problem."""
        for key, reason in self.problems(given, *context):
            raise ValueError(reason if key is None else f"{key}: {reason}")
        return self.values(given)


def registry(*entries: Entry) -> dict:
    """The entries by name, in declaration order."""
    return {e.name: e for e in entries}


def lookup(entries: dict, name, what: str) -> Entry:
    """``entries[name]``; a ValueError "unknown <what> <name>" when absent."""
    if name not in entries:
        raise ValueError(f"unknown {what} {name!r}")
    return entries[name]
