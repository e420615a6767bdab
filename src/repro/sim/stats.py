"""Operation counters shared by the functional and timing layers.

Every functional component (flash planes, controllers, cores) increments
named counters while it executes.  The timing and energy layers consume the
counters, which keeps "what happened" (functional simulation) cleanly
separated from "how long it took / how much energy it used" (models).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Mapping, Tuple


class CounterSet:
    """A named bag of additive counters.

    >>> c = CounterSet()
    >>> c.add("page_reads", 3)
    >>> c["page_reads"]
    3
    >>> c.add("page_reads")
    >>> c["page_reads"]
    4
    """

    def __init__(self) -> None:
        self._counts: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counts[name] += amount

    def add_all(self, amounts: Mapping[str, float]) -> None:
        """Increment every counter of ``amounts`` by its nonzero amount, in
        order: a phase's adds to one device in one call."""
        for name, amount in amounts.items():
            if amount:
                self._counts[name] += amount

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._counts.items()))

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def merge(self, other: "CounterSet") -> None:
        """Add every counter of ``other`` into this set."""
        for name, value in other:
            self._counts[name] += value

    def as_dict(self) -> Dict[str, float]:
        """Return a plain dict snapshot of the counters."""
        return dict(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self)
        return f"CounterSet({inner})"
