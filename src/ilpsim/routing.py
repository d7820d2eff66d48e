"""Longest-prefix routing over hierarchical ILP addresses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ilp import IlpAddress, parse_address


class DuplicateRoute(ValueError):
    pass


@dataclass
class RouteTable:
    entries: dict[tuple[str, ...], str] = field(default_factory=dict)

    def insert(self, prefix: IlpAddress | str, next_hop: str) -> None:
        if isinstance(prefix, str):
            prefix = parse_address(prefix)
        if prefix.segments in self.entries:
            raise DuplicateRoute(str(prefix))
        self.entries[prefix.segments] = next_hop

    def remove(self, prefix: IlpAddress | str) -> None:
        if isinstance(prefix, str):
            prefix = parse_address(prefix)
        self.entries.pop(prefix.segments, None)

    def lookup(self, destination: IlpAddress) -> Optional[str]:
        """Longest-prefix match: probe from the full address down to the empty prefix."""
        for k in range(len(destination.segments), -1, -1):
            if (hop := self.entries.get(destination.segments[:k])) is not None:
                return hop
        return None

    def as_list(self) -> list[dict]:
        return [
            {"prefix": ".".join(prefix), "next_hop": hop}
            for prefix, hop in sorted(self.entries.items())
        ]
