"""Longest-prefix routing over hierarchical ILP addresses."""

from __future__ import annotations

from typing import Optional

from .ilp import parse_address


class DuplicateRoute(ValueError):
    pass


class RouteTable:
    def __init__(self):
        self.entries: dict[str, str] = {}  # prefix text -> next hop; "" is the catch-all

    def insert(self, prefix: str, next_hop: str) -> None:
        prefix = parse_address(prefix)
        if prefix in self.entries:
            raise DuplicateRoute(prefix)
        self.entries[prefix] = next_hop

    def remove(self, prefix: str) -> None:
        self.entries.pop(prefix, None)

    def lookup(self, destination: str) -> Optional[str]:
        """Longest-prefix match: the full address, then each prefix cut at a dot, down to ""."""
        prefix, get = destination, self.entries.get
        while (hop := get(prefix)) is None and prefix:
            prefix = prefix.rpartition(".")[0]
        return hop

    def as_list(self) -> list[dict]:
        # in segment order: a text sort would put "g.a-b" before "g.a.c"
        return [
            {"prefix": prefix, "next_hop": hop}
            for prefix, hop in sorted(self.entries.items(), key=lambda e: e[0].split("."))
        ]
