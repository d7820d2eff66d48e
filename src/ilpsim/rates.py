"""Exchange-rate backends and exact amount conversion."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Mapping


class NoRate(Exception):
    pass


class RateBackend:
    """Resolves a rate in regular destination units per regular source unit.

    kind "one-to-one" answers 1 for every pair; kind "static-table" reads an
    explicit (src, dst) table: entries are directional, reciprocals are not
    implied.
    """

    def __init__(
        self,
        kind: str = "one-to-one",
        table: Mapping[tuple[str, str], Decimal] | None = None,
        spread: Decimal = Decimal(0),
    ):
        if kind not in ("one-to-one", "static-table"):
            raise ValueError(f"unknown backend kind {kind!r}")
        if not 0 <= spread < 1:
            raise ValueError(f"spread must be in [0, 1), got {spread}")
        self.kind = kind
        self.table = dict(table or {})
        for (src, dst), rate in self.table.items():
            if not (rate.is_finite() and rate >= 0):
                raise ValueError(f"rate {src}:{dst} must be finite and >= 0, got {rate}")
        self.spread = spread
        # (src_code, src_scale, dst_code, dst_scale) -> factor as (numerator,
        # denominator); table and spread never change after construction.
        self._factors: dict[tuple[str, int, str, int], tuple[int, int]] = {}

    def rate(self, src_code: str, dst_code: str) -> Decimal:
        if self.kind == "one-to-one":
            return Decimal(1)
        if src_code == dst_code:
            return Decimal(1)
        try:
            return self.table[(src_code, dst_code)]
        except KeyError:
            raise NoRate(f"no rate for {src_code}->{dst_code}") from None

    def convert(
        self, amount: int, src_code: str, src_scale: int, dst_code: str, dst_scale: int
    ) -> int:
        """floor(amount * 10^-src_scale * rate * (1 - spread) * 10^dst_scale),
        computed exactly over rationals."""
        key = (src_code, src_scale, dst_code, dst_scale)
        factor = self._factors.get(key)
        if factor is None:
            exact = (
                Fraction(self.rate(src_code, dst_code))
                * (1 - Fraction(self.spread))
                * Fraction(10) ** (dst_scale - src_scale)
            )
            factor = self._factors[key] = (exact.numerator, exact.denominator)
        num, den = factor
        if num == den:  # lowest terms: the factor is 1
            return amount
        return amount * num // den  # floor, as amount >= 0 and factor >= 0


def backend_from_config(cfg: dict) -> RateBackend:
    """Build a backend from config keys: backend ("one-to-one" or
    "static-table"), spread, and rates as {"XRP:ETH": "0.0062", ...}."""
    kind = cfg.get("backend", "one-to-one")
    if kind == "one-to-one":
        return RateBackend("one-to-one", spread=Decimal(str(cfg.get("spread", "0"))))
    table = {}
    for pair, value in cfg.get("rates", {}).items():
        src, _, dst = pair.partition(":")
        if not dst:
            raise ValueError(f"rate key must look like SRC:DST, got {pair!r}")
        table[(src, dst)] = Decimal(str(value))
    return RateBackend("static-table", table, spread=Decimal(str(cfg.get("spread", "0"))))
