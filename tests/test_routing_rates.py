from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilpsim import rates
from ilpsim.ilp import parse_address
from ilpsim.routing import DuplicateRoute, RouteTable


def table():
    t = RouteTable()
    t.insert("g.conn1", "A")
    t.insert("g.conn1.ilsp_clients.mduni", "B")
    return t


def test_longest_prefix_wins():
    assert table().lookup(parse_address("g.conn1.ilsp_clients.mduni.local.x")) == "B"


def test_shorter_prefix_covers_rest():
    assert table().lookup(parse_address("g.conn1.other")) == "A"


def test_empty_table_misses():
    t = RouteTable()
    assert t.lookup(parse_address("g.anything")) is None


def test_destination_shorter_than_every_route_misses():
    assert table().lookup(parse_address("g")) is None


def test_destination_equal_to_prefix_matches_it():
    assert table().lookup(parse_address("g.conn1.ilsp_clients.mduni")) == "B"


def test_remove_longest_match_falls_back_to_next_longest():
    t = table()
    t.remove("g.conn1.ilsp_clients.mduni")
    assert t.lookup(parse_address("g.conn1.ilsp_clients.mduni.local.x")) == "A"


def test_duplicate_prefix_rejected():
    t = table()
    with pytest.raises(DuplicateRoute):
        t.insert("g.conn1", "C")


def test_as_list_in_segment_order():
    t = RouteTable()
    for prefix in ("g.a-b", "g.a.c", "g.a"):
        t.insert(prefix, "A")
    assert [r["prefix"] for r in t.as_list()] == ["g.a", "g.a.c", "g.a-b"]


def brute_force_lookup(entries, destination):
    best, hop = None, None
    for prefix, next_hop in entries:
        p = parse_address(prefix)
        if p.is_prefix_of(destination) and (best is None or len(p.segments) > len(best)):
            best, hop = p.segments, next_hop
    return hop


prefixes = st.lists(
    st.lists(st.sampled_from(["g", "a", "b", "c", "d"]), min_size=1, max_size=4).map(
        lambda s: ".".join(s)
    ),
    min_size=0,
    max_size=8,
    unique=True,
)


@settings(max_examples=300, deadline=None)
@given(
    prefixes=prefixes,
    dest=st.lists(st.sampled_from(["g", "a", "b", "c", "d"]), min_size=1, max_size=6),
)
def test_lookup_matches_linear_scan_oracle(prefixes, dest):
    t = RouteTable()
    entries = [(p, f"hop{i}") for i, p in enumerate(prefixes)]
    for p, hop in entries:
        t.insert(p, hop)
    destination = parse_address(".".join(dest))
    assert t.lookup(destination) == brute_force_lookup(entries, destination)


@settings(max_examples=300, deadline=None)
@given(
    prefixes=prefixes,
    dest=st.lists(st.sampled_from(["g", "a", "b", "c", "d"]), min_size=1, max_size=6),
)
def test_catch_all_route_matches_linear_scan_oracle(prefixes, dest):
    t = RouteTable()
    entries = [(p, f"hop{i}") for i, p in enumerate(prefixes)]
    for p, hop in entries:
        t.insert(p, hop)
    # An IlpAddress needs a segment, so the empty prefix goes into the table
    # directly; the oracle, over parsed prefixes, falls back to it.
    t.entries[""] = "catch-all"
    destination = parse_address(".".join(dest))
    assert t.lookup(destination) == (brute_force_lookup(entries, destination) or "catch-all")


def test_one_to_one_pure_scale_shift():
    backend = rates.RateBackend("one-to-one")
    assert backend.convert(1_000_000, "XRP", 6, "ETH", 9) == 1_000_000_000


def test_static_table_conversion():
    backend = rates.RateBackend(
        "static-table", {("XRP", "ETH"): Decimal("0.0062")}
    )
    assert backend.convert(10_000_000, "XRP", 6, "ETH", 9) == 62_000_000


def test_spread_applied():
    backend = rates.RateBackend(
        "static-table", {("XRP", "ETH"): Decimal("0.0062")}, spread=Decimal("0.01")
    )
    assert backend.convert(10_000_000, "XRP", 6, "ETH", 9) == 61_380_000


def test_missing_rate():
    backend = rates.RateBackend("static-table", {})
    with pytest.raises(rates.NoRate):
        backend.rate("XRP", "BTC")


def test_same_asset_needs_no_table_entry():
    backend = rates.RateBackend("static-table", {})
    assert backend.convert(500, "XRP", 6, "XRP", 6) == 500


def test_backend_from_config():
    backend = rates.backend_from_config(
        {"backend": "static-table", "spread": "0.005", "rates": {"XRP:ETH": "0.0062"}}
    )
    assert backend.rate("XRP", "ETH") == Decimal("0.0062")
    assert backend.spread == Decimal("0.005")


@settings(max_examples=300, deadline=None)
@given(
    amount=st.integers(min_value=0, max_value=10**12),
    src_scale=st.integers(min_value=0, max_value=12),
    dst_scale=st.integers(min_value=0, max_value=12),
)
def test_conversion_never_creates_value(amount, src_scale, dst_scale):
    backend = rates.RateBackend("one-to-one", spread=Decimal("0.01"))
    out = backend.convert(amount, "X", src_scale, "Y", dst_scale)
    # floor of a product with spread <= exact product without spread
    assert out * 10**src_scale <= amount * 10**dst_scale


@pytest.mark.parametrize("spread", [Decimal(1), Decimal(2), Decimal("-0.01")])
def test_spread_outside_unit_interval_refused(spread):
    with pytest.raises(ValueError):
        rates.RateBackend("one-to-one", spread=spread)


@pytest.mark.parametrize("spread", ["1", "2"])
def test_backend_from_config_refuses_spread_of_one_or_more(spread):
    with pytest.raises(ValueError):
        rates.backend_from_config({"backend": "one-to-one", "spread": spread})


@pytest.mark.parametrize("rate", ["-0.5", "NaN", "Infinity"])
def test_negative_or_non_finite_rate_refused(rate):
    with pytest.raises(ValueError, match="XRP:ETH"):
        rates.RateBackend("static-table", {("XRP", "ETH"): Decimal(rate)})
    with pytest.raises(ValueError, match="XRP:ETH"):
        rates.backend_from_config({"backend": "static-table", "rates": {"XRP:ETH": rate}})


def test_zero_rate_allowed():
    backend = rates.backend_from_config({"backend": "static-table", "rates": {"XRP:ETH": "0"}})
    assert backend.convert(10, "XRP", 6, "ETH", 6) == 0


def test_no_rate_is_not_cached():
    backend = rates.RateBackend("static-table", {})
    for _ in range(2):
        with pytest.raises(rates.NoRate):
            backend.convert(1, "XRP", 6, "BTC", 8)


@settings(max_examples=500, deadline=None)
@given(
    amount=st.integers(min_value=0, max_value=2**64 - 1),
    src_scale=st.integers(min_value=0, max_value=19),
    dst_scale=st.integers(min_value=0, max_value=19),
    rate=st.decimals(min_value=0, max_value=10**6, places=8),
    spread=st.decimals(min_value=0, max_value=Decimal("0.99999999"), places=8),
)
def test_cached_conversion_equals_exact_formula(amount, src_scale, dst_scale, rate, spread):
    backend = rates.RateBackend("static-table", {("X", "Y"): rate}, spread=spread)
    shift = Fraction(10) ** (dst_scale - src_scale)
    expected = int(Fraction(amount) * Fraction(rate) * (1 - Fraction(spread)) * shift)
    for _ in range(2):  # the second call reads the cached factor
        assert backend.convert(amount, "X", src_scale, "Y", dst_scale) == expected
    same_asset = int(Fraction(amount) * (1 - Fraction(spread)) * shift)
    assert backend.convert(amount, "X", src_scale, "X", dst_scale) == same_asset
