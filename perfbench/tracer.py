"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ilpsim modules from the outside;
the program itself is not edited. Every span carries the ILP condition of
the packet it worked on, so one packet's spans share an identifier across the
threads of all hops. Spans stay in memory and are written out once, after
the traced phase.

A span is (name, key, thread id, start, end, self seconds, outcome), where
the outcome is None, the name of the exception raised, or "reject:<code>"
for a returned ILP Reject.
Self time is the span's duration minus the time of the spans it called on the
same thread.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from stats import percentile

from ilpsim import (
    btp,
    connector,
    events,
    ilp,
    ledger,
    ledger_http,
    link,
    localapp,
    peering,
    rates,
    routing,
    settlement,
    spsp,
    stream,
    uplink,
    wire,
)

REJECT_CODES = ("F02", "F05", "F06", "F08", "R00", "T00", "T04")


def _packet_key(data: bytes):
    """Condition of a raw ILP Prepare or Fulfill, read without decoding the
    packet (a Fulfill's condition is the hash of its fulfillment)."""
    try:
        _length, off = wire.read_length(data, 1)
    except wire.CodecError:
        return None
    if data[0] == ilp.TYPE_PREPARE:
        return data[off + 25 : off + 57] or None
    if data[0] == ilp.TYPE_FULFILL:
        return hashlib.sha256(data[off : off + 32]).digest()
    return None


def _key_of_packet(packet):
    if isinstance(packet, ilp.PreparePacket):
        return packet.condition
    if isinstance(packet, ilp.FulfillPacket):
        return hashlib.sha256(packet.fulfillment).digest()
    return None


def _key_of_entries(entries):
    for entry in entries:
        if entry.name == "ilp":
            return _packet_key(entry.data)
    return None


def _packet_arg(i: int):
    return lambda args: _key_of_packet(args[i]) if len(args) > i else None


def _targets() -> dict:
    """name -> (owner, attribute, key from positional args, key from result)"""
    targets = {
        "ilp.encode_packet": (ilp, "encode_packet", _packet_arg(0), None),
        "ilp.decode_packet": (ilp, "decode_packet", None, _key_of_packet),
        "btp.encode_frame": (btp, "encode_frame", lambda a: _key_of_entries(a[0].entries), None),
        "btp.decode_frame": (btp, "decode_frame", None, lambda f: _key_of_entries(f.entries)),
        "link.request": (
            link.LinkEndpoint, "request", lambda a: _key_of_entries(a[1]) or b"", None,
        ),
        "connector.handle_prepare": (connector.Connector, "handle_prepare", _packet_arg(2), None),
        "routing.lookup": (routing.RouteTable, "lookup", None, None),
        "rates.convert": (rates.RateBackend, "convert", None, None),
        "settlement.on_outgoing_fulfilled": (
            settlement.BilateralBalance, "on_outgoing_fulfilled", None, None,
        ),
        "peering.settle": (peering.Peer, "settle", None, None),
        "peering.handle_claim_entry": (peering.Peer, "handle_claim_entry", None, None),
        "ledger.sign_claim": (ledger, "sign_claim", None, None),
        "ledger.verify_claim": (ledger.Ledger, "verify_claim", None, None),
        "ledger.redeem_claim": (ledger.Ledger, "redeem_claim", None, None),
        "ledger.get_channel": (ledger.Ledger, "get_channel", None, None),
        "stream.packet_condition": (stream, "packet_condition", None, None),
        "stream.server_handle_prepare": (
            stream.StreamServer, "handle_prepare", _packet_arg(1), None,
        ),
        "spsp.query": (spsp, "query", None, None),
        "uplink.send_packet": (uplink.UplinkNode, "send_packet", _packet_arg(1), None),
        "localapp.session_setup": (localapp.LocalApp, "__init__", None, None),
        "events.emit": (events.EventLog, "emit", None, None),
    }
    for method in (
        "create_and_fund", "transfer", "open_channel", "fund_channel", "get_channel",
        "channels", "verify_claim", "redeem_claim", "close_channel", "finalize_closing",
        "account_info", "total_value", "snapshot",
    ):
        targets[f"ledger_http.rpc.{method}"] = (ledger_http.RemoteLedger, method, None, None)
    return targets


class Tracer:
    """Installs wrappers on enter and removes them on exit. It may be
    entered again; spans and counts accumulate."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.threads_started = 0
        self._count_lock = threading.Lock()
        self.fault_transports: list = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, key_from_args, key_from_result):
        spans, local = self.spans, self._local
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            key = key_from_args(args) if key_from_args else None
            if key is None and stack:
                key = stack[-1][0]
            frame = [key, 0.0]
            stack.append(frame)
            outcome = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                if key_from_result is not None and result is not None:
                    key = key_from_result(result) or key
                if isinstance(result, ilp.RejectPacket):
                    outcome = "reject:" + result.code
                spans.append(
                    (name, key, threading.get_ident(), start, end, end - start - frame[1], outcome)
                )

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for name, (owner, attr, key_args, key_result) in _targets().items():
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], key_args, key_result))

        thread_start = threading.Thread.start

        def counting_start(thread):
            with self._count_lock:
                self.threads_started += 1
            return thread_start(thread)

        self._patch(threading.Thread, "start", counting_start)

        faulty_init = link.FaultyTransport.__init__

        def registering_init(transport, *args, **kwargs):
            faulty_init(transport, *args, **kwargs)
            self.fault_transports.append(transport)

        self._patch(link.FaultyTransport, "__init__", registering_init)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, key, tid, start, end, self_s, outcome in self.spans:
                record = {
                    "name": name, "key": key.hex() if key else None, "thread": tid,
                    "start": start, "end": end, "self_s": self_s, "outcome": outcome,
                }
                fh.write(json.dumps(record) + "\n")


def _handoffs(spans: list[tuple]) -> list[float]:
    """For every link request that carried an ILP packet: its duration minus
    the time covered, on other threads, by spans of the same packet that ran
    inside it (the next hop's handling). What is left is the link's own
    cost: framing, transport and the thread handoff both ways."""
    by_key: dict[bytes, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[1]:
            by_key[span[1]].append(span)
    out = []
    for span in spans:
        name, key, tid, start, end = span[:5]
        if name != "link.request" or not key:
            continue
        per_thread: dict[int, list[float]] = {}
        for other in by_key[key]:
            if other[2] != tid and other[3] >= start and other[4] <= end:
                window = per_thread.setdefault(other[2], [other[3], other[4]])
                window[0], window[1] = min(window[0], other[3]), max(window[1], other[4])
        covered, cursor = 0.0, start
        for lo, hi in sorted(per_thread.values()):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(
    tracer: Tracer, packets: int, payments: int, event_logs: list
) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced phase."""
    packets, payments = max(packets, 1), max(payments, 1)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span[0]].append(span)

    def self_us(name: str) -> float:
        """Mean self time per call: calls of one function can come from
        different hops (two connectors' route tables), so a median would
        pick one of them."""
        group = by_name[name]
        return sum(s[5] for s in group) / len(group) * 1e6 if group else 0.0

    def per_packet(name: str) -> float:
        return len(by_name[name]) / packets

    rpcs = [
        s for name, group in by_name.items() if name.startswith("ledger_http.rpc.") for s in group
    ]
    claims = len(by_name["peering.settle"])
    handoffs = [h * 1e6 for h in _handoffs(tracer.spans)]
    m = {}
    for name in ("ilp.encode_packet", "ilp.decode_packet", "btp.encode_frame", "btp.decode_frame"):
        m[f"{name}.self_us"] = self_us(name)
        m[f"{name}.calls_per_packet"] = per_packet(name)
    m["link.request.calls_per_packet"] = per_packet("link.request")
    m["link.handoff_us_p50"] = percentile(handoffs, 50)
    m["link.handoff_us_p90"] = percentile(handoffs, 90)
    m["link.threads_per_packet"] = tracer.threads_started / packets
    m["link.timeouts_per_payment"] = (
        sum(1 for s in by_name["link.request"] if s[6] == "Timeout") / payments
    )
    m["link.faults.dropped"] = sum(t.dropped for t in tracer.fault_transports)
    m["link.faults.duplicated"] = sum(t.duplicated for t in tracer.fault_transports)
    m["connector.handle_prepare.self_us"] = self_us("connector.handle_prepare")
    m["routing.lookup.self_us"] = self_us("routing.lookup")
    m["routing.lookup.calls_per_packet"] = per_packet("routing.lookup")
    m["rates.convert.self_us"] = self_us("rates.convert")
    m["settlement.claims_per_packet"] = claims / packets
    m["settlement.on_outgoing_fulfilled.self_us"] = self_us("settlement.on_outgoing_fulfilled")
    m["peering.settle.self_us"] = self_us("peering.settle")
    m["peering.handle_claim_entry.self_us"] = self_us("peering.handle_claim_entry")
    m["ledger.sign_claim.self_us"] = self_us("ledger.sign_claim")
    m["ledger.verify_claim.self_us"] = self_us("ledger.verify_claim")
    m["ledger.verify_claim.calls_per_claim"] = len(by_name["ledger.verify_claim"]) / max(claims, 1)
    m["ledger.redeem_claim.self_us"] = self_us("ledger.redeem_claim")
    m["ledger.get_channel.calls_per_packet"] = per_packet("ledger.get_channel")
    m["ledger_http.rpcs_per_packet"] = len(rpcs) / packets
    m["ledger_http.rpc_us_p50"] = percentile([(s[4] - s[3]) * 1e6 for s in rpcs], 50)
    m["stream.packet_condition.self_us"] = self_us("stream.packet_condition")
    m["stream.server_handle_prepare.self_us"] = self_us("stream.server_handle_prepare")
    m["spsp.query.us_p50"] = percentile(
        [(s[4] - s[3]) * 1e6 for s in by_name["spsp.query"]], 50
    )
    m["uplink.send_packet.self_us"] = self_us("uplink.send_packet")
    m["uplink.send_packet.us_p99"] = percentile(
        [(s[4] - s[3]) * 1e6 for s in by_name["uplink.send_packet"]], 99
    )
    m["localapp.session_setup_us_p50"] = percentile(
        [(s[4] - s[3]) * 1e6 for s in by_name["localapp.session_setup"]], 50
    )
    m["events.emit.calls_per_packet"] = per_packet("events.emit")
    m["events.emit.self_us"] = self_us("events.emit")
    m["events.retained"] = sum(len(log.events()) for log in event_logs)
    outcomes = Counter(s[6] for s in by_name["connector.handle_prepare"])
    for code in REJECT_CODES:
        m[f"connector.rejects.{code}"] = outcomes[f"reject:{code}"]
    return m
