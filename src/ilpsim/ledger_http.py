"""HTTP RPC for the mock ledger, so connectors and uplink nodes in other
processes can share one ledger instance.

One endpoint, POST /rpc with {"method": ..., "kwargs": {...}}: the server
calls the Ledger method of that name if RemoteLedger mirrors it, and `describe`
answers the fields of the ledger's config. Values travel in one JSON form
both ways (`_encode`): a record is an object of its fields, bytes are hex
and a datetime is an ISO string; `_decode` reads back the fields that are
not plain JSON. A ledger error comes back as {"error": {"type", "message"}}
and is raised again by RemoteLedger, which mirrors the Ledger API so it can
be passed anywhere a Ledger is expected."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import logging
from datetime import datetime
from typing import Any, Callable, Optional

from . import ledger as lg
from .admin import AdminServer, call_json

log = logging.getLogger(__name__)

def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, datetime):
        return value.isoformat()
    return value


# Field name -> reader of its JSON form, for the fields that are not plain JSON.
_FIELDS = {
    "public_key": bytes.fromhex,
    "signature": bytes.fromhex,
    "close_after": lambda text: text and datetime.fromisoformat(text),
    "claim": lambda fields: lg.Claim(**_decode(fields)),
}


def _decode(fields: dict) -> dict:
    return {key: _FIELDS[key](item) if key in _FIELDS else item for key, item in fields.items()}


def _account(fields: dict) -> lg.Account:
    return lg.Account(**_decode(fields))


def _channel(fields: dict) -> lg.PaymentChannel:
    return lg.PaymentChannel(**_decode(fields))


def _error_class(type_name: str) -> type[lg.LedgerError]:
    """The LedgerError subclass of that name, else LedgerError itself."""
    cls = getattr(lg, type_name, None)
    return cls if isinstance(cls, type) and issubclass(cls, lg.LedgerError) else lg.LedgerError


class LedgerApiServer(AdminServer):
    """POST /rpc. A ledger error, or a request that is not a valid call,
    is answered with status 200 and {"error": {"type", "message"}}."""

    def __init__(self, ledger: lg.Ledger, port: int = 0, bind_address: str = "127.0.0.1"):
        self.ledger = ledger
        super().__init__({("POST", "/rpc"): self._rpc}, port=port, bind_address=bind_address)

    def _rpc(self, request: bytes) -> dict:
        try:
            return {"result": _encode(self._bind(request)())}
        except lg.LedgerError as exc:
            return {"error": {"type": type(exc).__name__, "message": str(exc)}}
        except Exception as exc:  # a fault of the ledger itself
            log.exception("ledger rpc failed")
            return {"error": {"type": "LedgerError", "message": str(exc)}}

    def _bind(self, request: bytes) -> Callable[[], Any]:
        """The ledger call a request names, with its arguments read and bound,
        so that a client's mistake raises LedgerError before the ledger runs."""
        try:
            call = json.loads(request)
            method = call.get("method")
            if method == "describe":
                return lambda: self.ledger.config
            if method not in CALLS:
                raise lg.LedgerError(f"unknown method {method!r}")
            fn = getattr(self.ledger, method)
            bound = inspect.signature(fn).bind(**_decode(call.get("kwargs", {})))
        except (AttributeError, TypeError, ValueError) as exc:
            raise lg.LedgerError(f"bad request: {exc}") from exc
        return functools.partial(fn, *bound.args, **bound.kwargs)


class RemoteLedger:
    """Client-side proxy with the same surface as Ledger. A call that gets
    no answer, or one other than 200, raises admin.HttpError."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.config = lg.LedgerConfig(**self._call("describe"))

    def _call(self, method: str, **kwargs):
        body = call_json(
            "POST", f"{self.base_url}/rpc", {"method": method, "kwargs": _encode(kwargs)}, self.timeout
        )
        if "error" in body:
            raise _error_class(body["error"]["type"])(body["error"]["message"])
        return body["result"]

    def create_and_fund(self, account_id: str, public_key: bytes, amount: int) -> lg.Account:
        return _account(
            self._call("create_and_fund", account_id=account_id, public_key=public_key, amount=amount)
        )

    def transfer(self, src: str, dst: str, amount: int) -> str:
        return self._call("transfer", src=src, dst=dst, amount=amount)

    def open_channel(self, account, destination, amount, settle_delay, public_key) -> lg.PaymentChannel:
        return _channel(self._call(
            "open_channel", account=account, destination=destination, amount=amount,
            settle_delay=settle_delay, public_key=public_key,
        ))

    def fund_channel(self, channel_id: str, additional: int) -> lg.PaymentChannel:
        return _channel(self._call("fund_channel", channel_id=channel_id, additional=additional))

    def get_channel(self, channel_id: str) -> lg.PaymentChannel:
        return _channel(self._call("get_channel", channel_id=channel_id))

    def channels(self, account_id: Optional[str] = None) -> list[lg.PaymentChannel]:
        return [_channel(c) for c in self._call("channels", account_id=account_id)]

    def verify_claim(self, claim: lg.Claim) -> bool:
        return self._call("verify_claim", claim=claim)

    def redeem_claim(self, claim: lg.Claim) -> int:
        return self._call("redeem_claim", claim=claim)

    def close_channel(self, channel_id: str, initiator: str) -> lg.PaymentChannel:
        return _channel(self._call("close_channel", channel_id=channel_id, initiator=initiator))

    def finalize_closing(self, channel_id: str) -> lg.PaymentChannel:
        return _channel(self._call("finalize_closing", channel_id=channel_id))

    def account_info(self, account_id: str) -> lg.Account:
        return _account(self._call("account_info", account_id=account_id))

    def total_value(self) -> int:
        return self._call("total_value")

    def snapshot(self) -> dict:
        return self._call("snapshot")


# The Ledger methods the server calls by name, besides `describe`: the ones RemoteLedger mirrors.
CALLS = frozenset(name for name in vars(RemoteLedger) if not name.startswith("_"))
