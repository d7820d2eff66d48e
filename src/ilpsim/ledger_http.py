"""HTTP RPC for the mock ledger, so connectors and uplink nodes in other
processes can share one ledger instance.

One endpoint, POST /rpc with {"method": ..., "kwargs": {...}}; results and
ledger exceptions travel back as JSON. RemoteLedger mirrors the Ledger API
so it can be passed anywhere a Ledger is expected."""

from __future__ import annotations

import json
import logging
from datetime import datetime
from typing import Optional

from . import ledger as lg
from .admin import AdminServer, call_json

log = logging.getLogger(__name__)

_METHODS = {
    "describe", "create_and_fund", "transfer", "open_channel", "fund_channel",
    "get_channel", "channels", "verify_claim", "redeem_claim", "close_channel",
    "finalize_closing", "account_info", "total_value", "snapshot",
}


def _account_json(account: lg.Account) -> dict:
    return {
        "account_id": account.account_id,
        "public_key": account.public_key.hex(),
        "balance": account.balance,
    }


def _channel_json(channel: lg.PaymentChannel) -> dict:
    return {
        "channel_id": channel.channel_id,
        "account": channel.account,
        "destination": channel.destination,
        "amount": channel.amount,
        "balance": channel.balance,
        "public_key": channel.public_key.hex(),
        "settle_delay": channel.settle_delay,
        "state": channel.state,
        "close_after": channel.close_after.isoformat() if channel.close_after else None,
    }


def _channel_from_json(data: dict) -> lg.PaymentChannel:
    return lg.PaymentChannel(
        channel_id=data["channel_id"],
        account=data["account"],
        destination=data["destination"],
        amount=data["amount"],
        balance=data["balance"],
        public_key=bytes.fromhex(data["public_key"]),
        settle_delay=data["settle_delay"],
        state=data["state"],
        close_after=(
            datetime.fromisoformat(data["close_after"]) if data["close_after"] else None
        ),
    )


class LedgerApiServer(AdminServer):
    """POST /rpc. A ledger error, or a request that is not a valid call,
    is answered with status 200 and {"error": {"type", "message"}}."""

    def __init__(self, ledger: lg.Ledger, port: int = 0, bind_address: str = "127.0.0.1"):
        self.ledger = ledger
        super().__init__({("POST", "/rpc"): self._rpc}, port=port, bind_address=bind_address)

    def _rpc(self, request: bytes) -> dict:
        try:
            return self._dispatch(json.loads(request))
        except lg.LedgerError as exc:
            return {"error": {"type": type(exc).__name__, "message": str(exc)}}
        except Exception as exc:
            log.exception("ledger rpc failed")
            return {"error": {"type": "LedgerError", "message": str(exc)}}

    def _dispatch(self, call: dict) -> dict:
        method = call.get("method")
        if method not in _METHODS:
            raise lg.LedgerError(f"unknown method {method!r}")
        kwargs = call.get("kwargs", {})
        ledger = self.ledger
        if method == "describe":
            cfg = ledger.config
            result = {
                "asset_code": cfg.asset_code,
                "asset_scale": cfg.asset_scale,
                "genesis_balance": cfg.genesis_balance,
                "ledger_id": cfg.ledger_id,
            }
        elif method == "create_and_fund":
            result = _account_json(
                ledger.create_and_fund(
                    kwargs["account_id"], bytes.fromhex(kwargs["public_key"]), kwargs["amount"]
                )
            )
        elif method == "transfer":
            result = ledger.transfer(kwargs["src"], kwargs["dst"], kwargs["amount"])
        elif method == "open_channel":
            result = _channel_json(
                ledger.open_channel(
                    kwargs["account"],
                    kwargs["destination"],
                    kwargs["amount"],
                    kwargs["settle_delay"],
                    bytes.fromhex(kwargs["public_key"]),
                )
            )
        elif method == "fund_channel":
            result = _channel_json(ledger.fund_channel(kwargs["channel_id"], kwargs["additional"]))
        elif method == "get_channel":
            result = _channel_json(ledger.get_channel(kwargs["channel_id"]))
        elif method == "channels":
            result = [_channel_json(c) for c in ledger.channels(kwargs.get("account_id"))]
        elif method in ("verify_claim", "redeem_claim"):
            claim = lg.Claim(
                kwargs["channel_id"], kwargs["cumulative_amount"], bytes.fromhex(kwargs["signature"])
            )
            result = getattr(ledger, method)(claim)
        elif method == "close_channel":
            result = _channel_json(ledger.close_channel(kwargs["channel_id"], kwargs["initiator"]))
        elif method == "finalize_closing":
            result = _channel_json(ledger.finalize_closing(kwargs["channel_id"]))
        elif method == "account_info":
            result = _account_json(ledger.account_info(kwargs["account_id"]))
        elif method == "total_value":
            result = ledger.total_value()
        else:  # snapshot
            result = ledger.snapshot()
        return {"result": result}


class RemoteLedger:
    """Client-side proxy with the same surface as Ledger. A call that gets
    no answer, or one other than 200, raises admin.HttpError."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        info = self._call("describe")
        self.config = lg.LedgerConfig(**info)

    def _call(self, method: str, **kwargs):
        body = call_json(
            "POST", f"{self.base_url}/rpc", {"method": method, "kwargs": kwargs}, self.timeout
        )
        if "error" in body:
            exc_type = getattr(lg, body["error"]["type"], lg.LedgerError)
            raise exc_type(body["error"]["message"])
        return body["result"]

    def create_and_fund(self, account_id: str, public_key: bytes, amount: int) -> lg.Account:
        data = self._call(
            "create_and_fund", account_id=account_id, public_key=public_key.hex(), amount=amount
        )
        return lg.Account(data["account_id"], bytes.fromhex(data["public_key"]), data["balance"])

    def transfer(self, src: str, dst: str, amount: int) -> str:
        return self._call("transfer", src=src, dst=dst, amount=amount)

    def open_channel(self, account, destination, amount, settle_delay, public_key) -> lg.PaymentChannel:
        return _channel_from_json(
            self._call(
                "open_channel",
                account=account,
                destination=destination,
                amount=amount,
                settle_delay=settle_delay,
                public_key=public_key.hex(),
            )
        )

    def fund_channel(self, channel_id: str, additional: int) -> lg.PaymentChannel:
        return _channel_from_json(
            self._call("fund_channel", channel_id=channel_id, additional=additional)
        )

    def get_channel(self, channel_id: str) -> lg.PaymentChannel:
        return _channel_from_json(self._call("get_channel", channel_id=channel_id))

    def channels(self, account_id: Optional[str] = None) -> list[lg.PaymentChannel]:
        return [
            _channel_from_json(c) for c in self._call("channels", account_id=account_id)
        ]

    def verify_claim(self, claim: lg.Claim) -> bool:
        return self._call(
            "verify_claim",
            channel_id=claim.channel_id,
            cumulative_amount=claim.cumulative_amount,
            signature=claim.signature.hex(),
        )

    def redeem_claim(self, claim: lg.Claim) -> int:
        return self._call(
            "redeem_claim",
            channel_id=claim.channel_id,
            cumulative_amount=claim.cumulative_amount,
            signature=claim.signature.hex(),
        )

    def close_channel(self, channel_id: str, initiator: str) -> lg.PaymentChannel:
        return _channel_from_json(
            self._call("close_channel", channel_id=channel_id, initiator=initiator)
        )

    def finalize_closing(self, channel_id: str) -> lg.PaymentChannel:
        return _channel_from_json(self._call("finalize_closing", channel_id=channel_id))

    def account_info(self, account_id: str) -> lg.Account:
        data = self._call("account_info", account_id=account_id)
        return lg.Account(data["account_id"], bytes.fromhex(data["public_key"]), data["balance"])

    def total_value(self) -> int:
        return self._call("total_value")

    def snapshot(self) -> dict:
        return self._call("snapshot")
