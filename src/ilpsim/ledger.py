"""In-process mock ledger: funded accounts, transfers, and unidirectional
payment channels with Ed25519-signed cumulative claims.

All funds originate from a genesis account, so per-ledger conservation is
simply: genesis + sum(account balances) + sum(open-channel escrow) ==
genesis_balance at all times. Transaction fees are zero.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from datetime import datetime
from typing import Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .clock import SimClock

GENESIS = "genesis"


class LedgerError(Exception):
    pass


class DuplicateAccount(LedgerError):
    pass


class UnknownAccount(LedgerError):
    pass


class InsufficientFunds(LedgerError):
    pass


class InsufficientGenesis(InsufficientFunds):
    pass


class UnknownChannel(LedgerError):
    pass


class InvalidClaim(LedgerError):
    pass


class StaleClaim(LedgerError):
    """Claim does not exceed the channel's already-redeemed balance."""


class AlreadyClosed(LedgerError):
    pass


@dataclass(frozen=True)
class LedgerConfig:
    asset_code: str
    asset_scale: int
    genesis_balance: int
    ledger_id: str = ""

    def __post_init__(self):
        if not 0 <= self.asset_scale <= 19:
            raise ValueError("asset_scale must be in 0..19")
        if self.genesis_balance <= 0:
            raise ValueError("genesis_balance must be positive")


@dataclass
class Account:
    account_id: str
    public_key: bytes
    balance: int


OPEN = "open"
CLOSING = "closing"
CLOSED = "closed"


@dataclass
class PaymentChannel:
    channel_id: str
    account: str  # payer
    destination: str  # payee
    amount: int  # channel size (escrowed)
    balance: int  # cumulative redeemed so far
    public_key: bytes  # payer's channel verification key
    settle_delay: int
    state: str = OPEN
    close_after: Optional[datetime] = None


@dataclass(frozen=True)
class Claim:
    channel_id: str
    cumulative_amount: int
    signature: bytes


def claim_payload(channel_id: str, cumulative_amount: int) -> bytes:
    return channel_id.encode("utf-8") + cumulative_amount.to_bytes(8, "big")


def generate_keypair() -> tuple[Ed25519PrivateKey, bytes]:
    private = Ed25519PrivateKey.generate()
    return private, private.public_key().public_bytes_raw()


def sign_claim(private_key: Ed25519PrivateKey, channel_id: str, cumulative_amount: int) -> Claim:
    sig = private_key.sign(claim_payload(channel_id, cumulative_amount))
    return Claim(channel_id, cumulative_amount, sig)


class Ledger:
    """Mock ledger. All mutations are serialized under one lock; handles may
    be shared freely across threads."""

    def __init__(self, config: LedgerConfig, clock: Optional[SimClock] = None):
        self.config = config
        self.clock = clock or SimClock()
        self._lock = threading.RLock()
        self._accounts: dict[str, Account] = {
            GENESIS: Account(GENESIS, b"", config.genesis_balance)
        }
        self._channels: dict[str, PaymentChannel] = {}
        self._txn_counter = itertools.count(1)
        self._channel_counter = itertools.count(1)

    # -- accounts

    def create_and_fund(self, account_id: str, public_key: bytes, amount: int) -> Account:
        with self._lock:
            if account_id in self._accounts:
                raise DuplicateAccount(account_id)
            genesis = self._accounts[GENESIS]
            if amount > genesis.balance:
                raise InsufficientGenesis(
                    f"genesis holds {genesis.balance}, cannot fund {amount}"
                )
            genesis.balance -= amount
            account = Account(account_id, public_key, amount)
            self._accounts[account_id] = account
            return account

    def account_info(self, account_id: str) -> Account:
        with self._lock:
            try:
                return self._accounts[account_id]
            except KeyError:
                raise UnknownAccount(account_id) from None

    def transfer(self, src: str, dst: str, amount: int) -> str:
        if amount < 0:
            raise ValueError("negative amount")
        with self._lock:
            if src not in self._accounts:
                raise UnknownAccount(src)
            if dst not in self._accounts:
                raise UnknownAccount(dst)
            if self._accounts[src].balance < amount:
                raise InsufficientFunds(f"{src} holds {self._accounts[src].balance}")
            self._accounts[src].balance -= amount
            self._accounts[dst].balance += amount
            return f"txn-{next(self._txn_counter)}"

    # -- payment channels

    def open_channel(
        self,
        account: str,
        destination: str,
        amount: int,
        settle_delay: int,
        public_key: bytes,
    ) -> PaymentChannel:
        with self._lock:
            if account not in self._accounts:
                raise UnknownAccount(account)
            if destination not in self._accounts:
                raise UnknownAccount(destination)
            payer = self._accounts[account]
            if payer.balance < amount:
                raise InsufficientFunds(f"{account} holds {payer.balance}")
            payer.balance -= amount
            channel = PaymentChannel(
                channel_id=f"chan-{self.config.asset_code.lower()}-{next(self._channel_counter)}",
                account=account,
                destination=destination,
                amount=amount,
                balance=0,
                public_key=public_key,
                settle_delay=settle_delay,
            )
            self._channels[channel.channel_id] = channel
            return channel

    def fund_channel(self, channel_id: str, additional: int) -> PaymentChannel:
        """Top up an open channel's escrow from the payer's account."""
        with self._lock:
            channel = self._get_channel(channel_id)
            if channel.state == CLOSED:
                raise AlreadyClosed(channel_id)
            payer = self._accounts[channel.account]
            if payer.balance < additional:
                raise InsufficientFunds(f"{channel.account} holds {payer.balance}")
            payer.balance -= additional
            channel.amount += additional
            return channel

    def get_channel(self, channel_id: str) -> PaymentChannel:
        with self._lock:
            return self._get_channel(channel_id)

    def channels(self, account_id: Optional[str] = None) -> list[PaymentChannel]:
        with self._lock:
            chans = list(self._channels.values())
        if account_id is not None:
            chans = [c for c in chans if account_id in (c.account, c.destination)]
        return chans

    def _get_channel(self, channel_id: str) -> PaymentChannel:
        try:
            return self._channels[channel_id]
        except KeyError:
            raise UnknownChannel(channel_id) from None

    def verify_claim(self, claim: Claim) -> bool:
        with self._lock:
            channel = self._get_channel(claim.channel_id)
        if not 0 <= claim.cumulative_amount <= channel.amount:
            return False
        try:
            Ed25519PublicKey.from_public_bytes(channel.public_key).verify(
                claim.signature, claim_payload(claim.channel_id, claim.cumulative_amount)
            )
        except InvalidSignature:
            return False
        return True

    def redeem_claim(self, claim: Claim) -> int:
        """Credit the payee with the not-yet-redeemed portion of the claim.
        Replays credit 0 and raise StaleClaim."""
        if not self.verify_claim(claim):
            raise InvalidClaim(claim.channel_id)
        with self._lock:
            channel = self._get_channel(claim.channel_id)
            if channel.state == CLOSED:
                raise AlreadyClosed(claim.channel_id)
            if claim.cumulative_amount <= channel.balance:
                raise StaleClaim(
                    f"claim at {claim.cumulative_amount}, channel already at {channel.balance}"
                )
            delta = claim.cumulative_amount - channel.balance
            channel.balance = claim.cumulative_amount
            self._accounts[channel.destination].balance += delta
            return delta

    def close_channel(self, channel_id: str, initiator: str) -> PaymentChannel:
        """Payee close is immediate; payer-initiated close waits out
        settle_delay (via finalize_closing) so the payee can still redeem
        outstanding claims. Nobody else may close the channel."""
        with self._lock:
            channel = self._get_channel(channel_id)
            if channel.state == CLOSED:
                raise AlreadyClosed(channel_id)
            if initiator not in (channel.account, channel.destination):
                raise LedgerError(f"{initiator} is neither payer nor payee of {channel_id}")
            if initiator == channel.account:
                if channel.state == CLOSING:
                    # re-close by the payer cannot shortcut the delay window
                    return self.finalize_closing(channel_id)
                from datetime import timedelta

                channel.state = CLOSING
                channel.close_after = self.clock.now() + timedelta(
                    seconds=channel.settle_delay
                )
                return channel
            # payee-initiated: finalize now
            return self._finalize(channel)

    def finalize_closing(self, channel_id: str) -> PaymentChannel:
        with self._lock:
            channel = self._get_channel(channel_id)
            if channel.state == CLOSED:
                raise AlreadyClosed(channel_id)
            if channel.state != CLOSING:
                raise LedgerError(f"channel {channel_id} is not closing")
            if self.clock.now() < channel.close_after:
                raise LedgerError(
                    f"settle delay has not elapsed (until {channel.close_after})"
                )
            return self._finalize(channel)

    def _finalize(self, channel: PaymentChannel) -> PaymentChannel:
        refund = channel.amount - channel.balance
        self._accounts[channel.account].balance += refund
        channel.state = CLOSED
        channel.close_after = None
        return channel

    # -- invariants / reporting

    def total_value(self) -> int:
        """Genesis + accounts + open escrow. Constant by construction."""
        with self._lock:
            balances = sum(a.balance for a in self._accounts.values())
            escrow = sum(
                c.amount - c.balance for c in self._channels.values() if c.state != CLOSED
            )
            return balances + escrow

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "asset_code": self.config.asset_code,
                "asset_scale": self.config.asset_scale,
                "accounts": {a.account_id: a.balance for a in self._accounts.values()},
                "channels": [
                    {
                        "channel_id": c.channel_id,
                        "account": c.account,
                        "destination": c.destination,
                        "amount": c.amount,
                        "balance": c.balance,
                        "settle_delay": c.settle_delay,
                        "state": c.state,
                    }
                    for c in self._channels.values()
                ],
            }


def load_ledger(config: dict, clock: Optional[SimClock] = None) -> Ledger:
    """Build a ledger from a bootstrap dict: asset code/scale, genesis
    balance, and optional pre-funded accounts."""
    ledger = Ledger(
        LedgerConfig(
            asset_code=config["assetCode"],
            asset_scale=int(config["assetScale"]),
            genesis_balance=int(config["genesisBalance"]),
            ledger_id=config.get("ledgerId", config["assetCode"].lower()),
        ),
        clock=clock,
    )
    for acct in config.get("accounts", []):
        ledger.create_and_fund(
            acct["accountId"],
            bytes.fromhex(acct.get("publicKey", "")),
            int(acct.get("balance", 0)),
        )
    return ledger
