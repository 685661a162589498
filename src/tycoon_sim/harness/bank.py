"""Centralized bank: the only component allowed to move credits.

Balances are integer micro-credits.  Floating point is fine for bids and
prices, but the conservation audit demands that the sum of all balances
equal total issuance exactly at every instant, and integers make that a
theorem instead of a tolerance.
"""

from dataclasses import dataclass, field
from enum import Enum

from ..errors import (InsufficientBalanceError, InvalidAmountError,
                      UnknownAccountError)

MICRO = 1_000_000


def credits_to_micro(amount: float) -> int:
    return int(round(amount * MICRO))


def micro_to_credits(amount: int) -> float:
    return amount / MICRO


@dataclass
class BankLedger:
    accounts: dict = field(default_factory=dict)
    total_issued: int = 0

    def create_account(self, account_id: str, initial: int = 0) -> None:
        """Open an account, minting `initial` micro-credits into it."""
        if initial < 0:
            raise InvalidAmountError("initial balance must be >= 0")
        if account_id in self.accounts:
            raise InvalidAmountError(f"account {account_id} already exists")
        self.accounts[account_id] = initial
        self.total_issued += initial

    def balance(self, account_id: str) -> int:
        if account_id not in self.accounts:
            raise UnknownAccountError(account_id)
        return self.accounts[account_id]

    def total_balance(self) -> int:
        return sum(self.accounts.values())


def bank_transfer(ledger: BankLedger, from_id: str, to_id: str,
                  amount: int) -> None:
    """Move micro-credits between two existing accounts."""
    if from_id not in ledger.accounts:
        raise UnknownAccountError(from_id)
    if to_id not in ledger.accounts:
        raise UnknownAccountError(to_id)
    if not isinstance(amount, int) or amount < 0:
        raise InvalidAmountError(f"bad transfer amount {amount!r}")
    if ledger.accounts[from_id] < amount:
        raise InsufficientBalanceError(
            f"{from_id} holds {ledger.accounts[from_id]}, needs {amount}")
    ledger.accounts[from_id] -= amount
    ledger.accounts[to_id] += amount


class PolicyKind(Enum):
    OPEN_LOOP = "open_loop"
    CLOSED_LOOP = "closed_loop"


def apply_funding_policy(ledger: BankLedger, admin_account: str,
                         income_rates: dict, provider_accounts) -> list:
    """Pay one tick's incomes, then drain the providers to the admin.

    Open loop only: the admin account pays each user its income rate
    (account id -> micro-credits per tick) and provider earnings drain
    back to it, so purchasing power is continually re-issued.  Closed
    loop has no tick: users live off their initial allotment plus
    whatever they earn by providing.

    An income the admin account cannot cover is skipped, not raised: a
    dry pool starves its users rather than stopping the economy.
    Returns the accounts whose income was skipped, in payment order.
    """
    skipped = []
    for account_id, rate in sorted(income_rates.items()):
        try:
            bank_transfer(ledger, admin_account, account_id, rate)
        except InsufficientBalanceError:
            skipped.append(account_id)
    for provider in provider_accounts:
        held = ledger.balance(provider)
        if held:
            bank_transfer(ledger, provider, admin_account, held)
    return skipped
