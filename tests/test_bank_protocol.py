"""The bank under duplicated and reordered messages: a stateful property.

The machine plays one parent and one or two hosts against a harness's
bank and calls ``_BankNode.handle`` itself, with no ``Network`` in
between.  Its rules send fund requests, cumulative settlements, host
closes and parent closes.  The network it stands for may deliver the
oldest message sent, any later one first (holding the older ones back),
or any message sent before once more.  Each invariant is checked after
every step, by name.  The plain machine asserts those that hold today;
the one that fails is a strict ``xfail`` naming its defect.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from tycoon_sim.harness.agents import ParentJob
from tycoon_sim.harness.bank import MICRO
from tycoon_sim.harness.messages import (FundRequest, Message, MessageKind,
                                         Settle)
from tycoon_sim.harness.scenario import HarnessSim, ScenarioConfig

PARENT = "parent:0"
KEYS = ("parent:0/c0", "parent:0/c1")
LUMP = MICRO
FUND, TRANSFER = MessageKind.FUND_AUCTIONEER, MessageKind.TRANSFER

# Hypothesis's own default for a machine suppresses every health check;
# the one that fires here is a step count scaled for a deep search.
MACHINE = settings(max_examples=100, stateful_step_count=30, deadline=None,
                   suppress_health_check=[HealthCheck.large_base_example])
# An expected failure needs no shrinking and no explanation, which take
# seconds a run.
EXPECTED_FAILURE = settings(MACHINE, phases=(Phase.explicit, Phase.reuse,
                                             Phase.generate))


class RequestMovedTwice(AssertionError):
    """A repeated FundRequest moved credits a second time."""


class BankProtocol(RuleBasedStateMachine):
    """One parent, one or two hosts and the bank; child ``KEYS[i]`` sits
    on host ``i`` modulo the host count."""

    # The kinds of message that may arrive more than once.
    REPEATS = (FUND, TRANSFER)

    @initialize(hosts=st.integers(1, 2))
    def open_the_bank(self, hosts):
        self.sim = HarnessSim(ScenarioConfig(
            num_hosts=hosts, duration=1.0,
            # Two and a half lumps: the parent's third request is
            # refused unless a sweep has paid it back.
            parents=(ParentJob(total_credits=2.5 * LUMP / MICRO,
                               num_hosts=1),)))
        self.host_of = {key: f"host:{i % hosts}"
                        for i, key in enumerate(KEYS)}
        self.sent: list[Message] = []
        self.queue: list[Message] = []
        # What each host has metered, and the most it has reported,
        # per child key.
        self.spent = dict.fromkeys(KEYS, 0)
        self.reported = dict.fromkeys(KEYS, 0)
        # Message seq -> the deliveries of it that moved credits.
        self.moves: Counter = Counter()
        # Keys whose escrow the bank has closed.
        self.closed: set = set()
        # A parent funds each child as it spawns it, before it sends
        # anything else about it.
        for key in KEYS:
            self.request_funding(key)

    def _send(self, sender, kind, payload) -> None:
        msg = Message(0.0, sender, len(self.sent), "bank", kind, payload)
        self.sent.append(msg)
        self.queue.append(msg)

    def _deliver(self, msg: Message) -> None:
        sim = self.sim
        refusal = self._refusal(msg)
        refused = sim.rejected_transfers
        before = {k: v for k, v in sim.ledger.accounts.items() if v}
        try:
            sim.bank.handle(msg)
        except Exception as exc:
            raise AssertionError(
                f"the bank raised on {msg}: a handler that raises ends "
                "the whole run's network pump") from exc
        after = {k: v for k, v in sim.ledger.accounts.items() if v}
        if after != before:
            self.moves[msg.seq] += 1
        if refusal:
            # The bank counts what it refuses and moves no credit for it.
            assert sim.rejected_transfers == refused + 1, refusal
            assert after == before, refusal
        self.closed.update(key for key, books in sim.bank.escrows.items()
                           if books.closed)
        # The bank's Funds to hosts and receipts to the parent go nowhere.
        sim.network._queue.clear()

    def _refusal(self, msg: Message) -> str | None:
        """What the bank must refuse in ``msg``, if anything: a request
        for a closed escrow or one the parent cannot pay, or a report
        whose unpaid spend is more than the open escrow holds."""
        ledger = self.sim.ledger.accounts
        if msg.kind is FUND:
            books = self.sim.bank.escrows.get(msg.payload.child_key)
            if books is not None and books.closed:
                return f"a request for a closed escrow: {msg}"
            if ledger[PARENT] < msg.payload.amount:
                return f"a request beyond the parent's balance: {msg}"
        elif not msg.payload.close:
            (key, total), = msg.payload.cumulative.items()
            books = self.sim.bank.escrows.get(key)
            if (books is not None and not books.closed
                    and total - books.moved > ledger[key]):
                return f"a report beyond the escrow: {msg}"
        return None

    # -- what the parent and the hosts send ------------------------------

    @rule(key=st.sampled_from(KEYS))
    def request_funding(self, key):
        self._send(PARENT, FUND, FundRequest(self.host_of[key], key, LUMP))

    @rule(key=st.sampled_from(KEYS), amount=st.integers(1, 2 * LUMP))
    def report_spend(self, key, amount):
        # A host reports more than the escrow holds only if it is
        # wrong; the bank must refuse that, not pay it.
        self.spent[key] += amount
        self.reported[key] = self.spent[key]
        self._send(self.host_of[key], TRANSFER,
                   Settle({key: self.spent[key]}, []))

    @rule(key=st.sampled_from(KEYS), by_host=st.booleans())
    def close(self, key, by_host):
        # A host closes with the child's final spend; a parent that
        # timed the child out closes with none.
        if by_host:
            self.reported[key] = self.spent[key]
            self._send(self.host_of[key], TRANSFER,
                       Settle({key: self.spent[key]}, [key]))
        else:
            self._send(PARENT, TRANSFER, Settle({}, [key]))

    # -- what the network does with them ---------------------------------

    @precondition(lambda self: self.queue)
    @rule()
    def deliver_the_oldest(self):
        self._deliver(self.queue.pop(0))

    @precondition(lambda self: len(self.queue) > 1)
    @rule(pick=st.integers(0, 2**16))
    def deliver_a_later_one_first(self, pick):
        self._deliver(self.queue.pop(1 + pick % (len(self.queue) - 1)))

    @precondition(lambda self: any(msg.kind in self.REPEATS
                                   for msg in self.sent))
    @rule(pick=st.integers(0, 2**16))
    def deliver_one_again(self, pick):
        repeatable = [msg for msg in self.sent if msg.kind in self.REPEATS]
        self._deliver(repeatable[pick % len(repeatable)])

    # -- invariants that hold today ----------------------------------------

    @invariant()
    def the_ledger_is_conserved_and_never_negative(self):
        ledger = self.sim.ledger
        assert ledger.total_balance() == ledger.total_issued
        assert min(ledger.accounts.values()) >= 0

    @invariant()
    def no_host_is_paid_more_than_it_reported(self):
        for host in set(self.host_of.values()):
            reported = sum(total for key, total in self.reported.items()
                           if self.host_of[key] == host)
            assert self.sim.ledger.balance(host) <= reported, host

    @invariant()
    def a_closed_escrow_holds_zero_and_stays_closed(self):
        # A close can arrive before its key's FundRequest, or between
        # two deliveries of it.
        for key in self.closed:
            books = self.sim.bank.escrows[key]
            held = self.sim.ledger.accounts.get(key, 0)
            assert books.closed and not held, f"{key}: {books} holding {held}"


class TestBankProtocol(BankProtocol.TestCase):
    settings = MACHINE


class RepeatedRequests(BankProtocol):
    @invariant()
    def each_request_moves_credits_at_most_once(self):
        twice = sorted(seq for seq, n in self.moves.items() if n > 1)
        if twice:
            raise RequestMovedTwice(
                f"messages {twice} moved credits more than once: "
                f"{[self.sent[seq] for seq in twice]}")


@pytest.mark.xfail(strict=True, raises=RequestMovedTwice, reason=(
    "_BankNode.handle applies a repeated FundRequest again: one request "
    "delivered twice debits the parent two lumps"))
class TestRepeatedFundRequest(RepeatedRequests.TestCase):
    settings = EXPECTED_FAILURE

