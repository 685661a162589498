"""End-to-end scenario: parents fund children that bid on real hosts.

Every host wraps the auction scheduler; every credit movement goes
through the bank, with a per-child escrow account.  An account is named
by its party's network id, and an escrow by its child's key.  Hosts
meter what each child spends and, on the advertise tick, report the
*cumulative* spend of every escrow to the bank, which moves only what it
has not moved yet: a lost or repeated report costs nothing, and the next
one delivered heals it.  Parents provision hosts through the locator,
monitor progress per cost, and replace laggards or silent (dead) hosts.

The run steps from event slice to event slice: an advertise, monitor or
funding tick, the first queued delivery, a host kill, or the decision
after a progress query.  Between two events every host runs its slices
in one call.  This is conservative synchronisation with lookahead
(Chandy & Misra, 1979), exact here because a host sends nothing while it
runs slices and every effect between components goes through the
network queue, which only event slices pump.  Sends and drop coins thus
come in the order that stepping each slice gives, and a run is
deterministic per seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, InsufficientBalanceError
from ..sched.auction import AuctionShareScheduler
from ..sched.types import AgentAccount, PriceMode, SchedulerConfig
from ..slices import _first_slice_at
from .agents import (ChildAgentState, ParentJob, parent_budget,
                     parent_monitor_and_replace)
from .bank import (MICRO, BankLedger, PolicyKind, apply_funding_policy,
                   bank_transfer, credits_to_micro, micro_to_credits)
from .messages import (Fund, FundRequest, MessageKind, Network, Progress,
                       Settle, Spawn)
from .sls import ServiceLocator


#: Longest run a scenario may ask for, in slices: about 11.6 days of
#: 10 ms slices.
MAX_SLICES = 100_000_000

#: Largest cluster a scenario may ask for.  The run builds every host up
#: front, at about 2 KB each, and a busy host's auction keeps up to 1,000
#: clearing prices, about 32 KB more, so the hosts stay under about
#: 350 MB; an unbounded count passed validation and then ran out of
#: memory building them.
MAX_HOSTS = 10_000


@dataclass
class ScenarioConfig:
    num_hosts: int = 3
    parents: tuple[ParentJob, ...] = (ParentJob(), ParentJob())
    duration: float = 60.0
    timeslice_length: float = 0.010
    policy_kind: PolicyKind = PolicyKind.CLOSED_LOOP
    # Lone bidders must still pay for slices or cost statistics starve,
    # so scenarios default to first-price auctions.
    price_mode: PriceMode = PriceMode.FIRST_PRICE
    funding_chunk_minutes: float = 0.25
    refresh_fraction: float = 0.25
    advertise_interval: float = 2.0
    sls_ttl: float = 5.0
    monitor_interval: float = 5.0
    report_timeout: float = 12.0
    migration_overhead: float = 5.0
    message_latency: float = 0.0
    drop_probability: float = 0.0
    # Relative work produced per slice on each host; shorter than
    # num_hosts pads with 1.0.
    host_speeds: tuple[float, ...] = ()
    # (time, host_index) pairs: the host vanishes at that instant.
    kill_hosts: tuple[tuple[float, int], ...] = ()
    # Open-loop knobs: per-parent income per funding interval, and the
    # administrator pool that pays for it.
    funding_interval: float = 5.0
    open_loop_income: float = 0.5
    admin_pool: float = 100.0
    audit_every_slice: bool = False
    rng_seed: int = 42

    def validate(self) -> None:
        if not self.parents:
            raise ConfigError("parents: need at least one parent")
        for i, job in enumerate(self.parents):
            try:
                job.validate()
            except ConfigError as exc:
                raise ConfigError(f"parents[{i}].{exc}") from None
            if job.num_hosts > self.num_hosts:
                # The budget would be spread over hosts that do not exist.
                raise ConfigError(
                    f"parents[{i}].num_hosts: {job.num_hosts} is more than "
                    f"the cluster's num_hosts {self.num_hosts}")
        for name in ("num_hosts", "duration", "timeslice_length",
                     "funding_chunk_minutes", "sls_ttl", "advertise_interval",
                     "monitor_interval", "report_timeout",
                     "funding_interval"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name}: must be > 0 and finite")
        # run() rounds each of these to a whole number of slices.
        for name in ("duration", "advertise_interval", "monitor_interval",
                     "funding_interval"):
            if not math.isfinite(getattr(self, name) / self.timeslice_length):
                raise ConfigError(f"{name}: not a finite number of slices")
        if self.duration / self.timeslice_length > MAX_SLICES:
            raise ConfigError(f"duration: more than {MAX_SLICES} slices")
        if self.num_hosts > MAX_HOSTS:
            raise ConfigError(f"num_hosts: more than {MAX_HOSTS} hosts")
        for name in ("message_latency", "migration_overhead",
                     "open_loop_income", "admin_pool"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name}: must be >= 0 and finite")
        # The bank books integer micro-credits.
        amounts = [("open_loop_income", self.open_loop_income),
                   ("admin_pool", self.admin_pool)]
        for i, job in enumerate(self.parents):
            lump = parent_budget(job) * self.funding_chunk_minutes
            amounts += [(f"parents[{i}].total_credits", job.total_credits),
                        (f"parents[{i}] lump", lump)]
        for name, amount in amounts:
            if not math.isfinite(amount * MICRO):
                raise ConfigError(f"{name}: {amount} credits overflow "
                                  "integer micro-credits")
        if not 0 <= self.drop_probability < 1:
            raise ConfigError("drop_probability: must be in [0, 1)")
        if not 0 < self.refresh_fraction < 1:
            raise ConfigError("refresh_fraction: must be in (0, 1)")
        for i, speed in enumerate(self.host_speeds):
            if not 0 < speed < math.inf:
                raise ConfigError(f"host_speeds[{i}]: must be > 0 and finite")
        if len(self.host_speeds) > self.num_hosts:
            raise ConfigError("host_speeds: more entries than num_hosts")
        for i, (when, host) in enumerate(self.kill_hosts):
            if not -math.inf < when < self.duration:
                raise ConfigError(
                    f"kill_hosts[{i}][0]: time {when} is not finite and "
                    f"before duration {self.duration}")
            if not 0 <= host < self.num_hosts:
                raise ConfigError(
                    f"kill_hosts index {host} outside 0..{self.num_hosts - 1}")


@dataclass
class ScenarioReport:
    per_parent: dict
    per_host: dict
    replacements: list
    starvation_events: int
    ledger_ok: bool
    no_negative_balances: bool
    total_issued: int
    final_total: int
    messages_sent: int
    messages_dropped: int
    # Transfers the bank refused, and messages addressed to dead hosts.
    rejected_transfers: int
    undeliverable: int
    # Metered spend no provider received: spend a dead host never
    # reported, spend reported after its escrow closed, and spend whose
    # last report was lost.
    unsettled_micro: int


@dataclass(slots=True)
class _Seat:
    """One child's place at a host: its bidding account and metered spend."""

    agent: AgentAccount
    progress: float = 0.0
    spent: float = 0.0        # metered; the bank holds what it has moved
    activate_at: float = 0.0


class _HostNode:
    """One provider: an auction scheduler plus metered escrow spend."""

    def __init__(self, sim, index: int):
        self.sim = sim
        self.host_id = f"host:{index}"
        speed = (sim.config.host_speeds[index]
                 if index < len(sim.config.host_speeds) else 1.0)
        self._work_per_slice = speed * sim.config.timeslice_length
        self.sched = AuctionShareScheduler(SchedulerConfig(
            timeslice_length=sim.config.timeslice_length,
            price_mode=sim.config.price_mode))
        self.alive = True
        self.children: dict[str, _Seat] = {}
        # Every seat opened here, indexed by its agent id: ids go out
        # 0, 1, 2, ... in open order.  A killed seat stays, out of the heap.
        self._seats: list[_Seat] = []
        # Seats not yet runnable, in the order they were opened.
        self._pending: list[_Seat] = []
        # Key of every child killed here -> its final metered spend.
        self._killed: dict[str, int] = {}
        self.slices_alive = 0

    @property
    def slices_won(self) -> int:  # the name perfbench/spans.py reads
        return self.sched.slice_index

    def _ensure_child(self, child_key: str) -> _Seat:
        # Funding can arrive ahead of the spawn message; open the seat
        # with placeholder terms and let SPAWN_CHILD fill them in.
        seat = self.children.get(child_key)
        if seat is None:
            chunk = self.sim.config.funding_chunk_minutes * 60.0
            agent = AgentAccount(
                agent_id=len(self._seats), balance=0.0,
                requested_cpu_seconds=chunk / self.sim.config.timeslice_length)
            self.sched.add_agent(agent, runnable=False)
            seat = _Seat(agent)
            self.children[child_key] = seat
            self._seats.append(seat)
            self._pending.append(seat)
        return seat

    def handle(self, msg) -> None:
        kind, p = msg.kind, msg.payload
        if kind is MessageKind.SPAWN_CHILD:
            self._ensure_child(p.child_key).activate_at = p.activate_at
        elif kind is MessageKind.FUND_AUCTIONEER:
            if p.child_key in self._killed:
                # Funding raced a kill; the credits stay parked in the
                # escrow account, where the close still collects them.
                return
            seat = self._ensure_child(p.child_key)
            self.sched.fund(seat.agent.agent_id, micro_to_credits(p.amount))
        elif kind is MessageKind.KILL_CHILD:
            self._killed[p] = 0
            seat = self.children.pop(p, None)
            if seat is not None:
                self._pending = [s for s in self._pending if s is not seat]
                self.sched.set_runnable(seat.agent.agent_id, False)
                self._killed[p] = math.floor(seat.spent * MICRO)
            # The close goes out at once.  A dropped KILL_CHILD is not
            # retried: the orphan bids until its lump is gone, and its
            # spend is settled like any other.
            self.settle()
        elif kind is MessageKind.QUERY_PROGRESS:
            seat = self.children.get(p)
            report = Progress(p) if seat is None else Progress(
                p, seat.progress, seat.spent, seat.agent.balance)
            self.sim.network.send(self.sim.now, self.host_id, msg.sender,
                                  MessageKind.PROGRESS_REPORT, report)

    def run_slices(self, k0: int, k1: int) -> None:
        """Run slices ``k0 .. k1 - 1``, which hold no event.

        A seat falling due splits the window: due seats enter the heap
        before their slice's round, in the order they were opened.  In
        between, nobody enters, leaves or is funded, so each stretch,
        whatever its length, is one ``run_rounds`` call.  Each won round
        then adds to its seat's progress and spend on its own, in round
        order, so the sums are those of stepping each slice.
        """
        if not self.alive:
            return
        dt = self.sim.config.timeslice_length
        sched, seats = self.sched, self._seats
        work = self._work_per_slice
        while k0 < k1:
            end = k1
            if self._pending:
                waiting = []
                for seat in self._pending:
                    if k0 * dt >= seat.activate_at:
                        sched.set_runnable(seat.agent.agent_id, True)
                    else:
                        waiting.append(seat)
                        end = _first_slice_at(seat.activate_at, dt, end)
                self._pending = waiting
            rounds = end - k0
            self.slices_alive += rounds
            # With nobody bidding no round is held, so the scheduler's
            # slice_index counts only the rounds held: the report's
            # slices_run.  Hosts sell no reservations, so every round held
            # has a winner.
            if sched.heap:
                for winner, payment in zip(*sched.run_rounds(rounds)):
                    # Only seated, activated agents are runnable, so the
                    # winner has a seat.
                    seat = seats[winner]
                    seat.progress += work
                    seat.spent += payment
            k0 = end

    def metered(self) -> dict[str, int]:
        """Child key -> whole micro-credits of spend metered so far.

        The fractional tail of a spend stays in escrow.
        """
        totals = {key: math.floor(seat.spent * MICRO)
                  for key, seat in self.children.items()}
        totals.update(self._killed)
        return totals

    def settle(self) -> None:
        """Send the bank one report: every child's cumulative spend.

        Killed children are repeated with their final spend and a close
        request on every report, so the host is who retries a dropped
        close; the bank applies the first close it gets and ignores the
        rest.
        """
        if self.alive and (self.children or self._killed):
            self.sim.network.send(
                self.sim.now, self.host_id, "bank", MessageKind.TRANSFER,
                Settle(cumulative=self.metered(), close=list(self._killed)))

    def advertise(self) -> None:
        if self.alive:
            self.sim.network.send(self.sim.now, self.host_id, "sls",
                                  MessageKind.ADVERTISE)

    def kill(self) -> None:
        self.alive = False
        self.sim.network.unregister(self.host_id)


class _ParentNode:
    """One user: budgets a job, provisions hosts, replaces laggards."""

    def __init__(self, sim, index: int, job: ParentJob):
        self.sim = sim
        self.parent_id = f"parent:{index}"
        self.job = job
        self.lump_micro = credits_to_micro(
            parent_budget(job) * sim.config.funding_chunk_minutes)
        self.remaining_micro = credits_to_micro(job.total_credits)
        self.children: dict[str, ChildAgentState] = {}
        self.retired_progress = 0.0
        self.known_hosts: list[str] = []
        self.starvation_events = 0
        self.funded_micro = 0
        self.reclaimed_micro = 0
        self._child_serial = 0

    def handle(self, msg) -> None:
        kind, p = msg.kind, msg.payload
        if kind is MessageKind.LOOKUP_RESULT:
            self.known_hosts = p
            if not self._child_serial and self.known_hosts:
                self._initial_placement()
        elif kind is MessageKind.PROGRESS_REPORT:
            child = self.children.get(p.child_key)
            # Reports about children the host never met are dropped.
            if child is None or p.progress is None:
                return
            child.progress = p.progress
            child.cost = p.spent
            child.last_report = self.sim.now
            if p.funds * MICRO < self.lump_micro * self.sim.config.refresh_fraction:
                self._fund(child.key, child.host)
        elif kind is MessageKind.TRANSFER:
            # Receipt for an escrow sweep the bank performed for us.
            self.remaining_micro += p
            self.reclaimed_micro += p

    def _initial_placement(self) -> None:
        rng = self.sim.rng
        hosts = list(self.known_hosts)
        picks = []
        for _ in range(min(self.job.num_hosts, len(hosts))):
            picks.append(hosts.pop(int(rng.integers(len(hosts)))))
        for host in picks:
            self._spawn_child(host, activate_at=self.sim.now)

    def _spawn_child(self, host: str, activate_at: float) -> None:
        key = f"{self.parent_id}/c{self._child_serial}"
        self._child_serial += 1
        self.children[key] = ChildAgentState(host=host, key=key,
                                             last_report=self.sim.now)
        self._fund(key, host)
        self.sim.network.send(self.sim.now, self.parent_id, host,
                              MessageKind.SPAWN_CHILD,
                              Spawn(child_key=key, activate_at=activate_at))

    def _fund(self, child_key: str, host: str) -> None:
        if self.remaining_micro < self.lump_micro:
            self.starvation_events += 1
            return
        self.remaining_micro -= self.lump_micro
        self.funded_micro += self.lump_micro
        self.sim.network.send(self.sim.now, self.parent_id, "bank",
                              MessageKind.FUND_AUCTIONEER,
                              FundRequest(host=host, child_key=child_key,
                                          amount=self.lump_micro))

    def monitor_query(self) -> None:
        for key, child in self.children.items():
            self.sim.network.send(self.sim.now, self.parent_id, child.host,
                                  MessageKind.QUERY_PROGRESS, key)
        self.sim.network.send(self.sim.now, self.parent_id, "sls",
                              MessageKind.LOOKUP)

    def monitor_decide(self) -> None:
        now = self.sim.now
        dead = [key for key, child in self.children.items()
                if now - child.last_report > self.sim.config.report_timeout]
        survivors = [child for key, child in self.children.items()
                     if key not in dead]
        theta_actions = parent_monitor_and_replace(
            survivors, self.job.performance_cost_threshold,
            self._free_hosts(), self.sim.rng)
        moves = [(key, None, "timeout") for key in dead]
        moves += [(child.key, host, "slow") for child, host in theta_actions]
        for key, new_host, reason in moves:
            self._replace(key, reason, new_host)

    def _free_hosts(self) -> list:
        in_use = {child.host for child in self.children.values()}
        return [h for h in self.known_hosts if h not in in_use]

    def _replace(self, child_key: str, reason: str,
                 new_host: str | None) -> None:
        child = self.children.pop(child_key)
        old_host = child.host
        if new_host is None:
            # Timeout path: pick here, never re-picking the host being
            # abandoned even though it just became technically free.
            free = [h for h in self._free_hosts() if h != old_host]
            if not free:
                self.children[child_key] = child
                return
            new_host = free[int(self.sim.rng.integers(len(free)))]
        self.retired_progress += child.progress
        # The host closes the escrow once it has stopped the child, in
        # the same report as the child's final spend, so the close can
        # never overtake the last settlement.
        self.sim.network.send(self.sim.now, self.parent_id, old_host,
                              MessageKind.KILL_CHILD, child_key)
        if reason == "timeout":
            # A silent host is presumed dead and can close nothing, so
            # the bank closes the escrow directly.  Spend the host metered
            # but never reported goes back to this parent; if the host was
            # alive after all, its late report finds the escrow closed and
            # that spend stays unsettled.
            self.sim.network.send(self.sim.now, self.parent_id, "bank",
                                  MessageKind.TRANSFER,
                                  Settle({}, [child_key]))
        self.sim.replacements.append(
            (self.sim.now, self.parent_id, old_host, new_host, reason))
        self._spawn_child(new_host,
                          activate_at=self.sim.now
                          + self.sim.config.migration_overhead)

    def work_done(self) -> float:
        live = sum(child.progress for child in self.children.values())
        return self.retired_progress + live


@dataclass(slots=True)
class _Escrow:
    """The bank's books on one child's escrow account."""

    owner: str | None = None  # the parent that funded it; gets the rest back
    moved: int = 0            # micro-credits already paid to the host
    closed: bool = False


class _BankNode:
    """Executes transfers; the only component that touches the ledger."""

    def __init__(self, sim):
        self.sim = sim
        # Child key -> the books on its escrow account.
        self.escrows: dict[str, _Escrow] = {}

    def handle(self, msg) -> None:
        kind, p = msg.kind, msg.payload
        ledger = self.sim.ledger
        if kind is MessageKind.FUND_AUCTIONEER:
            key = p.child_key
            # Test the ledger, not self.escrows: a close may already have
            # booked a key whose funding was dropped, and its account
            # still has to be opened.
            if key not in ledger.accounts:
                ledger.create_account(key)
                self.escrows[key] = _Escrow(msg.sender)
            try:
                bank_transfer(ledger, msg.sender, key, p.amount)
            except InsufficientBalanceError:
                self.sim.rejected_transfers += 1
                return
            self.sim.network.send(self.sim.now, "bank", p.host,
                                  MessageKind.FUND_AUCTIONEER,
                                  Fund(child_key=key, amount=p.amount))
        elif kind is MessageKind.TRANSFER:
            # Settlements, paid to the reporting host, come first, so a
            # host's close applies its final spend before the sweep.
            for key, total in p.cumulative.items():
                self._settle(key, msg.sender, total)
            for key in p.close:
                self._close(key)

    def _settle(self, key: str, host: str, total: int) -> None:
        """Pay the host up to `total`, the child's cumulative spend.

        Only the part not moved yet moves: a duplicate or stale report
        moves nothing, and one after a lost report moves the whole gap.
        A report that finds the escrow closed comes too late to be paid.
        """
        books = self.escrows.get(key)
        if books is None or books.closed or total <= books.moved:
            return
        try:
            bank_transfer(self.sim.ledger, key, host, total - books.moved)
        except InsufficientBalanceError:
            self.sim.rejected_transfers += 1
            return
        books.moved = total

    def _close(self, key: str) -> None:
        """Sweep what the child's escrow still holds to its owner, once."""
        books = self.escrows.setdefault(key, _Escrow())
        if books.closed:
            return
        books.closed = True
        if books.owner is None:
            # Its funding was dropped, so the escrow never opened and
            # there is nothing to sweep.
            self.sim.rejected_transfers += 1
            return
        amount = self.sim.ledger.balance(key)
        if amount:
            bank_transfer(self.sim.ledger, key, books.owner, amount)
            self.sim.network.send(self.sim.now, "bank", books.owner,
                                  MessageKind.TRANSFER, amount)


class _SLSNode:
    def __init__(self, sim):
        self.sim = sim
        self.registry = ServiceLocator(sim.config.sls_ttl)

    def handle(self, msg) -> None:
        if msg.kind is MessageKind.ADVERTISE:
            self.registry.advertise(msg.sender, self.sim.now)
        elif msg.kind is MessageKind.LOOKUP:
            hosts = self.registry.lookup(self.sim.now)
            self.sim.network.send(self.sim.now, "sls", msg.sender,
                                  MessageKind.LOOKUP_RESULT, hosts)


class HarnessSim:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.now = 0.0
        self.rng = np.random.default_rng(config.rng_seed)
        self.network = Network(latency=config.message_latency,
                               drop_probability=config.drop_probability,
                               seed=config.rng_seed)
        self.ledger = BankLedger()
        self.replacements = []
        self.rejected_transfers = 0

        self.bank = _BankNode(self)
        self.sls = _SLSNode(self)
        self.network.register("bank", self.bank.handle)
        self.network.register("sls", self.sls.handle)

        self.hosts = [_HostNode(self, i) for i in range(config.num_hosts)]
        for host in self.hosts:
            self.ledger.create_account(host.host_id)
            self.network.register(host.host_id, host.handle)

        self.parents = [_ParentNode(self, i, job)
                        for i, job in enumerate(config.parents)]
        for parent in self.parents:
            self.ledger.create_account(
                parent.parent_id, credits_to_micro(parent.job.total_credits))
            self.network.register(parent.parent_id, parent.handle)

        if config.policy_kind is PolicyKind.OPEN_LOOP:
            self.ledger.create_account("admin",
                                       credits_to_micro(config.admin_pool))
        self._pending_kills = sorted(config.kill_hosts)

    def run(self) -> ScenarioReport:
        cfg = self.config
        dt = cfg.timeslice_length
        total = int(round(cfg.duration / dt))
        providers = [host.host_id for host in self.hosts]
        drained = dict.fromkeys(providers, 0)
        open_loop = cfg.policy_kind is PolicyKind.OPEN_LOOP
        income = credits_to_micro(cfg.open_loop_income)
        incomes = {parent.parent_id: income for parent in self.parents}
        advertise_every, monitor_every, funding_every = (
            max(1, round(interval / dt)) for interval in (
                cfg.advertise_interval, cfg.monitor_interval,
                cfg.funding_interval))
        k = 0
        queried = False
        while k < total:
            self.now = k * dt
            while self._pending_kills and self._pending_kills[0][0] <= self.now:
                _, idx = self._pending_kills.pop(0)
                self.hosts[idx].kill()
            advertise_tick = k % advertise_every == 0
            funding_tick = open_loop and k > 0 and k % funding_every == 0
            # Hosts settle on the advertise tick, and in open loop also
            # on the funding tick, so that no drain of the providers
            # goes by without a settlement in between.
            if advertise_tick or funding_tick:
                for host in self.hosts:
                    if advertise_tick:
                        host.advertise()
                    host.settle()
            if k == 0:
                for parent in self.parents:
                    self.network.send(self.now, parent.parent_id, "sls",
                                      MessageKind.LOOKUP)
            if funding_tick:
                for account in providers:
                    drained[account] += self.ledger.balance(account)
                # A parent the dry admin pool could not pay gets no
                # spending room this interval and counts a starvation.
                unpaid = apply_funding_policy(self.ledger, "admin", incomes,
                                              providers)
                for parent in self.parents:
                    if parent.parent_id in unpaid:
                        parent.starvation_events += 1
                    else:
                        parent.remaining_micro += income
            self.network.pump(self.now)
            if queried:
                # The slice after a query is always an event slice.
                for parent in self.parents:
                    parent.monitor_decide()
            queried = k > 0 and k % monitor_every == 0
            if queried:
                for parent in self.parents:
                    parent.monitor_query()
                self.network.pump(self.now)
            following = self._next_event(k, total, queried, (
                advertise_every, monitor_every,
                funding_every if open_loop else total))
            for host in self.hosts:
                host.run_slices(k, following)
            # Only event slices move credits, so the ledger holds still
            # inside a window: one check stands for one per slice.
            if cfg.audit_every_slice:
                balances = self.ledger.total_balance()
                if balances != self.ledger.total_issued:
                    raise RuntimeError(
                        f"ledger out of balance at t={self.now}: balances "
                        f"sum to {balances}, issued {self.ledger.total_issued}")
            k = following
        self.now = total * dt
        # Validation keeps every kill before the duration; one left here
        # falls after the last slice and still happens.
        for _, idx in self._pending_kills:
            self.hosts[idx].kill()
        self.network.pump(self.now)
        # Close the books on fresh numbers: one last progress and
        # settlement round.
        for parent in self.parents:
            parent.monitor_query()
        for host in self.hosts:
            host.settle()
        self.network.pump(self.now + self.config.message_latency * 2)
        return self._report(drained)

    def _next_event(self, k: int, total: int, queried: bool,
                    periods: tuple[int, ...]) -> int:
        """The first slice after ``k`` on which something can happen
        besides auction rounds, or ``total``."""
        if queried:
            # The parents decide on the next slice.
            return k + 1
        dt = self.config.timeslice_length
        following = min(total, *((k // every + 1) * every
                                 for every in periods))
        # A message sent after this slice's pump is due on the next one
        # at the earliest.
        head = self.network.next_delivery()
        if head is not None:
            following = max(k + 1, _first_slice_at(head, dt, following))
        if self._pending_kills:
            following = _first_slice_at(self._pending_kills[0][0], dt,
                                        following)
        return following

    def _report(self, drained: dict) -> ScenarioReport:
        per_parent = {}
        for parent in self.parents:
            per_parent[parent.parent_id] = {
                "funded_credits": micro_to_credits(parent.funded_micro),
                "reclaimed_credits": micro_to_credits(parent.reclaimed_micro),
                "work_done": parent.work_done(),
                "starvation_events": parent.starvation_events,
                "bank_balance": micro_to_credits(
                    self.ledger.balance(parent.parent_id)),
            }
        per_host = {}
        unsettled = 0
        for host in self.hosts:
            for key, total in host.metered().items():
                books = self.bank.escrows.get(key)
                unsettled += total - (books.moved if books else 0)
            per_host[host.host_id] = {
                "alive": host.alive,
                "revenue_credits": micro_to_credits(
                    self.ledger.balance(host.host_id) + drained[host.host_id]),
                "utilization": (host.sched.slice_index / host.slices_alive
                                if host.slices_alive else 0.0),
                "slices_run": host.sched.slice_index,
            }
        return ScenarioReport(
            per_parent=per_parent,
            per_host=per_host,
            replacements=list(self.replacements),
            starvation_events=sum(p.starvation_events
                                  for p in self.parents),
            ledger_ok=(self.ledger.total_balance()
                       == self.ledger.total_issued),
            no_negative_balances=all(v >= 0
                                     for v in self.ledger.accounts.values()),
            total_issued=self.ledger.total_issued,
            final_total=self.ledger.total_balance(),
            messages_sent=self.network.sent,
            messages_dropped=self.network.dropped,
            rejected_transfers=self.rejected_transfers,
            undeliverable=self.network.undeliverable,
            unsettled_micro=unsettled,
        )


def run_harness_scenario(config: ScenarioConfig) -> ScenarioReport:
    return HarnessSim(config).run()
