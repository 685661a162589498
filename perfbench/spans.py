"""Spans and counters recorded around calls into the program's layers.

The wrappers are installed from here, on the public functions and
methods each layer exposes; the program itself is not modified.  A span
has a name, a start, an end and a parent.  A span's self time is its
duration minus the time its child spans cover, kept on the fly with a
stack (one thread, so spans nest).  Per-name totals cover every span;
the first ``KEEP_SPANS`` span records are kept in memory and written
out when the benchmark ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

# One send counter per harness.messages.MessageKind, named as the
# per-layer metrics in BENCHMARK.json name them.
MESSAGE_KINDS = ("transfer", "fund_auctioneer", "query_progress",
                 "progress_report", "advertise", "lookup", "lookup_result",
                 "kill_child", "spawn_child")


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


KEEP_SPANS = 20000  # span records kept for the trace file; totals cover all


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Open spans: [name id, start ns, child ns, kept index].
        self._stack: list[list] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: Counter = Counter()
        self.heaps: list = []
        # Kept records: [name id, start ns, end ns, parent index].
        self.kept: list[list] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records one span."""
        nid = self._id(name)
        stack, kept = self._stack, self.kept
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = -1
            if len(kept) < KEEP_SPANS:
                index = len(kept)
                kept.append([nid, 0, 0, stack[-1][3] if stack else -1])
            frame = [nid, 0, 0, index]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                total_ns[nid] += duration
                self_ns[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    kept[index][1] = start
                    kept[index][2] = end

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so that every call bumps ``counts[name]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reading the results --------------------------------------------

    def span_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def total_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_ns[nid] / 1e9

    def self_ns_per_call(self, name: str) -> float:
        calls = self.span_calls(name)
        return self.self_ns[self._ids[name]] / calls if calls else 0.0

    def write(self, path) -> None:
        """Per-name totals of every span, then the kept span records."""
        totals = {name: {"calls": self.calls[i], "total_ns": self.total_ns[i],
                         "self_ns": self.self_ns[i]}
                  for i, name in enumerate(self.names) if self.calls[i]}
        doc = {"names": self.names, "totals": totals,
               "counts": dict(self.counts),
               "spans_recorded": sum(self.calls),
               "spans_kept": len(self.kept),
               "span_fields": ["name", "start_ns", "end_ns", "parent"],
               "spans": self.kept}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def instrument(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from tycoon_sim import cli, config, market
    from tycoon_sim.harness import bank, messages, scenario, sls
    from tycoon_sim.sched import auction, bidheap, proportional

    span, counted, counts = tracer.span, tracer.counted, tracer.counts

    # The root span of every unit: one tycoon-sim run.
    patcher.replace(cli, "main", lambda f: span("cli.main", f))

    # sched.bidheap: operations by count, comparisons from the heap's own
    # counter, read off every heap built during the run.
    def heap_init(original):
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            tracer.heaps.append(self)
        return __init__

    patcher.replace(bidheap.BidHeap, "__init__", heap_init)
    for op in ("push", "update", "remove", "second"):
        patcher.replace(bidheap.BidHeap, op,
                        lambda f: counted("sched.bidheap.ops", f))

    # sched.auction
    def run_slice(original):
        def wrapper(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            if result.winner is not None:
                counts["sched.auction.run_slice.wins"] += 1
            return result
        return span("sched.auction.run_slice", wrapper)

    sched_cls = auction.AuctionShareScheduler
    patcher.replace(sched_cls, "run_slice", run_slice)
    patcher.replace(sched_cls, "fund",
                    lambda f: counted("sched.auction.fund.calls", f))
    patcher.replace(sched_cls, "set_runnable",
                    lambda f: counted("sched.auction.set_runnable.calls", f))

    # sched.proportional and hostsim
    patcher.replace(proportional, "select_winner",
                    lambda f: span("sched.proportional.select_winner", f))
    patcher.replace(cli, "run_host_sim",
                    lambda f: span("hostsim.run_host_sim", f))

    # market
    def allocate(original):
        def wrapper(weights, *args, **kwargs):
            counts["market.allocate_host_step.tasks"] += len(weights)
            return original(weights, *args, **kwargs)
        return span("market.allocate_host_step", wrapper)

    patcher.replace(market, "allocate_host_step", allocate)
    patcher.replace(market.MarketSim, "__init__",
                    lambda f: span("market.setup", f))
    patcher.replace(market.MarketSim, "run", lambda f: span("market.run", f))

    # harness.messages
    def send(original):
        def wrapper(self, now, sender, recipient, kind, *args, **kwargs):
            counts[f"harness.messages.send.{kind.value}"] += 1
            return original(self, now, sender, recipient, kind,
                            *args, **kwargs)
        return span("harness.messages.send", wrapper)

    patcher.replace(messages.Network, "send", send)
    patcher.replace(messages.Network, "pump",
                    lambda f: span("harness.messages.pump", f))

    # harness.bank: the scenario's settlement and escrow path, and the
    # funding policy inside the bank module.
    for module in (scenario, bank):
        patcher.replace(module, "bank_transfer",
                        lambda f: span("harness.bank.bank_transfer", f))

    # harness.sls and harness.agents
    patcher.replace(sls.ServiceLocator, "advertise",
                    lambda f: counted("harness.sls.advertise.calls", f))
    patcher.replace(sls.ServiceLocator, "lookup",
                    lambda f: counted("harness.sls.lookup.calls", f))
    patcher.replace(scenario, "parent_monitor_and_replace",
                    lambda f: span("harness.agents.parent_monitor_and_replace",
                                   f))

    # harness.scenario: the run loop, plus the counters the simulation
    # computes and does not report, read also from runs that raised so
    # that they cover the same runs as the send and heap counts.
    def harness_run(original):
        def wrapper(self, *args, **kwargs):
            try:
                return original(self, *args, **kwargs)
            finally:
                counts["harness.messages.dropped"] += self.network.dropped
                counts["harness.messages.undeliverable"] += \
                    self.network.undeliverable
                counts["harness.bank.rejected"] += self.rejected_transfers
                counts["harness.scenario.slices_won"] += sum(
                    host.slices_won for host in self.hosts)
        return span("harness.scenario.run", wrapper)

    patcher.replace(scenario.HarnessSim, "run", harness_run)

    # csvio and config, on the CLI's path
    def emit(original):
        def wrapper(path, *args, **kwargs):
            original(path, *args, **kwargs)
            counts["csvio.emit_csv.bytes"] += os.path.getsize(path)
        return span("csvio.emit_csv", wrapper)

    patcher.replace(cli, "emit_csv", emit)
    for name in ("build_host_config", "build_market_config",
                 "build_harness_config"):
        patcher.replace(config, name, lambda f: span("config.build", f))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, as {name: (value, unit)}."""
    c = tracer.counts
    ops = c["sched.bidheap.ops"]
    comparisons = sum(heap.comparisons for heap in tracer.heaps)
    slices = tracer.span_calls("sched.auction.run_slice")
    allocations = tracer.span_calls("market.allocate_host_step")
    won = c["harness.scenario.slices_won"]
    sends = tracer.span_calls("harness.messages.send")
    m = {
        "sched.bidheap.ops": (ops, "count"),
        "sched.bidheap.comparisons_per_op": (
            comparisons / ops if ops else 0.0, "count"),
        "sched.auction.run_slice.calls": (slices, "count"),
        "sched.auction.run_slice.self_ns_per_call": (
            tracer.self_ns_per_call("sched.auction.run_slice"), "ns"),
        "sched.auction.fund.calls": (c["sched.auction.fund.calls"], "count"),
        "sched.auction.set_runnable.calls": (
            c["sched.auction.set_runnable.calls"], "count"),
        "sched.auction.win_ratio": (
            c["sched.auction.run_slice.wins"] / slices if slices else 0.0,
            "ratio"),
        "sched.proportional.select_winner.calls": (
            tracer.span_calls("sched.proportional.select_winner"), "count"),
        "sched.proportional.select_winner.self_ns_per_call": (
            tracer.self_ns_per_call("sched.proportional.select_winner"), "ns"),
        "hostsim.run_host_sim.self_s": (
            tracer.self_seconds("hostsim.run_host_sim"), "s"),
        "market.allocate_host_step.calls": (allocations, "count"),
        "market.allocate_host_step.self_ns_per_call": (
            tracer.self_ns_per_call("market.allocate_host_step"), "ns"),
        "market.allocate_host_step.tasks_per_call": (
            c["market.allocate_host_step.tasks"] / allocations
            if allocations else 0.0, "count"),
        "market.run.self_s": (tracer.self_seconds("market.run"), "s"),
        "market.setup.self_s": (tracer.self_seconds("market.setup"), "s"),
        "harness.messages.send.calls": (sends, "count"),
    }
    for kind in MESSAGE_KINDS:
        m[f"harness.messages.send.{kind}"] = (
            c[f"harness.messages.send.{kind}"], "count")
    m.update({
        "harness.messages.pump.self_s": (
            tracer.self_seconds("harness.messages.pump"), "s"),
        "harness.messages.dropped": (c["harness.messages.dropped"], "count"),
        "harness.messages.undeliverable": (
            c["harness.messages.undeliverable"], "count"),
        "harness.messages.transfers_per_won_slice": (
            c["harness.messages.send.transfer"] / won if won else 0.0,
            "ratio"),
        "harness.bank.bank_transfer.calls": (
            tracer.span_calls("harness.bank.bank_transfer"), "count"),
        "harness.bank.bank_transfer.self_ns_per_call": (
            tracer.self_ns_per_call("harness.bank.bank_transfer"), "ns"),
        "harness.bank.rejected": (c["harness.bank.rejected"], "count"),
        "harness.sls.advertise.calls": (
            c["harness.sls.advertise.calls"], "count"),
        "harness.sls.lookup.calls": (c["harness.sls.lookup.calls"], "count"),
        "harness.agents.parent_monitor_and_replace.calls": (
            tracer.span_calls("harness.agents.parent_monitor_and_replace"),
            "count"),
        "harness.agents.parent_monitor_and_replace.self_s": (
            tracer.self_seconds("harness.agents.parent_monitor_and_replace"),
            "s"),
        "harness.scenario.run.self_s": (
            tracer.self_seconds("harness.scenario.run"), "s"),
        "csvio.emit_csv.s": (tracer.total_seconds("csvio.emit_csv"), "s"),
        "csvio.emit_csv.bytes": (c["csvio.emit_csv.bytes"], "bytes"),
        "config.build.s": (tracer.total_seconds("config.build"), "s"),
    })
    return m
