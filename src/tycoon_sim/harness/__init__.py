"""End-to-end architecture harness: agents, bank, locator, network.

The pieces in this package compose the single-host scheduler into a
multi-host economy: parent agents budget and monitor, child agents hold
funds at a host's auctioneer, a centralized bank moves credits between
accounts, and a soft-state locator advertises hosts.  Everything runs on
one deterministic in-process message network.
"""

from .messages import Message, MessageKind, Network
from .bank import (BankLedger, FundingPolicy, PolicyKind, bank_transfer,
                   apply_funding_policy)
from .sls import ServiceLocator, SLSEntry
from .agents import (ParentJob, ChildAgentState, parent_budget,
                     parent_monitor_and_replace)
from .scenario import ScenarioConfig, ScenarioReport, run_harness_scenario

__all__ = [
    "Message", "MessageKind", "Network",
    "BankLedger", "FundingPolicy", "PolicyKind", "bank_transfer",
    "apply_funding_policy",
    "ServiceLocator", "SLSEntry",
    "ParentJob", "ChildAgentState", "parent_budget",
    "parent_monitor_and_replace",
    "ScenarioConfig", "ScenarioReport", "run_harness_scenario",
]
