"""End-to-end architecture harness: agents, bank, locator, network.

The pieces in this package compose the single-host scheduler into a
multi-host economy: parent agents budget and monitor, child agents hold
funds at a host's auctioneer, a centralized bank moves credits between
accounts, and a soft-state locator tracks which hosts are alive.
Everything runs on one deterministic in-process message network.
"""
