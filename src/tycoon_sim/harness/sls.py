"""Service location: a soft-state registry of advertised hosts.

Entries expire after their TTL and are simply re-advertised while a host
lives.  Lookups may return information that is stale relative to the
true host state; consumers are expected to cope (a delayed allocation,
not a wrong one).
"""

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass
class SLSEntry:
    host: str
    resources: dict
    expires_at: float


class ServiceLocator:
    def __init__(self):
        # One entry per host, overwritten on re-advertise, so expired
        # entries never accumulate and need no pruning.
        self._entries: dict[str, SLSEntry] = {}

    def advertise(self, host: str, resources: dict, ttl: float,
                  now: float) -> None:
        if ttl <= 0:
            raise ConfigError("ttl must be > 0")
        self._entries[host] = SLSEntry(host=host, resources=dict(resources),
                                       expires_at=now + ttl)

    def lookup(self, now: float) -> list:
        """Unexpired entries in host-id order."""
        live = [e for e in self._entries.values() if e.expires_at > now]
        return sorted(live, key=lambda e: e.host)
