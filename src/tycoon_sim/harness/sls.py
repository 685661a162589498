"""Service location: a soft-state registry of live hosts.

A host's lease expires one TTL after its last advertisement and is
simply renewed while the host lives.  Lookups may list a host that has
died within the last TTL; consumers are expected to cope (a delayed
allocation, not a wrong one).
"""

from ..errors import ConfigError


class ServiceLocator:
    def __init__(self, ttl: float):
        if ttl <= 0:
            raise ConfigError("ttl must be > 0")
        self.ttl = ttl
        # Host -> lease expiry, overwritten on re-advertise, so expired
        # leases never accumulate and need no pruning.
        self._expiry: dict[str, float] = {}

    def advertise(self, host: str, now: float) -> None:
        self._expiry[host] = now + self.ttl

    def lookup(self, now: float) -> list[str]:
        """Hosts with an unexpired lease, in host-id order."""
        return sorted(host for host, expires_at in self._expiry.items()
                      if expires_at > now)
