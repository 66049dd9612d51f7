"""Exact message and compute accounting for solver runs."""

from __future__ import annotations

from dataclasses import dataclass

MESSAGE_HEADER_BYTES = 16
PER_REQUEST_BYTES = 9  # 8-byte request id + 1 flag byte


def message_bytes(num_carried_requests: int) -> int:
    return MESSAGE_HEADER_BYTES + PER_REQUEST_BYTES * num_carried_requests


@dataclass
class MessageLedger:
    """Monotone ledger of every message sent."""

    bytes_total: int = 0
    count_total: int = 0

    def record(self, count: int, nbytes: int) -> None:
        if count < 0 or nbytes < 0:
            raise ValueError("ledger entries must be non-negative")
        self.bytes_total += nbytes
        self.count_total += count


@dataclass
class OpCounter:
    """Machine-independent compute proxy: counts instead of wall-clock."""

    constraint_checks: int = 0
    rng_draws: int = 0

    @property
    def total(self) -> int:
        return self.constraint_checks + self.rng_draws
