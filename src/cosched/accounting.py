"""Exact message and compute accounting for solver runs."""

from __future__ import annotations

from dataclasses import dataclass, field

MESSAGE_HEADER_BYTES = 16
PER_REQUEST_BYTES = 9  # 8-byte request id + 1 flag byte


def message_bytes(num_carried_requests: int) -> int:
    return MESSAGE_HEADER_BYTES + PER_REQUEST_BYTES * num_carried_requests


@dataclass
class MessageLedger:
    """Monotone ledger of every message sent, broken down by phase."""

    bytes_total: int = 0
    count_total: int = 0
    bytes_by_phase: dict[str, int] = field(default_factory=dict)

    def record(self, phase: str, count: int, nbytes: int) -> None:
        if count < 0 or nbytes < 0:
            raise ValueError("ledger entries must be non-negative")
        self.bytes_total += nbytes
        self.count_total += count
        self.bytes_by_phase[phase] = self.bytes_by_phase.get(phase, 0) + nbytes


@dataclass
class OpCounter:
    """Machine-independent compute proxy: counts instead of wall-clock."""

    constraint_checks: int = 0
    rng_draws: int = 0
    serializations: int = 0

    @property
    def total(self) -> int:
        return self.constraint_checks + self.rng_draws + self.serializations
