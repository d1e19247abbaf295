"""Timer and capacity constants shared across the stack.

Every value is a default the scenario file may override. Times are integer
microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class ParamError(ValueError):
    """A parameter value breaks its rule; ``name`` is the parameter."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name = name


@dataclass
class SimParams:
    # Standby scanning: one listening window per 1.28 s, cycling 32 frequencies.
    scan_window_us: int = 1_280_000
    # Inquiry/page transmit sweep: all 32 frequencies per 10 ms cycle,
    # 312.5 us per frequency rounded to 313 us with the last slot absorbing
    # the remainder.
    inquiry_cycle_us: int = 10_000
    inquiry_slot_us: int = 313
    page_timeout_us: int = 5_000_000
    # Master-driven link supervision.
    keepalive_interval_us: int = 1_000_000
    keepalive_miss_threshold: int = 3
    # Negotiated connection parameter defaults.
    freq_low: int = 0
    freq_high: int = 31
    hop_interval_us: int = 625
    page_size_bytes: int = 1024
    # Aggregate piconet rate cap ("version" cap; scenario labels are free-form).
    version_rate_cap_bps: int = 1_000_000
    # Reliable-channel retransmission and control handshake retry.
    retransmit_interval_us: int = 100_000
    handshake_timeout_us: int = 5_000_000
    sync_timeout_us: int = 1_000_000
    # Link restoration attempts while an association wants its link back.
    reconnect_retry_interval_us: int = 1_000_000
    # Application-layer source buffer.
    buffer_capacity: int = 1024

    def __post_init__(self):
        for name in PARAM_NAMES:
            floor = 0 if name == "freq_low" else 1
            if getattr(self, name) < floor:
                raise ParamError(name, f"must be at least {floor}")
        # The same band ConnectionParams accepts.
        if not self.freq_low <= self.freq_high <= 31:
            raise ParamError("freq_high", "must be from freq_low to 31")

    @classmethod
    def with_overrides(cls, overrides: dict) -> "SimParams":
        unknown = overrides.keys() - PARAM_NAMES
        if unknown:
            raise ValueError(f"unknown override(s): {sorted(unknown)}")
        return cls(**overrides)


PARAM_NAMES = tuple(f.name for f in fields(SimParams))  # in declaration order
