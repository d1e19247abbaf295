"""Shared builders: stacks, devices, and connected/paired pairs."""

from __future__ import annotations

from hdpsim import (
    DeviceAddress,
    DeviceConfig,
    DeviceName,
    MediumModel,
    Pin,
    SimParams,
    build_stack,
)


def addr(i: int) -> DeviceAddress:
    return DeviceAddress(0xAA0000000000 + i)


def make_stack(
    loss: float = 0.0,
    seed: int = 1,
    propagation_us: int = 1,
    jitter_us: int = 0,
    **overrides,
):
    medium = MediumModel(
        loss_probability=loss,
        propagation_us=propagation_us,
        jitter_us=jitter_us,
    )
    params = SimParams.with_overrides(overrides) if overrides else None
    return build_stack(medium=medium, seed=seed, params=params)


def add_device(
    stack,
    i: int,
    position: tuple[float, float] = (0.0, 0.0),
    clock_offset_us: int = 0,
    radio_range_m: float = 10.0,
):
    return stack.engine.add_device(
        DeviceConfig(
            address=addr(i),
            name=DeviceName(f"dev{i}"),
            position=position,
            radio_range_m=radio_range_m,
            clock_offset_us=clock_offset_us,
        )
    )


def connect(stack, initiator, target, settle_us: int = 6_000_000):
    """Page target from initiator (pre-known) and run until established."""
    stack.discovery.note_known(initiator.address, target.address)
    attempt = stack.links.page(initiator, target.address)
    run_while(stack, lambda: not attempt.done, settle_us)
    link = stack.links.link_between(initiator.address, target.address)
    assert link is not None, "page did not establish a link"
    return link, attempt


def run_while(stack, condition, budget_us: int, step_us: int = 50_000) -> None:
    """Advance the engine in steps while the condition holds."""
    deadline = stack.engine.now + budget_us
    while condition() and stack.engine.now < deadline:
        stack.engine.run_until(min(stack.engine.now + step_us, deadline))


def paired_pair(stack, i: int = 1, j: int = 2, pin: str = "1234"):
    """Two in-range devices with equal PINs, connected and authenticated."""
    a = add_device(stack, i, position=(0.0, 0.0))
    b = add_device(stack, j, position=(1.0, 0.0))
    stack.links.set_pin(a.address, Pin.from_text(pin))
    stack.links.set_pin(b.address, Pin.from_text(pin))
    link, _ = connect(stack, a, b)
    return a, b, link
