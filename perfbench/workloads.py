"""Seeded scenario generators for the benchmark's workloads (stdlib only).

Every generator is a pure function of its arguments: the same workload seed
gives the same scenario JSON and the same simulator seed. The simulator
receives only what these functions produce.

- ``ward(phones, sensors)`` is the ward P x S scenario: P phones (sinks) at
  x = 100 * p, each with S heart-rate sensors at (x + 1 + 0.5 * s, 1). Phones
  inquire for 2 s at t=0, page sensor s at 2.1 s + 10 ms * s, associate it
  at 3.0 s + 10 ms * s, and the sensor sends 60 readings at 1 Hz from
  4.0 s + 10 ms * s. The horizon is 70 s. Lossless and static.
- ``soak()`` is one pair for an hour at 4 Hz with 1 % loss. The sensor walks
  out of range for 300 s every 900 s, so its source buffer fills to the
  1,024 cap, evicts, then flushes on reconnection.
- ``clinic(seed)`` is a batch of 150 short sessions: one sink and one to
  three sources, 20 to 60 readings at 1, 2 or 4 Hz, 0 to 5 % loss, and a
  walk-out in every fourth session.
"""

from __future__ import annotations

import random

HORIZON_WARD_US = 70_000_000
PIN = "1234"

# Sources must send every heart_rate metric; a partial reading is rejected
# by the profile as InvalidMeasurement and nothing reaches the sink.
HEART_RATE = {
    "heart_rate_bpm": 72.0,
    "filling_duration_ms": 180.0,
    "ascending_wave_index_pct": 15.0,
}

SOAK_SENDS = 14_384  # 4 Hz from 4.0 s; the last reading goes at 3599.75 s
SOAK_INTERVAL_US = 250_000
SOAK_HORIZON_US = 3_610_000_000  # 10 s for the last reading to settle
SOAK_OUTAGES = (600, 1500, 2400)  # walk-out starts (s); each lasts 300 s

CLINIC_SESSIONS = 150


def _addr(group: int, member: int) -> str:
    return f"02:00:00:{group >> 8:02X}:{group & 0xFF:02X}:{member:02X}"


def _device(address: str, name: str, x: float, y: float, role: str) -> dict:
    dev = {
        "address": address,
        "name": name,
        "position": [x, y],
        "pin": PIN,
        "role": role,
    }
    if role == "sink":
        dev["sink_whitelist"] = ["heart_rate"]
    return dev


def sim_seed(seed: int) -> int:
    """Simulator seed drawn from the workload seed."""
    return random.Random(f"sim:{seed}").getrandbits(32)


def ward(phones: int = 16, sensors: int = 7) -> dict:
    devices = []
    timeline = []
    for p in range(phones):
        x = 100.0 * p
        phone = _addr(p, 0)
        devices.append(_device(phone, f"phone-{p}", x, 0.0, "sink"))
        timeline.append(
            {"t_us": 0, "action": "start_inquiry", "device": phone, "duration_us": 2_000_000}
        )
        for s in range(sensors):
            sensor = _addr(p, s + 1)
            devices.append(_device(sensor, f"sensor-{p}-{s}", x + 1 + 0.5 * s, 1.0, "source"))
            step = 10_000 * s
            timeline += [
                {"t_us": 2_100_000 + step, "action": "page", "device": phone, "target": sensor},
                {
                    "t_us": 3_000_000 + step,
                    "action": "associate",
                    "source": sensor,
                    "sink": phone,
                    "specialization": "heart_rate",
                },
                {
                    "t_us": 4_000_000 + step,
                    "action": "send_measurement",
                    "source": sensor,
                    "sink": phone,
                    "count": 60,
                    "interval_us": 1_000_000,
                    "readings": HEART_RATE,
                },
            ]
    timeline.append({"t_us": HORIZON_WARD_US, "action": "run_until"})
    timeline.sort(key=lambda a: a["t_us"])  # stable: keeps per-phone order
    return {"name": f"ward-{phones}x{sensors}", "devices": devices, "timeline": timeline}


def soak() -> dict:
    sensor, phone = _addr(0, 1), _addr(0, 0)
    timeline = [
        {"t_us": 0, "action": "start_inquiry", "device": phone, "duration_us": 2_000_000},
        {"t_us": 2_100_000, "action": "page", "device": phone, "target": sensor},
        {
            "t_us": 3_000_000,
            "action": "associate",
            "source": sensor,
            "sink": phone,
            "specialization": "heart_rate",
        },
        {
            "t_us": 4_000_000,
            "action": "send_measurement",
            "source": sensor,
            "sink": phone,
            "count": SOAK_SENDS,
            "interval_us": SOAK_INTERVAL_US,
            "readings": HEART_RATE,
        },
    ]
    for start in SOAK_OUTAGES:
        timeline += [
            {"t_us": start * 1_000_000, "action": "move_device", "device": sensor, "position": [60.0, 0.0]},
            {"t_us": (start + 300) * 1_000_000, "action": "move_device", "device": sensor, "position": [0.0, 0.0]},
        ]
    timeline.append({"t_us": SOAK_HORIZON_US, "action": "run_until"})
    return {
        "name": "soak-1h",
        "devices": [
            _device(sensor, "sensor", 0.0, 0.0, "source"),
            _device(phone, "phone", 2.0, 0.0, "sink"),
        ],
        "medium": {"loss_probability": 0.01},
        "timeline": timeline,
    }


def clinic_session(index: int, shape: tuple, rng: random.Random) -> dict:
    """One short session: a sink and ``sources`` heart-rate sources."""
    sources_n, count, interval, loss, walk_out = shape
    sink = _addr(index, 0)
    sources = [_addr(index, i + 1) for i in range(sources_n)]
    devices = [_device(sink, "monitor", 0.0, 0.0, "sink")]
    for i, addr in enumerate(sources):
        devices.append(_device(addr, f"sensor-{i}", 1.0 + 0.5 * i, 1.0, "source"))
    timeline = [{"t_us": 0, "action": "start_inquiry", "device": sink, "duration_us": 2_000_000}]
    for i, addr in enumerate(sources):
        step = 10_000 * i
        timeline += [
            {"t_us": 2_100_000 + step, "action": "page", "device": sink, "target": addr},
            {
                "t_us": 3_000_000 + step,
                "action": "associate",
                "source": addr,
                "sink": sink,
                "specialization": "heart_rate",
            },
            {
                "t_us": 4_000_000 + step,
                "action": "send_measurement",
                "source": addr,
                "sink": sink,
                "count": count,
                "interval_us": interval,
                "readings": HEART_RATE,
            },
        ]
    settled = 4_000_000 + 10_000 * (sources_n - 1) + (count - 1) * interval
    if walk_out:
        # One source walks out mid-stream and back; the outage outlasts the
        # 3 s keepalive timeout, so readings are buffered and flushed.
        walker = rng.randrange(sources_n)
        out = 4_000_000 + rng.randint(2, 8) * 1_000_000
        back = out + rng.randint(5, 10) * 1_000_000
        timeline += [
            {"t_us": out, "action": "move_device", "device": sources[walker], "position": [40.0, 0.0]},
            {"t_us": back, "action": "move_device", "device": sources[walker],
             "position": devices[walker + 1]["position"]},
        ]
        settled = max(settled, back)
    timeline.append({"t_us": settled + 10_000_000, "action": "run_until"})
    timeline.sort(key=lambda a: a["t_us"])
    return {
        "name": f"clinic-{index}",
        "devices": devices,
        "medium": {"loss_probability": loss},
        "timeline": timeline,
    }


def clinic(seed: int, sessions: int = CLINIC_SESSIONS) -> list[tuple[dict, int]]:
    """(scenario, simulator seed) for each session of the batch.

    The batch holds the same mix of session shapes at every seed (sources,
    readings, rate, loss, walk-out or not), so its total work does not vary
    with the seed; the seed orders the shapes and draws the walk-out timing
    and the simulator seeds.
    """
    shapes = [
        (
            1 + i % 3,
            20 + (i * 7) % 41,
            (250_000, 500_000, 1_000_000)[(i // 3) % 3],
            (0.0, 0.0, 0.01, 0.02, 0.05)[i % 5],
            i % 4 == 0,
        )
        for i in range(sessions)
    ]
    rng = random.Random(f"clinic:{seed}")
    rng.shuffle(shapes)
    return [(clinic_session(i, shape, rng), rng.getrandbits(32)) for i, shape in enumerate(shapes)]
