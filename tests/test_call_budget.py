"""Call budget of a reading's round trip: Python frames per reading, pinned
in ``call_budget.json``.

A stationary pair inquires, pages, associates and sends 200 readings at
4 Hz, once on a lossless medium and once at 5 % loss. The run counts the
``sys.setprofile`` ``"call"`` events of code in ``src/hdpsim``: each one is a
Python frame, a generator resumption included. List, dict and set
comprehensions are left out, since Python 3.12 inlines them (PEP 709), so
the count is the same on every supported version.

A change that removes frames lowers the pin; one that adds frames raises it
and says why in CHANGES.md. The failure message gives the functions with the
most frames, per reading.
"""

from __future__ import annotations

import collections
import io
import json
import sys
from pathlib import Path

import pytest

import hdpsim
from hdpsim.runner import run_scenario
from hdpsim.scenario import validate_scenario

BUDGET_FILE = Path(__file__).parent / "call_budget.json"
PACKAGE = str(Path(hdpsim.__file__).parent)
READINGS = 200
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def pair_scenario(loss: float) -> dict:
    sensor, phone = "02:00:00:00:00:01", "02:00:00:00:00:00"
    return {
        "devices": [
            {"address": sensor, "position": [0.0, 0.0], "pin": "1234", "role": "source"},
            {"address": phone, "position": [2.0, 0.0], "pin": "1234", "role": "sink",
             "sink_whitelist": ["heart_rate"]},
        ],
        "medium": {"loss_probability": loss},
        "timeline": [
            {"t_us": 0, "action": "start_inquiry", "device": phone, "duration_us": 2_000_000},
            {"t_us": 2_100_000, "action": "page", "device": phone, "target": sensor},
            {"t_us": 3_000_000, "action": "associate", "source": sensor, "sink": phone,
             "specialization": "heart_rate"},
            {"t_us": 4_000_000, "action": "send_measurement", "source": sensor, "sink": phone,
             "count": READINGS, "interval_us": 250_000,
             "readings": {"heart_rate_bpm": 72.0, "filling_duration_ms": 180.0,
                          "ascending_wave_index_pct": 15.0}},
            {"t_us": 64_000_000, "action": "run_until"},
        ],
    }


def frames_by_function(loss: float) -> tuple[collections.Counter, int]:
    """Frames of ``src/hdpsim`` code over one run, by (file, function), and
    the readings the sink received."""
    scenario = validate_scenario(pair_scenario(loss))
    counts: collections.Counter = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE) and code.co_name not in INLINED:
                counts[(Path(code.co_filename).name, code.co_name)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _trace, report = run_scenario(scenario, seed=1, out=io.StringIO())
    finally:
        sys.setprofile(previous)
    return counts, report.measurements.delivered


@pytest.mark.parametrize("case, loss", [("lossless", 0.0), ("lossy_5pct", 0.05)])
def test_frames_per_reading_are_pinned(case, loss):
    counts, delivered = frames_by_function(loss)
    assert delivered == READINGS
    total = sum(counts.values())
    pinned = json.loads(BUDGET_FILE.read_text(encoding="utf-8"))[case]
    top = "\n".join(
        f"  {n / READINGS:6.2f}  {name}:{function}" for (name, function), n in counts.most_common(20)
    )
    assert total == pinned, (
        f"{case}: {total} frames ({total / READINGS:.2f} per reading), pinned {pinned} "
        f"({pinned / READINGS:.2f}); frames per reading by function:\n{top}"
    )
