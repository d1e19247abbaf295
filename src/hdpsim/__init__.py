"""Deterministic simulator for short-range medical telemetry networks.

The stack models device discovery, master/slave link formation with PIN
pairing, channel management with reliable and streaming data channels,
and measurement transport with clock mapping and store-and-forward
buffering, all on an integer-microsecond discrete-event engine whose runs
are byte-identical per seed.
"""

from .core import (
    DeviceAddress,
    DeviceConfig,
    DeviceName,
    DuplicateAddress,
    InvalidDeviceName,
    MalformedAddress,
)
from .discovery import (
    ConnectabilityMode,
    DiscoverabilityMode,
    DiscoveryManager,
    InquiryInProgress,
)
from .engine import (
    Device,
    Engine,
    FrameKind,
    MediumModel,
    RadioFrame,
    SchedulingInPast,
    Trace,
    TraceEvent,
    UnknownDevice,
)
from .hdp import (
    Association,
    AudioNotSupported,
    AuthRequired,
    ChannelKind,
    HdpError,
    HdpManager,
    Measurement,
    NoControlChannel,
    Specialization,
)
from .link import (
    ConnectionParams,
    Link,
    LinkError,
    LinkManager,
    LinkState,
    NotConnectable,
    NotDiscovered,
    PiconetFull,
    Unreachable,
    WouldViolateTopology,
)
from .mcap import (
    ChannelClosed,
    ChannelState,
    ClockSyncResult,
    ControlChannel,
    DataChannel,
    LinkDown,
    McapError,
    McapManager,
    McapTimeout,
    SendStatus,
    SyncTimeout,
)
from .metrics import MetricsFold, MetricsReport, compute_metrics, emit_metrics, metrics_json
from .params import SimParams
from .runner import InvariantViolation, Stack, build_stack, run_scenario
from .scenario import ParseError, Scenario, ValidationError, load_scenario
from .security import EmptyPin, LinkKey, NotAuthenticated, Pin

__version__ = "0.1.0"
