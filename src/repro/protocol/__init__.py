"""Event-driven OLSR protocol simulation over live (possibly mobile) topologies.

The analytic harness (:mod:`repro.experiments`) computes converged advertised sets
directly from topology snapshots; this package makes the control traffic *real*: one
:class:`~repro.protocol.simulator.ProtocolSimulator` drives a full
:class:`~repro.olsr.node.OlsrNode` agent per network node -- jittered periodic HELLO/TC
broadcasts, finite table-entry lifetimes with purge loops, triggered TCs on MPR-selector
change -- over a :class:`~repro.protocol.engine.Simulator` event queue and a
:class:`~repro.protocol.radio.LossyRadio` whose per-transmission loss/delay draws come
from a :class:`~repro.protocol.loss.LossModel` that is a pure function of
``(seed, src, dst, seq)``.  Attached to a
:class:`~repro.mobility.dynamic.DynamicTopology` as a step listener, the simulator opens
the time axis the analytic pipeline cannot reach: convergence time after churn, staleness
of advertised link state, route flaps under lossy control traffic (the measures of
:mod:`repro.protocol.measures`).  :meth:`~repro.protocol.simulator.ProtocolSimulator.send_data`
forwards data packets hop by hop over the same channel.  With ``loss_rate=0`` the channel
is the paper's ideal MAC layer.

Contracts live in ``docs/protocol.md``; with ``loss_rate=0`` and aligned intervals the
simulated advertised sets converge to exactly what the analytic pipeline reports
(``tests/test_protocol_sim.py`` pins this, extending the differential-suite convention).
"""

from repro.protocol.engine import Simulator
from repro.protocol.trace import EventTrace, TraceEvent
from repro.protocol.loss import LossModel
from repro.protocol.radio import LossyRadio, LossyRadioStatistics
from repro.protocol.simulator import DeliveryReport, ProtocolSimulator

__all__ = [
    "Simulator",
    "EventTrace",
    "TraceEvent",
    "LossModel",
    "LossyRadio",
    "LossyRadioStatistics",
    "DeliveryReport",
    "ProtocolSimulator",
]
