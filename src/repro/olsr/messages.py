"""OLSR control messages and data packets.

Simplified but structurally faithful versions of the RFC 3626 message formats, extended the
way QOLSR extends them: HELLO messages piggyback the sender's measured link QoS for each
declared neighbor (so receivers can build a QoS-weighted two-hop view), and TC messages carry
the QoS of each advertised link.  Messages are immutable value objects; the simulator wraps
them in :class:`Packet` envelopes that carry TTL/hop-count the way the OLSR packet header
does.

Every node numbers the messages it originates itself (RFC 3626 §3.4 Message Sequence
Number), so ``(originator, sequence_number)`` identifies a message within one simulation
and no number depends on what else ran in the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Tuple

from repro.olsr.constants import MAX_TTL
from repro.utils.ids import NodeId


@dataclass(frozen=True)
class LinkReport:
    """One neighbor entry of a HELLO message: who, with what QoS, and of what kind."""

    neighbor: NodeId
    weights: Mapping[str, float]
    is_mpr: bool = False
    """True when the sender has selected this neighbor as MPR (the MPR-selector signal)."""


@dataclass(frozen=True)
class HelloMessage:
    """Periodic one-hop broadcast advertising the sender's links (never forwarded)."""

    originator: NodeId
    sequence_number: int
    links: Tuple[LinkReport, ...]

    def reported_neighbors(self) -> FrozenSet[NodeId]:
        return frozenset(report.neighbor for report in self.links)

    def declares_mpr(self, node: NodeId) -> bool:
        """True when this HELLO declares ``node`` as one of the sender's MPRs."""
        return any(report.neighbor == node and report.is_mpr for report in self.links)


@dataclass(frozen=True)
class AdvertisedLink:
    """One advertised link of a TC message: a selector of the originator, with its QoS."""

    selector: NodeId
    weights: Mapping[str, float]


@dataclass(frozen=True)
class TcMessage:
    """Topology-control message flooded through the MPR backbone.

    ``ansn`` is the Advertised Neighbor Sequence Number: receivers discard TC information
    older than what they already hold for the same originator.
    """

    originator: NodeId
    sequence_number: int
    ansn: int
    advertised: Tuple[AdvertisedLink, ...]

    def advertised_nodes(self) -> FrozenSet[NodeId]:
        return frozenset(link.selector for link in self.advertised)


@dataclass(frozen=True)
class DataPacket:
    """An application payload routed hop by hop by the protocol."""

    source: NodeId
    destination: NodeId
    sequence_number: int
    payload: object = None

    @property
    def identifier(self) -> Tuple[NodeId, int]:
        """``(source, sequence_number)``: unique among one simulation's data packets."""
        return (self.source, self.sequence_number)


@dataclass(frozen=True)
class Packet:
    """Transmission envelope: message + forwarding metadata (TTL, hop count, last sender)."""

    message: object
    sender: NodeId
    ttl: int = MAX_TTL
    hops: int = 0

    def forwarded_by(self, node: NodeId) -> "Packet":
        """The envelope after one retransmission by ``node``."""
        return Packet(message=self.message, sender=node, ttl=self.ttl - 1, hops=self.hops + 1)
