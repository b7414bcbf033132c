"""The OLSR protocol substrate: messages, tables, MPR selection and the node state machine."""

from repro.olsr import constants
from repro.olsr.duplicate_set import DuplicateSet
from repro.olsr.messages import (
    AdvertisedLink,
    DataPacket,
    HelloMessage,
    LinkReport,
    Packet,
    TcMessage,
)
from repro.olsr.mpr import coverage_map, mpr_selectors, rfc3626_mpr
from repro.olsr.neighbor_table import NeighborEntry, NeighborTable, TwoHopEntry
from repro.olsr.node import NodeStatistics, OlsrNode
from repro.olsr.routing_table import RouteEntry, RoutingTable
from repro.olsr.topology_table import TopologyEntry, TopologyTable

__all__ = [
    "constants",
    "HelloMessage",
    "TcMessage",
    "DataPacket",
    "Packet",
    "LinkReport",
    "AdvertisedLink",
    "rfc3626_mpr",
    "coverage_map",
    "mpr_selectors",
    "NeighborTable",
    "NeighborEntry",
    "TwoHopEntry",
    "TopologyTable",
    "TopologyEntry",
    "DuplicateSet",
    "RoutingTable",
    "RouteEntry",
    "OlsrNode",
    "NodeStatistics",
]
