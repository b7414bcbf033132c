"""Layer-attributed tracing of one sweep, from outside the program.

:func:`install` wraps the public entry points of each layer (module names: topology,
localview, selection, routing, mobility, protocol) so that every call records a span
``[key, start, end, parent, trial]``.  Nothing under ``src/`` is changed: the wrappers are
installed on the classes and module attributes at run time, pass arguments and results
through untouched, and are removed again by ``undo()`` on the handle it returns.

A call into a key that is already open (``select_all`` calling ``select`` of the same
selector, say) is not recorded a second time, so one operation is one span.  Spans of
different keys nest; a span's *self time* is its duration minus its direct children's,
and self times therefore sum to at most the trial time.  Trial boundaries come from the
engine's trial sink events (recorded by ``sweep.run_sweep``).  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The selectors every workload runs (the paper's three), one per-layer metric each.
SELECTORS = ("topology-filtering", "fnbp", "qolsr-mpr2")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[key, start, end, parent_index, trial]`` per recorded span.
        self.spans: List[list] = []
        #: ``[start, end]`` per finished trial, in run order.
        self.trials: List[List[float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ recording

    def innermost(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, key_of, fn, before=None, after=None, nested_after=True):
        """``fn`` recorded as a span keyed ``key_of(*args)``.

        ``before(*args)`` returns a context handed to ``after(context, result, *args)``;
        both run outside the span's timing, ``after`` also for nested calls unless
        ``nested_after`` is false.
        """
        tracer = self

        def traced(*args, **kwargs):
            key = key_of(*args) if callable(key_of) else key_of
            context = before(*args) if before is not None else None
            if tracer._open[key]:
                result = fn(*args, **kwargs)
                if not nested_after:
                    return result
            else:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                record = [key, 0.0, 0.0, parent, len(tracer.trials)]
                tracer.spans.append(record)
                tracer._stack.append(index)
                tracer._open[key] += 1
                record[1] = tracer.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = tracer.clock()
                    tracer._open[key] -= 1
                    tracer._stack.pop()
            if after is not None:
                after(context, result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def end_trial(self, start: float, end: float) -> None:
        self.trials.append([start, end])

    # ------------------------------------------------------------------ analysis

    def self_times(self) -> Dict[str, float]:
        """Total self time per span key."""
        child_time = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (key, start, end, _, _) in enumerate(self.spans):
            totals[key] += end - start - child_time[index]
        return totals

    def total_times(self) -> Dict[str, float]:
        """Total (inclusive) time per span key."""
        totals: Dict[str, float] = defaultdict(float)
        for key, start, end, _, _ in self.spans:
            totals[key] += end - start
        return totals

    def attributed_time(self) -> float:
        """Time covered by top-level spans (inside trials)."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["key", "start", "end", "parent", "trial"],
                    "spans": self.spans,
                    "trials": self.trials,
                    "counts": dict(self.counts),
                },
                handle,
            )


# ---------------------------------------------------------------------- installation


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


_MISSING = object()


def _wrap(patches, tracer, classes, name, key_of, **hooks):
    """Wrap method ``name`` of each class (originals looked up before any is replaced)."""
    originals = {cls: getattr(cls, name) for cls in classes}
    for cls in classes:
        patches.set(cls, name, tracer.wrap(key_of, originals[cls], **hooks))


def _wrap_classmethod(patches, tracer, cls, name, key_of, **hooks):
    function = cls.__dict__[name].__func__
    patches.set(cls, name, classmethod(tracer.wrap(key_of, function, **hooks)))


def install(tracer: Tracer) -> _Patches:
    """Wrap every layer's public entry points; ``undo()`` on the result removes them."""
    import repro.experiments.measures as measures
    from repro.core.selection import AnsSelector, SelectionCache, make_selector
    from repro.localview.networkgraph import NetworkGraph
    from repro.localview.view import LocalView
    from repro.mobility.dynamic import DynamicTopology
    from repro.mobility.models import GaussMarkovGenerator, LinkChurnGenerator, RandomWaypointGenerator
    from repro.protocol.simulator import ProtocolSimulator
    from repro.routing.advertised import AdvertisedTopologyBuilder
    from repro.routing.hop_by_hop import HopByHopRouter
    from repro.topology.generators import (
        FixedCountNetworkGenerator,
        GridNetworkGenerator,
        PoissonNetworkGenerator,
    )

    patches = _Patches()
    counts = tracer.counts

    def add(name: str, value: float = 1.0) -> None:
        counts[name] += value

    # topology (mobile generators delegate to the fixed-count one: count nodes once)
    generators = (
        PoissonNetworkGenerator,
        FixedCountNetworkGenerator,
        GridNetworkGenerator,
        RandomWaypointGenerator,
        GaussMarkovGenerator,
        LinkChurnGenerator,
    )
    _wrap(
        patches,
        tracer,
        generators,
        "generate",
        "topology.generate",
        after=lambda _, network, *args: add("topology.nodes", len(network)),
        nested_after=False,
    )

    # localview
    def count_mobility_views(_, views, *args):
        if tracer.innermost() == "mobility.advance":
            add("mobility.views_rebuilt", len(views))

    _wrap_classmethod(patches, tracer, NetworkGraph, "from_network", "localview.csr")
    _wrap_classmethod(
        patches, tracer, LocalView, "all_from_network", "localview.views", after=count_mobility_views
    )
    from_adjacency = LocalView.__dict__["from_adjacency"].__func__

    def from_adjacency_counted(cls, *args, **kwargs):
        if tracer.innermost() == "mobility.advance":
            add("mobility.views_rebuilt")
        return from_adjacency(cls, *args, **kwargs)

    patches.set(LocalView, "from_adjacency", classmethod(from_adjacency_counted))

    # selection: every registered selector class's select, plus both select_all paths
    from repro.registry import SELECTORS as REGISTRY

    classes = {type(make_selector(name)) for name in REGISTRY.names()}
    _wrap(
        patches,
        tracer,
        classes,
        "select",
        lambda self, *_: "selection." + self.name,
        after=lambda *_: add("selection.owners"),
    )
    _wrap(patches, tracer, (AnsSelector,), "select_all", lambda self, *_: "selection." + self.name)
    _wrap(patches, tracer, (SelectionCache,), "select_all", lambda _, name, *__: "selection." + name)

    # routing
    _wrap(patches, tracer, (AdvertisedTopologyBuilder,), "build", "routing.advertised")
    patches.set(measures, "optimal_route", tracer.wrap("routing.optimal", measures.optimal_route))

    def count_route(_, outcome, *args):
        add("routing.routes")
        add("routing.delivered", 1.0 if outcome.delivered else 0.0)

    _wrap(
        patches, tracer, (HopByHopRouter,), "link_state_route", "routing.hop_by_hop", after=count_route
    )

    # mobility
    def count_step(_, delta, *args):
        add("mobility.steps")
        add("mobility.dirty_owners", len(delta.dirty))

    _wrap(patches, tracer, (DynamicTopology,), "advance", "mobility.advance", after=count_step)

    # protocol
    def sim_state(sim, *_):
        radio = sim.radio.statistics
        return sim.simulator.processed_events, radio.transmissions, radio.losses

    def count_sim(before, _, sim, *args):
        events, transmissions, losses = sim_state(sim)
        add("protocol.events", events - before[0])
        add("protocol.transmissions", transmissions - before[1])
        add("protocol.losses", losses - before[2])

    _wrap(
        patches,
        tracer,
        (ProtocolSimulator,),
        "run_until",
        "protocol.run_until",
        before=sim_state,
        after=count_sim,
    )
    for name in ("ans_snapshot", "advertised_link_sets", "next_hops"):
        _wrap(patches, tracer, (ProtocolSimulator,), name, "protocol.readout")
    return patches
