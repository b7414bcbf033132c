"""The benchmark's workloads: which preset each runs, at which shape, and how it is set up.

A workload narrows one registered preset to a single density at a fixed shape.  A run is
a sequence of *chunks*: sweeps of ``shape.trials`` trials each, chunk ``i`` seeded by
``chunk_seed(seed, i)`` (chunk 0 by the workload seed itself).  How many chunks a run
holds follows from ``--seconds`` and the workload's nominal chunk cost alone
(:func:`chunk_count`), never from how fast the machine is, so a parent and a change given
the same arguments run exactly the same inputs.  ``chunk_s`` is the measured cost of one
chunk on a 2-core x86-64 VM (Python 3.11, numpy 2.4).

``tiny`` shapes keep every layer of a workload busy at a fraction of the cost; the
benchmark's self-tests use them, one chunk per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The preset seed; the default workload seed.
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Shape:
    """The spec overrides of one workload shape (``trials`` is ``runs`` of one chunk)."""

    density: float
    field: Tuple[float, float, float]
    trials: int
    pairs_per_run: Optional[int] = None
    timesteps: Optional[int] = None
    step_interval: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    shape: Shape
    tiny: Shape
    #: Nominal seconds of one chunk of ``shape`` (sets the chunk count, see above).
    chunk_s: float
    #: Topology model in place of the preset's (``None``: the preset's own).
    topology: Optional[str] = None


_FIELD = (600.0, 600.0, 100.0)
_TINY_FIELD = (300.0, 300.0, 100.0)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "static-overhead",
            "fig8",
            # 150 nodes on 400x400 is fig8's degree 30 (the preset puts ~340 on 600x600):
            # trials cost ~2 s instead of ~5 s, so a run holds 8 of them.
            Shape(density=150.0, field=(400.0, 400.0, 100.0), trials=2, pairs_per_run=8),
            Shape(density=30.0, field=_TINY_FIELD, trials=2, pairs_per_run=2),
            chunk_s=4.4,
            # Both static workloads deploy an exact node count (density = node count) at
            # the preset's mean degree, not the preset's Poisson process: trial cost grows
            # as ~n^3.4, so the Poisson count alone gave trials a coefficient of variation
            # of ~0.25 and runs a spread near the bounds.  The dynamic presets already
            # deploy exact counts.
            topology="fixed-count",
        ),
        Workload(
            "static-ans-size",
            "fig7",
            # 172 nodes on 600x600 is fig7's degree 15.
            Shape(density=172.0, field=_FIELD, trials=6),
            Shape(density=20.0, field=_TINY_FIELD, trials=2),
            chunk_s=5.0,
            topology="fixed-count",
        ),
        Workload(
            "mobility-churn",
            "mobility-churn",
            # 200 nodes on 1000x1000 (mean degree ~6, as 90 nodes on 600x600) in steps of
            # 0.1: a step dirties about a fifth of the owners, so every step takes the
            # per-owner view patch and SelectionCache re-selects only the dirty owners.
            Shape(density=200.0, field=(1000.0, 1000.0, 100.0), trials=3, timesteps=10,
                  step_interval=0.1),
            Shape(density=30.0, field=_FIELD, trials=2, timesteps=3, step_interval=0.1),
            chunk_s=3.3,
        ),
        Workload(
            "protocol-convergence",
            "protocol-convergence",
            # 20 nodes on 425x425 is the preset's mean degree (~3.5; 40 nodes on 600x600),
            # with one churn step (the preset has eight): trials cost ~0.4 s instead of
            # ~7 s.  Trial cost varies with the topology (coefficient of variation ~0.35
            # at any size tried), so a run needs many of them: it holds 40.
            Shape(density=20.0, field=(425.0, 425.0, 100.0), trials=8, timesteps=1),
            Shape(density=12.0, field=_TINY_FIELD, trials=2, timesteps=1),
            chunk_s=3.5,
        ),
    )
}


def chunk_count(workload: Workload, seconds: float, tiny: bool = False) -> int:
    """Chunks in a run of ``seconds`` nominal seconds (at least one; tiny runs hold one)."""
    return 1 if tiny else max(1, round(seconds / workload.chunk_s))


def chunk_seed(seed: int, index: int) -> int:
    """The spec seed of chunk ``index`` of a run with workload seed ``seed``."""
    return seed if index == 0 else seed * 1_000_003 + index


def set_up(workload: Workload, seed: int, tiny: bool = False):
    """Fresh interpreter to engine ready: import, populate registries, build the spec,
    create its measure and metric.  Returns ``(spec, measure, metric)``."""
    from repro import registry
    import repro.experiments  # noqa: F401 - the engine and its sinks
    from repro.topology.generators import FieldSpec

    for table in (
        registry.SELECTORS,
        registry.METRICS,
        registry.TOPOLOGY_MODELS,
        registry.MEASURES,
        registry.SINKS,
        registry.PRESETS,
    ):
        table.names()
    shape = workload.tiny if tiny else workload.shape
    width, height, radius = shape.field
    overrides = dict(
        densities=(shape.density,),
        field=FieldSpec(width=width, height=height, radius=radius),
        runs=shape.trials,
        seed=seed,
        node_sample=None,
    )
    if shape.pairs_per_run is not None:
        overrides["pairs_per_run"] = shape.pairs_per_run
    if shape.timesteps is not None:
        overrides["timesteps"] = shape.timesteps
    if shape.step_interval is not None:
        overrides["step_interval"] = shape.step_interval
    if workload.topology is not None:
        overrides["topology"] = workload.topology
    spec = registry.PRESETS.create(workload.preset).with_overrides(**overrides).validate_names()
    measure = registry.MEASURES.create(spec.measure)
    measure.validate_spec(spec)
    metric = registry.METRICS.create(spec.metric)
    return spec, measure, metric
