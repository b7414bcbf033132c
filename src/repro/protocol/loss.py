"""The seeded per-link loss/delay model of the lossy control channel.

Every transmission the :class:`~repro.protocol.radio.LossyRadio` attempts is identified
by its directed link and a per-link transmission counter, and the model answers two
questions about it -- is it delivered, and after how long -- as *pure functions* of
``(seed, src, dst, seq)``.  Nothing is drawn from shared generator state: each decision
derives its own :class:`random.Random` through :func:`repro.utils.seeding.spawn_rng`, so
the draw for transmission ``seq`` on link ``src -> dst`` is the same number whether the
trial runs serially, in a ``REPRO_WORKERS`` pool, or in a different process entirely.
That is the contract that keeps protocol sweeps bit-identical serial vs parallel.

``seq`` is the radio's own per-directed-link transmission counter, not an OLSR message
sequence number: a broadcast is one message but one transmission per receiver, and a
forwarded TC keeps its originator's number, so only the link counter names each draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.ids import NodeId
from repro.utils.seeding import spawn_rng


@dataclass(frozen=True)
class LossModel:
    """Per-transmission loss and delay, drawn purely from ``(seed, src, dst, seq)``.

    Attributes
    ----------
    seed:
        Root seed of the channel.  Equal seeds give bit-identical channels across
        processes.
    loss_rate:
        Probability in ``[0, 1)`` that any single transmission is lost.  ``0`` is the
        paper's ideal MAC layer (and skips the draw entirely).
    propagation_delay:
        Base delivery latency of a successful transmission (simulated time units).
    delay_jitter:
        Width of the uniform extra delay added on top of ``propagation_delay``
        (``0`` = fixed latency).
    """

    seed: int
    loss_rate: float = 0.0
    propagation_delay: float = 0.001
    delay_jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.propagation_delay < 0:
            raise ValueError(f"propagation_delay must be non-negative, got {self.propagation_delay}")
        if self.delay_jitter < 0:
            raise ValueError(f"delay_jitter must be non-negative, got {self.delay_jitter}")

    def delivered(self, src: NodeId, dst: NodeId, seq: int) -> bool:
        """Whether transmission ``seq`` on the directed link ``src -> dst`` arrives."""
        if self.loss_rate == 0.0:
            return True
        return spawn_rng(self.seed, "loss", src, dst, seq).random() >= self.loss_rate

    def delay(self, src: NodeId, dst: NodeId, seq: int) -> float:
        """Delivery latency of transmission ``seq`` on the directed link ``src -> dst``."""
        if self.delay_jitter == 0.0:
            return self.propagation_delay
        return self.propagation_delay + spawn_rng(self.seed, "delay", src, dst, seq).uniform(
            0.0, self.delay_jitter
        )
