"""Chip-to-chip interconnect model for multi-chip sharded execution.

When a model is pipeline-sharded across several chips (:mod:`repro.dist`),
the activations flowing between consecutive stages cross a chip-to-chip link
(IPU-Link, NVLink, ...).  :class:`InterconnectModel` plays the same role for
those links that :class:`~repro.hw.hbm.HBMModel` plays for off-chip memory:
a deterministic latency-plus-bandwidth timing model the partitioner and the
pipeline simulator price transfers against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.hw.spec import ChipSpec
from repro.utils.fingerprint import stable_hash


@dataclass(frozen=True)
class InterconnectConfig:
    """Configuration of one chip-to-chip link."""

    bandwidth: float
    """Sustained bytes/s one link can move between two neighbouring chips."""
    latency: float = 1.5e-6
    """Fixed per-transfer latency of the link (seconds)."""

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("interconnect bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("interconnect latency must be non-negative")

    def fingerprint(self) -> str:
        """Stable content hash of the link configuration (memoized per instance)."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        return stable_hash(("interconnect", self))


class InterconnectModel:
    """Timing model of the link between two pipeline-adjacent chips."""

    def __init__(self, config: InterconnectConfig) -> None:
        self.config = config

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` of activations to the next chip.

        A zero-byte transfer costs nothing: stages whose boundary carries no
        activations (e.g. a single-stage "pipeline") pay no link latency.
        """
        if nbytes < 0:
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.config.latency + nbytes / self.config.bandwidth


#: The IPU-Link configuration of the paper's V-IPU setups (§6.5): 160 GB/s
#: aggregate between neighbouring chips.
IPU_LINK = InterconnectConfig(bandwidth=160e9, latency=1.5e-6)


def default_interconnect(chip: ChipSpec) -> InterconnectModel:
    """The link model implied by a chip spec's ``inter_chip_bandwidth``."""
    return InterconnectModel(
        InterconnectConfig(bandwidth=chip.inter_chip_bandwidth, latency=IPU_LINK.latency)
    )
