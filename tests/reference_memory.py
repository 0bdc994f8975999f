"""Synaptic memory as one immutable scalar cell per synapse, as a test reference.

The program keeps every edge's memory in ``plasticity.MemoryColumns``
and writes it in place.  This module models the same two cell families
one cell at a time: ``LoopMemory`` stores the weight as an integer level
in a persistent-current loop (quantized, effectively unlimited
endurance) and ``AnalogMemory`` stores a real weight in [0, 1] with write
noise and a finite endurance budget.  ``apply_stdp`` returns a new cell
for one pairing, and ``weight_to_fluxon_rate`` is a loop cell's fluxons
per detection.  ``reference_loop`` runs on these cells, and the tests
check ``MemoryColumns.write`` against chains of ``apply_stdp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from oesnn.errors import DomainError, bounded, check_bounds
from oesnn.plasticity import StdpParams, stdp_delta


@dataclass(frozen=True)
class LoopMemory:
    """Weight as a fluxon-quantized level in [0, 2**bits)."""

    level: int = 0
    bits: int = 10
    write_count: int = 0

    def __post_init__(self):
        if not 1 <= self.bits <= 10:
            raise DomainError(f"bits must lie in [1, 10], got {self.bits}")
        if not 0 <= self.level < 2**self.bits:
            raise DomainError(f"level must lie in [0, {2**self.bits}), got {self.level}")

    @property
    def max_level(self) -> int:
        return 2**self.bits - 1

    @property
    def weight(self) -> float:
        return self.level / self.max_level

    @property
    def degraded(self) -> bool:
        return False


@dataclass(frozen=True)
class AnalogMemory:
    """Weight as a real value in [0, 1] with noisy, endurance-limited writes."""

    value: float = bounded(0.5, ge=0, le=1)
    write_noise_std: float = bounded(0.0, ge=0)
    endurance: float = bounded(math.inf, gt=0)  # lifetime write budget
    write_count: int = 0
    degraded: bool = False

    def __post_init__(self):
        check_bounds(self)

    @property
    def weight(self) -> float:
        return self.value


MemoryCell = LoopMemory | AnalogMemory


def apply_stdp(
    pre_spike: float,
    post_spike: float,
    cell: MemoryCell,
    params: StdpParams,
    rng: np.random.Generator | None = None,
) -> tuple[MemoryCell, float]:
    """Apply one pairing to a cell; returns (new cell, applied change).

    Loop cells round the change to whole levels and clamp to the
    representable range; analog cells add write noise, clamp to [0, 1],
    and consume endurance.  The write counter moves only when a nonzero
    change actually lands.
    """
    delta = stdp_delta(pre_spike, post_spike, params)
    if isinstance(cell, LoopMemory):
        step = round(delta)
        new_level = min(cell.max_level, max(0, cell.level + step))
        applied = new_level - cell.level
        if applied == 0:
            return cell, 0.0
        return replace(cell, level=new_level, write_count=cell.write_count + 1), float(applied)
    if cell.degraded:
        return cell, 0.0
    if cell.write_count + 1 > cell.endurance:
        if params.on_exhaustion == "fault":
            raise DomainError("analog memory endurance exhausted")
        return replace(cell, degraded=True), 0.0
    noise = 0.0
    if cell.write_noise_std > 0:
        if rng is None:
            raise DomainError("write noise requires a random generator")
        noise = cell.write_noise_std * float(rng.standard_normal())
    new_value = min(1.0, max(0.0, cell.value + delta + noise))
    applied = new_value - cell.value
    if applied == 0.0 and noise == 0.0:
        return cell, 0.0
    return replace(cell, value=new_value, write_count=cell.write_count + 1), applied


def weight_to_fluxon_rate(cell: MemoryCell, max_fluxons: float) -> int:
    """Fluxons added to the integration loop per detection at this weight.

    Linear map from the stored level onto [0, max_fluxons], rounded
    half-even.  Only meaningful for loop cells.
    """
    if not isinstance(cell, LoopMemory):
        raise DomainError("fluxon rates are defined for loop memory cells only")
    if max_fluxons < 0:
        raise DomainError("max_fluxons must be non-negative")
    return round(cell.level / cell.max_level * max_fluxons)
