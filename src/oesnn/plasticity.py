"""Synaptic memory cells and the pair-based weight update rule.

Two cell families: ``LoopMemory`` stores the weight as an integer level in
a persistent-current loop (quantized, effectively unlimited endurance) and
``AnalogMemory`` stores a real weight in [0, 1] with write noise and a
finite endurance budget.  The update rule is classic pair-based
exponential timing-dependent plasticity; the rule itself is an artifact
choice, the loop quantization is not.  ``MemoryColumns`` holds one cell
per edge of a network as arrays, and writes them as ``apply_stdp`` writes
a cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import DomainError, bounded, check_bounds
from .quantities import CURRENT, DIMENSIONLESS, FLUX_QUANTUM, si_value


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


@dataclass(frozen=True)
class StdpParams:
    """Pair-based exponential timing rule.

    Amplitudes are in level units for loop cells and weight units for
    analog cells.  ``on_exhaustion`` selects what an analog cell does when
    its endurance budget runs out: ``"freeze"`` keeps the last weight,
    ``"fault"`` raises.
    """

    a_plus: float = bounded(4.0, ge=0)
    a_minus: float = bounded(4.0, ge=0)
    tau_plus: float = bounded(1e-3, gt=0)  # s
    tau_minus: float = bounded(1e-3, gt=0)  # s
    on_exhaustion: Literal["freeze", "fault"] = "freeze"
    write_energy: float | None = bounded(None, ge=0)  # J per applied write; None = platform rule

    def __post_init__(self):
        check_bounds(self)


def stdp_delta(pre_spike: float, post_spike: float, params: StdpParams) -> float:
    """Raw weight change for one (pre, post) spike pair.

    Pre-before-post (including the dt = 0 tie) potentiates by
    a_plus*exp(-dt/tau_plus); post-before-pre depresses by
    a_minus*exp(-dt/tau_minus).
    """
    dt = post_spike - pre_spike
    if dt >= 0:
        return params.a_plus * math.exp(-dt / params.tau_plus)
    return -params.a_minus * math.exp(dt / params.tau_minus)


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


@dataclass(eq=False)
class MemoryColumns:
    """The memory cells of every edge as per-edge arrays, written in place.

    Each distinct parameter set is kept once in ``groups`` as ``(max_level,
    write_noise_std, endurance)``, ``max_level`` 0 for analog memory, and
    ``group`` maps every edge to one.  :meth:`write` is :func:`apply_stdp`
    on one edge's state.
    """

    level: np.ndarray  # int64 level of loop memory; -1 for analog memory
    weight: np.ndarray  # float64; level / max_level for loop memory
    writes: np.ndarray  # int64 writes each cell has taken
    degraded: np.ndarray  # bool
    group: np.ndarray  # per edge, its index into groups
    groups: list[tuple[int, float, float]]

    def write(self, e: int, pre_spike: float, post_spike: float, params: StdpParams, rng) -> float:
        """Apply one pairing to edge ``e``; returns the applied change, as :func:`apply_stdp` does.

        A write is priced by the run's report, from the writes and levels it counts.
        """
        delta = stdp_delta(pre_spike, post_spike, params)
        max_level, write_noise_std, endurance = self.groups[self.group[e]]
        if max_level:
            level = int(self.level[e])
            new_level = min(max_level, max(0, level + round(delta)))
            if new_level == level:
                return 0.0
            self.level[e], self.weight[e] = new_level, new_level / max_level
            self.writes[e] += 1
            return float(new_level - level)
        if self.degraded[e]:
            return 0.0
        writes = int(self.writes[e])
        if writes + 1 > endurance:
            if params.on_exhaustion == "fault":
                raise DomainError("analog memory endurance exhausted")
            self.degraded[e] = True
            return 0.0
        noise = 0.0
        if write_noise_std > 0:
            noise = write_noise_std * float(rng.standard_normal())
        value = float(self.weight[e])
        new_value = min(1.0, max(0.0, value + delta + noise))
        applied = new_value - value
        if applied == 0.0 and noise == 0.0:
            return 0.0
        self.weight[e] = new_value
        self.writes[e] = writes + 1
        return applied


def weight_to_fluxon_rate(cell: MemoryCell, max_fluxons) -> int:
    """Fluxons added to the integration loop per detection at this weight.

    Linear map from the stored level onto [0, max_fluxons], rounded
    half-even.  Only meaningful for loop cells.
    """
    if not isinstance(cell, LoopMemory):
        raise DomainError("fluxon rates are defined for loop memory cells only")
    m = si_value(max_fluxons, DIMENSIONLESS, "max_fluxons")
    if m < 0:
        raise DomainError("max_fluxons must be non-negative")
    return round(cell.level / cell.max_level * m)


def loop_write_energy(applied_levels: float, i_c) -> float:
    """Energy to move ``applied_levels`` fluxons in/out of a storage loop."""
    current = si_value(i_c, CURRENT, "i_c")
    if current <= 0:
        raise DomainError("i_c must be positive")
    return abs(applied_levels) * current * FLUX_QUANTUM.value
