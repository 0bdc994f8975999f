"""Synaptic memory of every edge, and the pair-based weight update rule.

``MemoryColumns`` holds one memory cell per edge of a network as arrays
and writes them in place.  Loop memory stores the weight as an integer
level in a persistent-current loop, with effectively unlimited endurance:
a write moves whole levels within [0, max_level].  Analog memory stores a
real weight in [0, 1]: a write adds noise, is clamped to [0, 1] and wears
the cell, until its endurance runs out.  The update rule is classic
pair-based exponential timing-dependent plasticity; the rule itself is an
artifact choice, the loop quantization is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError, bounded, check_bounds
from .quantities import CURRENT, FLUX_QUANTUM, si_value


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


@dataclass(eq=False)
class MemoryColumns:
    """The memory cells of every edge as per-edge arrays, written in place.

    Each distinct parameter set is kept once in ``groups`` as ``(max_level,
    write_noise_std, endurance)``, ``max_level`` 0 for analog memory, and
    ``group`` maps every edge to one.  :meth:`write` applies one pairing:

    - loop memory rounds the change to whole levels and clamps the level to
      ``[0, max_level]``; a write counts only when the level moves;
    - a degraded analog cell takes no write, and the write that would
      exceed its endurance either degrades it (``freeze``) or raises
      (``fault``);
    - write noise is drawn only when its std is above 0, and the value is
      clamped to ``[0, 1]``;
    - an analog write counts when the value moves or noise was drawn, so a
      clamped noisy write still wears the cell.
    """

    level: np.ndarray  # int64 level of loop memory; -1 for analog memory
    weight: np.ndarray  # float64; level / max_level for loop memory
    writes: np.ndarray  # int64 writes each cell has taken
    degraded: np.ndarray  # bool
    group: np.ndarray  # per edge, its index into groups
    groups: list[tuple[int, float, float]]

    def write(self, e: int, pre_spike: float, post_spike: float, params: StdpParams, rng) -> float:
        """Apply one pairing to edge ``e``; returns the change applied to its level or weight.

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


def loop_write_energy(applied_levels: float, i_c) -> float:
    """Energy to move ``applied_levels`` fluxons in/out of a storage loop."""
    current = si_value(i_c, CURRENT, "i_c")
    if current <= 0:
        raise DomainError("i_c must be positive")
    return abs(applied_levels) * current * FLUX_QUANTUM.value
