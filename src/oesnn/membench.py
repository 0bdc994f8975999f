"""Synaptic-memory benchmark targets and technology scoring.

Targets follow from three accounting rules: roughly sqrt(fan-in) synapses
update per post-synaptic spike, so a lifetime L at mean rate f demands
L*f/sqrt(N) writes; update power stays below communication power when
E_update < sqrt(N)*E_opt; and updates must fit inside the minimum
inter-spike interval 1/f_max.  Technology entries with missing numbers
score "unknown" on the affected metrics, never "pass".

A technology table is a JSON list of entries whose keys are the fields of
:class:`MemoryTechSpec`; it is read, and each entry checked against the
field types and bounds, by the same walk as a scenario section.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .config import read_json, read_records
from .errors import DomainError, bounded, check_bounds
from .quantities import ENERGY, Quantity


@dataclass(frozen=True)
class SystemAssumptions:
    """Operating point the targets are derived from."""

    lifetime: float = bounded(1e9, gt=0)  # s, decades-scale system lifetime
    mean_rate: float = bounded(10e3, gt=0)  # Hz
    fanin: float = bounded(1000.0, ge=1)
    e_opt: float = bounded(100e-15, gt=0)  # J per spike at the transmitter
    max_rate: float = bounded(10e6, gt=0)  # Hz

    def __post_init__(self):
        check_bounds(self)
        if self.mean_rate > self.max_rate:
            raise DomainError("mean_rate cannot exceed max_rate")


DEFAULT_ASSUMPTIONS = SystemAssumptions()


@dataclass(frozen=True)
class MemoryTechSpec:
    """One candidate synaptic memory technology.

    ``None`` marks a number the literature does not pin down.
    """

    name: str
    endurance: float | None = bounded(None, gt=0)  # lifetime writes
    update_energy: float | None = bounded(None, gt=0)  # J
    update_time: float | None = bounded(None, gt=0)  # s
    precision_bits: int | None = bounded(None, ge=1)
    volatile_on_warmup: bool | None = None
    programming_voltage: float | None = None  # informational

    def __post_init__(self):
        check_bounds(self)


def lifetime_updates(a: SystemAssumptions = DEFAULT_ASSUMPTIONS) -> float:
    """Writes a synapse sees over the system lifetime: L*f/sqrt(N)."""
    return a.lifetime * a.mean_rate / math.sqrt(a.fanin)


def max_update_energy(a: SystemAssumptions = DEFAULT_ASSUMPTIONS) -> Quantity:
    """Largest per-write energy that keeps updates below link power: sqrt(N)*E_opt."""
    return Quantity(math.sqrt(a.fanin) * a.e_opt, ENERGY)


@dataclass(frozen=True)
class BenchmarkTargets:
    """Exact targets computed from the assumptions."""

    endurance: float  # >= this many writes
    update_energy: float  # <= this many joules
    update_time: float  # <= this many seconds
    precision_bits: tuple[int, int] = (4, 8)  # desired range; more is advisory


# Round-number goals the default assumptions reduce to (order-of-magnitude
# endurance, one-significant-figure energy).
GOAL_TABLE = {
    "endurance": 1e11,
    "update_energy": 3e-12,
    "update_time": 100e-9,
    "precision_bits": (4, 8),
}


def targets(a: SystemAssumptions = DEFAULT_ASSUMPTIONS) -> BenchmarkTargets:
    return BenchmarkTargets(
        endurance=lifetime_updates(a),
        update_energy=max_update_energy(a).value,
        update_time=1.0 / a.max_rate,
    )


@dataclass(frozen=True)
class MetricResult:
    metric: str
    value: float | int | None
    target: float | tuple
    comparison: str  # "at_least" | "at_most" | "range"
    margin: float | None  # pass iff margin >= 1 (at_least) or <= 1 (at_most)
    verdict: str  # "pass" | "fail" | "unknown"
    note: str = ""


@dataclass(frozen=True)
class TechReport:
    name: str
    metrics: tuple[MetricResult, ...]

    @property
    def verdict(self) -> str:
        if any(m.verdict == "fail" for m in self.metrics):
            return "fail"
        if any(m.verdict == "unknown" for m in self.metrics):
            return "unknown"
        return "pass"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "metrics": [vars(m).copy() for m in self.metrics],
        }


def score_technology(tech: MemoryTechSpec, a: SystemAssumptions = DEFAULT_ASSUMPTIONS) -> TechReport:
    """Score one technology against the computed targets.

    Boundary values pass (targets are approximate); margins are plain
    ratios so a margin of 2 on an "at least" metric means twice the
    requirement.
    """
    t = targets(a)
    results = []

    def judge(metric, value, target, comparison, note=""):
        if value is None:
            results.append(MetricResult(metric, None, target, comparison, None, "unknown", note))
            return
        if comparison == "at_least":
            margin = value / target
            verdict = "pass" if margin >= 1.0 else "fail"
        else:
            margin = value / target
            verdict = "pass" if margin <= 1.0 else "fail"
        results.append(MetricResult(metric, value, target, comparison, margin, verdict, note))

    judge("endurance", tech.endurance, t.endurance, "at_least")
    judge("update_energy", tech.update_energy, t.update_energy, "at_most")
    judge("update_time", tech.update_time, t.update_time, "at_most")
    lo, hi = t.precision_bits
    if tech.precision_bits is None:
        results.append(MetricResult("precision_bits", None, t.precision_bits, "range", None, "unknown"))
    else:
        margin = tech.precision_bits / lo
        verdict = "pass" if tech.precision_bits >= lo else "fail"
        note = "above the desired range; extra levels are unused headroom" if tech.precision_bits > hi else ""
        results.append(
            MetricResult("precision_bits", tech.precision_bits, t.precision_bits, "range", margin, verdict, note)
        )
    return TechReport(name=tech.name, metrics=tuple(results))


def load_technologies(path=None) -> list[MemoryTechSpec]:
    """Load technology entries from a JSON list; bundled table when no path given.

    Each entry is read as the fields of :class:`MemoryTechSpec`; a table
    that cannot be read or breaks them raises
    :class:`~oesnn.errors.ConfigError` listing every problem.
    """
    if path is None:
        text = resources.files("oesnn").joinpath("data/memory_technologies.json").read_text("utf-8")
        doc = json.loads(text)
    else:
        doc = read_json(path, "technology table")
    return read_records(MemoryTechSpec, doc, "technologies")
