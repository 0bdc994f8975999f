"""Seeded discrete-event simulation of an optoelectronic spiking network.

Execution is event-driven over a priority queue with exact closed-form
exponential decay between events; there is no global timestep.  A spike at
neuron j costs source optical energy for every outgoing synapse and
schedules an arrival after the transmit delay.  Each arrival runs the
receiver's detection model (Bernoulli for single-photon detectors, Poisson
threshold or deterministic for photodiodes), suppressed during the
detector dead time.  Detections push a weight-scaled increment into the
synapse filter and the soma membrane; the membrane is a leaky integrator
that fires on threshold, resets, and honors a refractory period.

Model conventions (everything below is exact for the event sequence):
 - threshold crossings are evaluated at detection events;
 - externally driven spikes fire unconditionally (they model suprathreshold
   stimulation) and transmit like any other spike;
 - energy is tallied per event into a ledger whose cold categories are
   inflated by the platform's specific power to give wall energy.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import DomainError, SimulationError, bounded, check_bounds
from .linkbudget import (
    OpticalLink,
    ReceiverlessPhotodiode,
    SnspdReceiver,
    implied_photon_count,
    link_detection_probability,
    photodiode_static_power,
    snspd_reset_energy,
    source_energy_per_spike,
)
from .netgen import NetworkGraph
from .plasticity import (
    AnalogMemory,
    LoopMemory,
    MemoryCell,
    StdpParams,
    apply_stdp,
    loop_write_energy,
    weight_to_fluxon_rate,
)
from .platforms import SUPERCONDUCTING_4K, PlatformProfile, fluxon_budget, max_average_spike_rate
from .quantities import FLUX_QUANTUM
from .rng import substream


@dataclass(frozen=True)
class NeuronParams:
    """Soma behavior shared by every neuron in a run."""

    threshold: float = bounded(1.0, gt=0)
    refractory: float = bounded(50e-9, ge=0)  # s; default one detector reset time
    transmit_delay: float = bounded(50e-9, ge=0)  # s
    tau_soma: float | None = bounded(None, gt=0)  # s; None = slowest synapse time constant

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class SynapseDefaults:
    """Per-synapse defaults; individual edges may override any field."""

    tau: float = bounded(1e-6, gt=0)  # s, post-synaptic filter decay
    weight: float = bounded(0.5, ge=0, le=1)  # initial weight
    inhibitory: bool = False
    memory_kind: Literal["analog", "loop"] = "analog"
    bits: int = bounded(10, ge=1, le=10)
    write_noise_std: float = bounded(0.0, ge=0)
    endurance: float = bounded(math.inf, gt=0)

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class EnergyParams:
    """Knobs for the per-event energy accounting."""

    i_c: float = bounded(300e-6, gt=0)  # A, junction critical current behind loop memory
    max_fluxons: int | None = bounded(None, ge=0)  # None = floor of the per-synapse optical budget
    per_spike_overhead: float = bounded(0.0, ge=0)  # J, lumped soma electronics per output spike

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class InputDrive:
    """External stimulation forcing a neuron to spike.

    Exactly one of ``times`` (explicit schedule), ``rate`` (Poisson), or
    ``count``+``interval`` (uniform train) must be given.
    """

    neuron: int = bounded(ge=0)
    times: tuple[float, ...] | None = bounded(None, ge=0)
    rate: float | None = bounded(None, ge=0)
    count: int | None = bounded(None, ge=0)
    interval: float | None = bounded(None, gt=0)
    start: float = bounded(0.0, ge=0)

    def __post_init__(self):
        check_bounds(self)
        modes = sum([self.times is not None, self.rate is not None, self.count is not None])
        if modes != 1:
            raise DomainError("exactly one of times / rate / count is required")
        if self.count is not None and self.interval is None:
            raise DomainError("count drives need an interval")

    def schedule(self, duration: float, rng) -> np.ndarray:
        if self.times is not None:
            t = np.asarray(self.times, dtype=np.float64)
        elif self.count is not None:
            t = self.start + np.arange(self.count, dtype=np.float64) * self.interval
        else:
            if self.rate == 0 or self.start > duration:
                return np.empty(0)
            expected = self.rate * (duration - self.start)
            draws = int(expected + 6 * math.sqrt(expected + 1) + 16)
            gaps = rng.exponential(1.0 / self.rate, size=draws)
            t = self.start + np.cumsum(gaps)
            while t.size and t[-1] < duration:
                gaps = rng.exponential(1.0 / self.rate, size=draws)
                t = np.concatenate([t, t[-1] + np.cumsum(gaps)])
        return t[(t >= 0) & (t <= duration)]


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs besides the graph itself."""

    duration: float = bounded(gt=0)
    seed: int = bounded(ge=0, lt=2**64)
    link: OpticalLink
    profile: PlatformProfile = SUPERCONDUCTING_4K
    neuron: NeuronParams = NeuronParams()
    synapse: SynapseDefaults = SynapseDefaults()
    synapse_overrides: dict = field(default_factory=dict)  # (pre, post) -> {field: value}
    plasticity: StdpParams | None = None
    inputs: tuple[InputDrive, ...] = ()
    energy: EnergyParams = EnergyParams()
    record_detections: bool = False
    max_events: int = 10_000_000

    def __post_init__(self):
        check_bounds(self)


@dataclass
class Counters:
    spikes: int = 0
    forced_spikes: int = 0
    transmissions: int = 0
    detections: int = 0
    misses: int = 0
    suppressed: int = 0
    stdp_writes: int = 0


@dataclass
class EnergyLedger:
    """Per-category cumulative energy, all joules.

    Cold categories dissipate at the device stage and are inflated by the
    platform's specific power; static leakage is counted at room
    temperature.  Every category is non-negative and monotone during a run.
    """

    source_optical: float = 0.0
    detector_reset: float = 0.0
    fluxon: float = 0.0
    memory_update: float = 0.0
    soma_overhead: float = 0.0
    static_leakage: float = 0.0
    counters: Counters = field(default_factory=Counters)
    per_neuron_source: np.ndarray | None = None
    per_neuron_receiver: np.ndarray | None = None

    COLD_CATEGORIES = ("source_optical", "detector_reset", "fluxon", "memory_update", "soma_overhead")

    def cold_total(self) -> float:
        return sum(getattr(self, c) for c in self.COLD_CATEGORIES)

    def wall_total(self, profile: PlatformProfile) -> float:
        return self.cold_total() * profile.specific_power + self.static_leakage

    def categories(self) -> dict[str, float]:
        return {c: getattr(self, c) for c in self.COLD_CATEGORIES + ("static_leakage",)}

    def as_dict(self, profile: PlatformProfile) -> dict:
        doc = {
            "categories_j": self.categories(),
            "cold_total_j": self.cold_total(),
            "wall_total_j": self.wall_total(profile),
            "specific_power": profile.specific_power,
            "counters": vars(self.counters).copy(),
        }
        if self.per_neuron_source is not None:
            doc["per_neuron_source_j"] = self.per_neuron_source.tolist()
            doc["per_neuron_receiver_j"] = self.per_neuron_receiver.tolist()
        return doc


@dataclass
class SpikeRecord:
    neurons: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    def __len__(self):
        return len(self.neurons)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("neuron_id,time_s\n")
            for n, t in zip(self.neurons, self.times):
                fh.write(f"{n},{t!r}\n")


@dataclass
class SynapseReport:
    """Per-synapse counters and final weights, plus the update-count estimate."""

    pre: list[int]
    post: list[int]
    detections: list[int]
    misses: list[int]
    suppressed: list[int]
    writes: list[int]
    weights: list[float]
    levels: list[int | None]
    degraded: list[bool]
    detection_times: list[list[float]] | None = None
    sqrt_fanin_update_estimate: float = 0.0  # accounting rule: spikes * sqrt(fan-in)

    def as_dict(self) -> dict:
        doc = {
            "synapses": [
                {
                    "pre": self.pre[i],
                    "post": self.post[i],
                    "detections": self.detections[i],
                    "misses": self.misses[i],
                    "suppressed": self.suppressed[i],
                    "writes": self.writes[i],
                    "weight": self.weights[i],
                    "level": self.levels[i],
                    "degraded": self.degraded[i],
                }
                for i in range(len(self.pre))
            ],
            "sqrt_fanin_update_estimate": self.sqrt_fanin_update_estimate,
        }
        return doc


_FORCED = 0
_ARRIVAL = 1


def _memory_cell(ov: dict, defaults: SynapseDefaults) -> MemoryCell:
    """Initial memory cell of a synapse: its overrides over the defaults."""
    weight = ov.get("weight", defaults.weight)
    if ov.get("memory_kind", defaults.memory_kind) == "loop":
        bits = int(ov.get("bits", defaults.bits))
        level = ov.get("level")
        if level is None:
            level = round(weight * (2**bits - 1))
        return LoopMemory(level=int(level), bits=bits)
    return AnalogMemory(
        value=float(weight),
        write_noise_std=ov.get("write_noise_std", defaults.write_noise_std),
        endurance=ov.get("endurance", defaults.endurance),
    )


def run(graph: NetworkGraph, config: SimConfig) -> tuple[SpikeRecord, EnergyLedger, SynapseReport]:
    """Execute one deterministic simulation run.

    Identical (graph, config) pairs produce bit-identical results: all
    randomness flows from ``config.seed`` through labeled substreams.
    """
    if graph.n == 0:
        raise DomainError("graph must contain at least one neuron")
    n = graph.n
    n_edges = graph.edge_count
    link = config.link
    is_snspd = isinstance(link.receiver, SnspdReceiver)

    # Per-edge compiled state.  Cells are immutable and STDP replaces rather
    # than mutates them, so every edge without an override shares one cell.
    defaults = config.synapse
    tau = np.full(n_edges, defaults.tau)
    sign = np.full(n_edges, -1.0 if defaults.inhibitory else 1.0)
    cells: list[MemoryCell] = [_memory_cell({}, defaults)] * n_edges
    if config.synapse_overrides:
        overrides = {tuple(k): v for k, v in config.synapse_overrides.items()}
        for e, pair in enumerate(zip(graph.pre.tolist(), graph.post.tolist())):
            ov = overrides.get(pair)
            if ov is not None:
                tau[e] = ov.get("tau", defaults.tau)
                if tau[e] <= 0:
                    raise DomainError(f"synapse {e} tau must be positive")
                sign[e] = -1.0 if ov.get("inhibitory", defaults.inhibitory) else 1.0
                cells[e] = _memory_cell(ov, defaults)

    out_edges = graph.out_edge_indices()
    in_edges = graph.in_edge_indices() if config.plasticity is not None else None

    # Link constants shared by every synapse.
    e_source = source_energy_per_spike(link).value
    p_detect = link_detection_probability(link)
    dead_time = link.receiver.reset_time if is_snspd else 0.0
    e_reset = snspd_reset_energy(link.receiver.l_spd, link.receiver.i_spd).value if is_snspd else 0.0
    poisson_need = None
    if not is_snspd and link.stochastic:
        poisson_need = math.ceil(implied_photon_count(link.receiver, link.wavelength))
    superconducting = config.profile.kind == "superconducting"
    max_fluxons = config.energy.max_fluxons
    if max_fluxons is None:
        max_fluxons = int(fluxon_budget(e_source, config.energy.i_c))
    fluxon_energy = config.energy.i_c * FLUX_QUANTUM.value

    tau_soma = config.neuron.tau_soma
    if tau_soma is None:
        tau_soma = float(tau.max()) if n_edges else config.synapse.tau
    threshold = config.neuron.threshold
    refractory = config.neuron.refractory
    delay = config.neuron.transmit_delay

    # Mutable per-neuron / per-edge state.
    membrane = np.zeros(n)
    membrane_t = np.zeros(n)
    last_spike = np.full(n, -math.inf)
    filter_value = np.zeros(n_edges)
    filter_t = np.zeros(n_edges)
    last_detection = np.full(n_edges, -math.inf)
    last_pre_event = np.full(n_edges, -math.inf)
    det_count = np.zeros(n_edges, dtype=np.int64)
    miss_count = np.zeros(n_edges, dtype=np.int64)
    sup_count = np.zeros(n_edges, dtype=np.int64)
    write_count = np.zeros(n_edges, dtype=np.int64)
    detection_times: list[list[float]] | None = (
        [[] for _ in range(n_edges)] if config.record_detections else None
    )

    ledger = EnergyLedger(
        per_neuron_source=np.zeros(n),
        per_neuron_receiver=np.zeros(n),
    )
    spikes = SpikeRecord()
    rng_detect = substream(config.seed, "detect")
    rng_noise = substream(config.seed, "stdp-noise")
    plasticity = config.plasticity

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    trace: deque = deque(maxlen=32)

    for i, drive in enumerate(config.inputs):
        if not 0 <= drive.neuron < n:
            raise DomainError(f"input drive references unknown neuron {drive.neuron}")
        for t in drive.schedule(config.duration, substream(config.seed, "input", i)):
            heapq.heappush(heap, (float(t), seq, _FORCED, drive.neuron))
            seq += 1

    def decay_membrane(v: int, t: float) -> None:
        dt = t - membrane_t[v]
        if dt > 0:
            membrane[v] *= math.exp(-dt / tau_soma)
            membrane_t[v] = t

    def fire(v: int, t: float, forced: bool) -> None:
        nonlocal seq
        spikes.neurons.append(v)
        spikes.times.append(t)
        ledger.counters.spikes += 1
        if forced:
            ledger.counters.forced_spikes += 1
        last_spike[v] = t
        membrane[v] = 0.0
        membrane_t[v] = t
        ledger.soma_overhead += config.energy.per_spike_overhead
        if plasticity is not None:
            for e in in_edges[v]:
                if last_pre_event[e] > -math.inf:
                    cells[e], applied = apply_stdp(
                        last_pre_event[e], t, cells[e], plasticity, rng_noise
                    )
                    _account_write(e, applied)
        for e in out_edges[v]:
            ledger.source_optical += e_source
            ledger.per_neuron_source[v] += e_source
            ledger.counters.transmissions += 1
            heapq.heappush(heap, (t + delay, seq, _ARRIVAL, int(e)))
            seq += 1

    def _account_write(e: int, applied: float) -> None:
        if applied == 0.0:
            return
        write_count[e] += 1
        ledger.counters.stdp_writes += 1
        if plasticity.write_energy is not None:
            ledger.memory_update += plasticity.write_energy
        elif isinstance(cells[e], LoopMemory):
            ledger.memory_update += loop_write_energy(applied, config.energy.i_c)

    def arrive(e: int, t: float) -> None:
        v = int(graph.post[e])
        if t - last_detection[e] < dead_time:
            sup_count[e] += 1
            ledger.counters.suppressed += 1
            return
        if p_detect >= 1.0 and poisson_need is None:
            detected = True
        elif poisson_need is not None:
            detected = int(rng_detect.poisson(link.mean_photons())) >= poisson_need
        else:
            detected = bool(rng_detect.random() < p_detect)
        if not detected:
            miss_count[e] += 1
            ledger.counters.misses += 1
            return
        det_count[e] += 1
        ledger.counters.detections += 1
        last_detection[e] = t
        if detection_times is not None:
            detection_times[e].append(t)
        if is_snspd:
            ledger.detector_reset += e_reset
            ledger.per_neuron_receiver[v] += e_reset
        cell = cells[e]
        if superconducting and isinstance(cell, LoopMemory):
            emitted = weight_to_fluxon_rate(cell, max_fluxons)
            ledger.fluxon += emitted * fluxon_energy
            ledger.per_neuron_receiver[v] += emitted * fluxon_energy
        # Exact exponential decay of the synapse filter, then the pulse.
        dt = t - filter_t[e]
        if dt > 0:
            filter_value[e] *= math.exp(-dt / tau[e])
        filter_t[e] = t
        increment = sign[e] * cell.weight
        filter_value[e] += increment
        if plasticity is not None:
            if last_spike[v] > -math.inf:
                cells[e], applied = apply_stdp(t, last_spike[v], cells[e], plasticity, rng_noise)
                _account_write(e, applied)
            last_pre_event[e] = t
        decay_membrane(v, t)
        membrane[v] += increment
        if not math.isfinite(membrane[v]):
            raise SimulationError(f"membrane of neuron {v} became non-finite at t={t}", trace)
        if membrane[v] >= threshold and t - last_spike[v] >= refractory:
            fire(v, t, forced=False)

    processed = 0
    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        if t > config.duration:
            break
        processed += 1
        if processed > config.max_events:
            raise SimulationError(
                f"event budget exceeded ({config.max_events} events); "
                "raise max_events or shorten the run",
                trace,
            )
        trace.append((t, "forced" if kind == _FORCED else "arrival", payload))
        if kind == _FORCED:
            fire(payload, t, forced=True)
        else:
            arrive(payload, t)

    # Static leakage integrates over the whole run for biased photodiodes.
    if isinstance(link.receiver, ReceiverlessPhotodiode):
        ledger.static_leakage = (
            n_edges * photodiode_static_power(link.receiver).value * config.duration
        )

    fanin = np.bincount(graph.post, minlength=n) if n_edges else np.zeros(n, dtype=np.int64)
    estimate = 0.0
    if spikes.neurons:
        spiked, counts_per = np.unique(spikes.neurons, return_counts=True)
        for v, c in zip(spiked, counts_per):
            if fanin[v]:
                estimate += float(c) * math.sqrt(float(fanin[v]))
    report = SynapseReport(
        pre=graph.pre.tolist(),
        post=graph.post.tolist(),
        detections=det_count.tolist(),
        misses=miss_count.tolist(),
        suppressed=sup_count.tolist(),
        writes=write_count.tolist(),
        weights=[c.weight for c in cells],
        levels=[c.level if isinstance(c, LoopMemory) else None for c in cells],
        degraded=[c.degraded for c in cells],
        detection_times=detection_times,
        sqrt_fanin_update_estimate=estimate,
    )
    return spikes, ledger, report


@dataclass(frozen=True)
class PowerReport:
    """Average-power view of a finished run."""

    duration: float
    cold_power: float
    wall_power: float
    static_power: float
    mean_spike_rate: float | None
    synapse_power_density: float | None
    density_limit: float
    density_ok: bool | None
    budget: float | None
    budget_utilization: float | None
    predicted_max_rate: float | None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def power_report(
    ledger: EnergyLedger,
    duration: float,
    profile: PlatformProfile,
    w_sy: float | None = None,
    n_synapses: int | None = None,
    budget: float | None = None,
    n_neurons: int | None = None,
    fanout: float | None = None,
) -> PowerReport:
    """Average cold/wall power with density and budget comparisons.

    The density check divides per-synapse on-chip (cold) power by the
    synapse footprint; the budget check uses cooling-inflated wall power.
    When the network shape is supplied, the report also states the maximum
    average rate the budget supports at the observed per-event wall energy.
    """
    if duration <= 0:
        raise DomainError("duration must be positive")
    cold = ledger.cold_total() / duration
    wall = ledger.wall_total(profile) / duration
    static = ledger.static_leakage / duration
    mean_rate = None
    if n_neurons:
        mean_rate = ledger.counters.spikes / (n_neurons * duration)
    density = None
    density_ok = None
    if w_sy is not None and n_synapses:
        density = cold / n_synapses / (w_sy * w_sy)
        density_ok = density <= profile.power_density_limit
    utilization = None
    predicted = None
    if budget is not None:
        utilization = wall / budget
        if n_neurons and fanout and ledger.counters.transmissions:
            e_wall_per_event = ledger.wall_total(profile) / ledger.counters.transmissions
            predicted = max_average_spike_rate(budget, n_neurons, fanout, e_wall_per_event).value
    return PowerReport(
        duration=duration,
        cold_power=cold,
        wall_power=wall,
        static_power=static,
        mean_spike_rate=mean_rate,
        synapse_power_density=density,
        density_limit=profile.power_density_limit,
        density_ok=density_ok,
        budget=budget,
        budget_utilization=utilization,
        predicted_max_rate=predicted,
    )
