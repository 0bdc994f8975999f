"""Seeded discrete-event simulation of an optoelectronic spiking network.

Execution is event-driven with exact closed-form exponential decay between
events; there is no global timestep.  A spike at neuron j costs source
optical energy for every outgoing synapse, and all of its synapses see it
one transmit delay later.  Each arrival runs the receiver's detection
model (Bernoulli for single-photon detectors, Poisson threshold or
deterministic for photodiodes), suppressed during the detector dead time.
A detection adds the synapse's signed weight to the soma membrane, a leaky
integrator that fires on threshold, resets, and honors a refractory period.

A run compiles per-edge arrays, loops over the events, and reports.  The
transmit delay is one constant, so arrivals come in time order: the loop
merges the forced spikes, sorted by time, with a FIFO of per-spike
arrival batches, and at equal times the forced spikes go first.  One
handler takes every batch with array operations that reproduce, bit for
bit, handling its arrivals one at a time in edge order, STDP writes
included.  A spike that reaches one post neuron twice is handed over as
batches of one arrival, and a batch that would exceed the event budget is
cut at it.

Model conventions (everything below is exact for the event sequence):
 - threshold crossings are evaluated at detection events;
 - externally driven spikes fire unconditionally (they model suprathreshold
   stimulation) and transmit like any other spike;
 - energy is tallied per event into a ledger whose cold categories are
   inflated by the platform's specific power to give wall energy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Literal

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

    tau: float = bounded(1e-6, gt=0)  # s; the slowest one is the default tau_soma
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


@dataclass(eq=False)
class _Compiled:
    """One run's per-edge arrays, link constants, and the counters and records the loop fills.

    ``increment`` (sign times weight) and ``fluxon_j`` (fluxon energy per
    detection) follow ``cells``: they are set once per distinct cell and
    again whenever STDP writes an edge's cell.
    """

    graph: NetworkGraph
    config: SimConfig
    out_edges: list[np.ndarray]
    in_edges: list[np.ndarray] | None
    repeated_post: np.ndarray  # per neuron: one spike reaches some post neuron twice
    cells: list[MemoryCell]
    sign: np.ndarray
    increment: np.ndarray
    fluxon_j: np.ndarray
    fluxon_of: Callable[[MemoryCell], float]  # fluxon energy per detection of a cell
    forced_t: list[float]  # drive spikes in (time, drive, position) order
    forced_v: list[int]
    e_source: float
    p_detect: float
    poisson_need: int | None  # photons a stochastic photodiode needs; None otherwise
    dead_time: float
    e_reset: float
    superconducting: bool
    tau_soma: float
    det_count: np.ndarray
    miss_count: np.ndarray
    sup_count: np.ndarray
    write_count: np.ndarray
    detection_times: list[list[float]] | None
    ledger: EnergyLedger
    spikes: SpikeRecord


def _compile(graph: NetworkGraph, config: SimConfig) -> _Compiled:
    """Per-edge arrays, link constants, the forced-spike schedule and zeroed counters."""
    if graph.n == 0:
        raise DomainError("graph must contain at least one neuron")
    n = graph.n
    n_edges = graph.edge_count
    link = config.link
    is_snspd = isinstance(link.receiver, SnspdReceiver)

    e_source = source_energy_per_spike(link).value
    superconducting = config.profile.kind == "superconducting"
    max_fluxons = config.energy.max_fluxons
    if max_fluxons is None:
        max_fluxons = int(fluxon_budget(e_source, config.energy.i_c))
    fluxon_energy = config.energy.i_c * FLUX_QUANTUM.value

    def fluxon_of(cell: MemoryCell) -> float:
        if superconducting and isinstance(cell, LoopMemory):
            return weight_to_fluxon_rate(cell, max_fluxons) * fluxon_energy
        return 0.0

    # Cells are immutable and STDP replaces rather than mutates them, so
    # every edge without an override shares one cell, and its arrays are
    # filled without a pass over the edges.
    defaults = config.synapse
    default_cell = _memory_cell({}, defaults)
    default_sign = -1.0 if defaults.inhibitory else 1.0
    cells: list[MemoryCell] = [default_cell] * n_edges
    sign = np.full(n_edges, default_sign)
    increment = np.full(n_edges, default_sign * default_cell.weight)
    fluxons = np.full(n_edges, fluxon_of(default_cell))
    taus = [defaults.tau]
    if config.synapse_overrides:
        overrides = {tuple(k): v for k, v in config.synapse_overrides.items()}
        overridden = 0
        for e, pair in enumerate(zip(graph.pre.tolist(), graph.post.tolist())):
            ov = overrides.get(pair)
            if ov is not None:
                overridden += 1
                taus.append(ov.get("tau", defaults.tau))
                if not taus[-1] > 0:
                    raise DomainError(f"synapse {e} tau must be positive")
                sign[e] = -1.0 if ov.get("inhibitory", defaults.inhibitory) else 1.0
                cells[e] = _memory_cell(ov, defaults)
                increment[e] = sign[e] * cells[e].weight
                fluxons[e] = fluxon_of(cells[e])
        if 0 < overridden == n_edges:  # no edge keeps the default
            del taus[0]
    tau_soma = config.neuron.tau_soma
    if tau_soma is None:
        tau_soma = float(max(taus))

    # A spike reaching one post neuron twice is handed over one arrival at a time.
    keys = np.sort(graph.pre * n + graph.post)
    repeated_post = np.zeros(n, dtype=bool)
    repeated_post[keys[1:][keys[1:] == keys[:-1]] // n] = True

    times, neurons = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for i, drive in enumerate(config.inputs):
        if not 0 <= drive.neuron < n:
            raise DomainError(f"input drive references unknown neuron {drive.neuron}")
        times.append(drive.schedule(config.duration, substream(config.seed, "input", i)))
        neurons.append(np.full(times[-1].size, drive.neuron, dtype=np.int64))
    times, neurons = np.concatenate(times), np.concatenate(neurons)
    order = np.argsort(times, kind="stable")

    poisson_need = None
    if not is_snspd and link.stochastic:
        poisson_need = math.ceil(implied_photon_count(link.receiver, link.wavelength))
    return _Compiled(
        graph=graph,
        config=config,
        out_edges=graph.out_edge_indices(),
        in_edges=graph.in_edge_indices() if config.plasticity is not None else None,
        repeated_post=repeated_post,
        cells=cells,
        sign=sign,
        increment=increment,
        fluxon_j=fluxons,
        fluxon_of=fluxon_of,
        forced_t=times[order].tolist(),
        forced_v=neurons[order].tolist(),
        e_source=e_source,
        p_detect=link_detection_probability(link),
        poisson_need=poisson_need,
        dead_time=link.receiver.reset_time if is_snspd else 0.0,
        e_reset=snspd_reset_energy(link.receiver.l_spd, link.receiver.i_spd).value if is_snspd else 0.0,
        superconducting=superconducting,
        tau_soma=tau_soma,
        det_count=np.zeros(n_edges, dtype=np.int64),
        miss_count=np.zeros(n_edges, dtype=np.int64),
        sup_count=np.zeros(n_edges, dtype=np.int64),
        write_count=np.zeros(n_edges, dtype=np.int64),
        detection_times=[[] for _ in range(n_edges)] if config.record_detections else None,
        ledger=EnergyLedger(per_neuron_source=np.zeros(n), per_neuron_receiver=np.zeros(n)),
        spikes=SpikeRecord(),
    )


def _loop(c: _Compiled) -> None:
    """Process every event up to the run's duration, in time order.

    Two sources feed the loop: the forced spikes, and a FIFO of
    ``(arrival time, pre neuron)`` batches, one per spike.  The transmit
    delay is uniform, so the FIFO stays in time order; at equal times the
    forced spikes go first.
    """
    config = c.config
    link = config.link
    plasticity = config.plasticity
    rng_detect = substream(config.seed, "detect")
    rng_noise = substream(config.seed, "stdp-noise")
    n, n_edges, post = c.graph.n, c.graph.edge_count, c.graph.post
    out_edges, in_edges, cells = c.out_edges, c.in_edges, c.cells
    sign, increment, fluxon_j = c.sign, c.increment, c.fluxon_j
    membrane, membrane_t, last_spike = np.zeros(n), np.zeros(n), np.full(n, -math.inf)
    last_detection, last_pre_event = np.full(n_edges, -math.inf), np.full(n_edges, -math.inf)
    det_count, miss_count, sup_count, write_count = c.det_count, c.miss_count, c.sup_count, c.write_count
    detection_times = c.detection_times
    ledger, spikes = c.ledger, c.spikes
    counters = ledger.counters
    per_neuron_source, per_neuron_receiver = ledger.per_neuron_source, ledger.per_neuron_receiver
    e_source, e_reset, dead_time = c.e_source, c.e_reset, c.dead_time
    p_detect, poisson_need = c.p_detect, c.poisson_need
    mean_photons = link.mean_photons() if poisson_need is not None else None
    draw_random = poisson_need is None and p_detect < 1.0
    is_snspd = isinstance(link.receiver, SnspdReceiver)
    superconducting = c.superconducting
    tau_soma = c.tau_soma
    threshold = config.neuron.threshold
    refractory = config.neuron.refractory
    delay = config.neuron.transmit_delay
    per_spike_overhead = config.energy.per_spike_overhead
    repeated_post = c.repeated_post

    queue: deque[tuple[float, int]] = deque()
    trace: deque = deque(maxlen=32)

    def fire(v: int, t: float, forced: bool) -> None:
        spikes.neurons.append(v)
        spikes.times.append(t)
        counters.spikes += 1
        if forced:
            counters.forced_spikes += 1
        last_spike[v] = t
        membrane[v] = 0.0
        membrane_t[v] = t
        ledger.soma_overhead += per_spike_overhead
        if plasticity is not None:
            for e in in_edges[v].tolist():
                if last_pre_event[e] > -math.inf:
                    cells[e], applied = apply_stdp(last_pre_event[e], t, cells[e], plasticity, rng_noise)
                    account_write(e, applied)
        fanout = len(out_edges[v])
        if fanout:
            source, own = ledger.source_optical, float(per_neuron_source[v])
            for _ in range(fanout):
                source += e_source
                own += e_source
            ledger.source_optical, per_neuron_source[v] = source, own
            counters.transmissions += fanout
            queue.append((t + delay, v))

    def account_write(e: int, applied: float) -> None:
        if applied == 0.0:
            return
        write_count[e] += 1
        counters.stdp_writes += 1
        cell = cells[e]
        if plasticity.write_energy is not None:
            ledger.memory_update += plasticity.write_energy
        elif isinstance(cell, LoopMemory):
            ledger.memory_update += loop_write_energy(applied, config.energy.i_c)
        increment[e] = sign[e] * cell.weight
        fluxon_j[e] = c.fluxon_of(cell)

    def arrive(t: float, edges: np.ndarray) -> None:
        """Arrivals of one spike at time ``t``, each post neuron hit at most once.

        The result equals handling the arrivals one at a time in edge
        order: each post neuron sees only its own arrival, and a spike or
        STDP write at one post neuron changes only that neuron and its
        in-edges, none of which is a later edge of the batch.
        """
        posts = post[edges]
        # Arrivals come in time order, so a zero dead time (a photodiode's)
        # suppresses nothing.  np.count_nonzero: far cheaper than
        # ndarray.all() on short arrays.
        if dead_time:
            dead = t - last_detection[edges] < dead_time
            n_dead = int(np.count_nonzero(dead))
            if n_dead:
                sup_count[edges[dead]] += 1
                counters.suppressed += n_dead
                edges, posts = edges[~dead], posts[~dead]
        if poisson_need is not None:
            hit = rng_detect.poisson(mean_photons, size=edges.size) >= poisson_need
        elif draw_random:
            hit = rng_detect.random(size=edges.size) < p_detect
        else:
            hit = None
        if hit is not None and np.count_nonzero(hit) < hit.size:
            lost = edges[~hit]
            miss_count[lost] += 1
            counters.misses += lost.size
            edges, posts = edges[hit], posts[hit]
        if not edges.size:
            return
        det_count[edges] += 1
        counters.detections += edges.size
        last_detection[edges] = t
        if detection_times is not None:
            for e in edges.tolist():
                detection_times[e].append(t)
        # One addition per detection, in edge order, so the ledger rounds as
        # it would one arrival at a time.
        if is_snspd:
            reset = ledger.detector_reset
            for _ in range(edges.size):
                reset += e_reset
            ledger.detector_reset = reset
            per_neuron_receiver[posts] += e_reset
        if superconducting:
            emitted = fluxon_j[edges]
            fluxon = ledger.fluxon
            for energy in emitted.tolist():
                fluxon += energy
            ledger.fluxon = fluxon
            per_neuron_receiver[posts] += emitted
        # math.exp, not np.exp: the two can differ in the last bit.
        exponents = ((membrane_t[posts] - t) / tau_soma).tolist()
        decay = np.fromiter(map(math.exp, exponents), dtype=np.float64, count=len(exponents))
        values = membrane[posts] * decay + increment[edges]
        membrane[posts] = values
        membrane_t[posts] = t
        finite = np.isfinite(values)
        if np.count_nonzero(finite) < finite.size:
            v = int(posts[~finite][0])
            raise SimulationError(f"membrane of neuron {v} became non-finite at t={t}", trace)
        above = values >= threshold
        if plasticity is None:
            for v in posts[above].tolist():
                if t - last_spike[v] >= refractory:
                    fire(v, t, forced=False)
            return
        # In edge order: depress the edge if its post neuron has spiked,
        # then fire that neuron if it crossed, so the STDP noise draws keep
        # their order.
        last_pre_event[edges] = t
        for e, v, up in zip(edges.tolist(), posts.tolist(), above.tolist()):
            if last_spike[v] > -math.inf:
                cells[e], applied = apply_stdp(t, last_spike[v], cells[e], plasticity, rng_noise)
                account_write(e, applied)
            if up and t - last_spike[v] >= refractory:
                fire(v, t, forced=False)

    def over_budget() -> SimulationError:
        return SimulationError(
            f"event budget exceeded ({config.max_events} events); raise max_events or shorten the run",
            trace,
        )

    forced_t, forced_v = c.forced_t, c.forced_v
    next_forced = 0
    processed = 0
    while True:
        if next_forced < len(forced_t) and (not queue or forced_t[next_forced] <= queue[0][0]):
            t, v = forced_t[next_forced], forced_v[next_forced]
            next_forced += 1
            processed += 1
            if processed > config.max_events:
                raise over_budget()
            trace.append((t, "forced", v))
            fire(v, t, forced=True)
            continue
        if not queue:
            break
        t, pre = queue.popleft()
        if t > config.duration:
            break
        edges = out_edges[pre]
        # A batch that would cross the budget is cut at it: the events up
        # to the budget run, then the run stops.
        over = processed + edges.size > config.max_events
        if over:
            edges = edges[: config.max_events - processed]
        processed += edges.size
        # A spike that reaches one post neuron twice goes one arrival at a time.
        batches = [edges[i : i + 1] for i in range(edges.size)] if repeated_post[pre] else [edges]
        for batch in batches:
            trace.extend((t, "arrival", e) for e in batch[-trace.maxlen :].tolist())
            arrive(t, batch)
        if over:
            raise over_budget()


def _report(c: _Compiled) -> tuple[SpikeRecord, EnergyLedger, SynapseReport]:
    """Close the ledger over the run and gather the per-synapse report."""
    graph, config, ledger, spikes, cells = c.graph, c.config, c.ledger, c.spikes, c.cells
    n, n_edges = graph.n, graph.edge_count
    # Static leakage integrates over the whole run for biased photodiodes.
    if isinstance(config.link.receiver, ReceiverlessPhotodiode):
        ledger.static_leakage = (
            n_edges * photodiode_static_power(config.link.receiver).value * config.duration
        )

    fanin = np.bincount(graph.post, minlength=n) if n_edges else np.zeros(n, dtype=np.int64)
    estimate = 0.0
    if spikes.neurons:
        spiked, counts_per = np.unique(spikes.neurons, return_counts=True)
        for v, count in zip(spiked, counts_per):
            if fanin[v]:
                estimate += float(count) * math.sqrt(float(fanin[v]))
    report = SynapseReport(
        pre=graph.pre.tolist(),
        post=graph.post.tolist(),
        detections=c.det_count.tolist(),
        misses=c.miss_count.tolist(),
        suppressed=c.sup_count.tolist(),
        writes=c.write_count.tolist(),
        weights=[cell.weight for cell in cells],
        levels=[cell.level if isinstance(cell, LoopMemory) else None for cell in cells],
        degraded=[cell.degraded for cell in cells],
        detection_times=c.detection_times,
        sqrt_fanin_update_estimate=estimate,
    )
    return spikes, ledger, report


def run(graph: NetworkGraph, config: SimConfig) -> tuple[SpikeRecord, EnergyLedger, SynapseReport]:
    """Execute one deterministic simulation run.

    Identical (graph, config) pairs produce bit-identical results: all
    randomness flows from ``config.seed`` through labeled substreams.
    """
    compiled = _compile(graph, config)
    _loop(compiled)
    return _report(compiled)


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
