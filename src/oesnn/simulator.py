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
transmit delay is one constant, so arrivals come in time order: each spike
of a neuron with out-edges is one batch of arrivals one delay later, so the
loop merges the drives' lazy spike trains with a cursor over the spike
record, and at equal times the forced spikes go first.  A batch of fewer
than ``_SCALAR_BATCH`` edges is handled one arrival at a time in edge order,
on scalar views of the run's arrays; a larger one with array operations
that reproduce that, bit for bit, STDP writes included.  A graph holds each
(pre, post) pair once, so a spike reaches each post neuron at most once.
The loop alone enforces the event budget: it cuts a batch that would
exceed it, and a train is drawn only as far as the loop reads it.  An STDP
write that faults stops the run.

Synaptic memory is kept as per-edge columns (level, weight, write count,
degraded flag and parameter group, see ``plasticity.MemoryColumns``), and
STDP writes one edge at a time with scalar arithmetic on them.  Detection
outcomes are drawn ahead in chunks and used in order.  The loop records
events and nothing else: the spikes, per-edge counts of detections,
suppressions and writes, and the loop-memory levels STDP moved.  An edge's
misses are the batches of its pre neuron less its detections and
suppressions.  Its fluxons are its detections times the fluxons per
detection of its final weight, plus a correction STDP adds when it moves
that rate.

Model conventions (everything below is exact for the event sequence):
 - threshold crossings are evaluated at detection events;
 - externally driven spikes fire unconditionally (they model suprathreshold
   stimulation) and transmit like any other spike;
 - every energy category is an event count times a fixed energy per
   event, priced once when the run is reported; cold categories are
   inflated by the platform's specific power to give wall energy.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from array import array
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import itemgetter
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
from .plasticity import MemoryColumns, StdpParams, loop_write_energy
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

    Exactly one of ``times`` (explicit schedule), ``rate`` (Poisson), or ``count``+``interval``
    (uniform train) must be given; ``start`` delays a rate or count train.
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
        if (self.count is None) != (self.interval is None):
            raise DomainError("count and interval go together")
        if self.times is not None and self.start != 0:
            raise DomainError("times drives take no start")

    def spikes(self, duration: float, rng) -> Iterator[float]:
        """The drive's spike times in order, up to the first one past ``duration``.

        A ``rate`` train is drawn in chunks of its expected count plus six standard deviations, each chunk's
        times its first time plus the running sum of its gaps, drawn and summed ``_DRAW_CHUNK`` gaps at a time.
        """
        if self.times is not None:
            train = sorted(self.times)
        elif self.count is not None:
            train = (self.start + k * self.interval for k in range(self.count))
        else:
            train = self._poisson(duration, rng) if self.rate and self.start <= duration else ()
        return itertools.takewhile(lambda t: t <= duration, map(float, train))

    def _poisson(self, duration: float, rng) -> Iterator[float]:
        expected = self.rate * (duration - self.start)
        draws = int(min(expected + 6 * math.sqrt(expected + 1) + 16, 2**63))  # an inf expectation too
        first = self.start
        while True:
            total = 0.0
            for done in range(0, draws, _DRAW_CHUNK):
                gaps = rng.exponential(1.0 / self.rate, size=min(_DRAW_CHUNK, draws - done))
                gaps[0] += total  # the sum runs on, as over [total, *gaps]
                total = np.cumsum(gaps, out=gaps)[-1]
                yield from (first + gaps).tolist()
            first += total


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs besides the graph itself."""

    duration: float = bounded(gt=0, lt=math.inf)  # s; finite, so every event time and membrane is too
    seed: int = bounded(ge=0, lt=2**64)
    link: OpticalLink
    profile: PlatformProfile = SUPERCONDUCTING_4K
    neuron: NeuronParams = NeuronParams()
    synapse: SynapseDefaults = SynapseDefaults()
    synapse_overrides: dict = field(default_factory=dict)  # edge index -> {field: value}, for that edge only
    plasticity: StdpParams | None = None
    inputs: tuple[InputDrive, ...] = ()
    energy: EnergyParams = EnergyParams()
    max_events: int = bounded(10_000_000, ge=0)

    def __post_init__(self):
        check_bounds(self)
        try:
            self.max_fluxons()
        except DomainError as exc:
            raise DomainError(f"link.n_ph, link.eta and energy.i_c: {exc}; set energy.max_fluxons") from None

    def max_fluxons(self) -> float:
        """Fluxons a detection emits at weight 1: ``energy.max_fluxons``, else the floor of the optical budget."""
        if self.profile.kind != "superconducting":
            return 0.0
        if self.energy.max_fluxons is not None:
            return float(self.energy.max_fluxons)
        return float(int(fluxon_budget(source_energy_per_spike(self.link).value, self.energy.i_c)))


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
    """Per-category energy of a run, all joules.

    ``_report`` prices each category once, as an event count times its
    energy per event.  Cold categories dissipate at the device stage and
    are inflated by the platform's specific power; static leakage is
    counted at room temperature.  Every category is non-negative.
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
    """Each spike's neuron and time, in the order the run fired them, as typed arrays: 16 bytes a spike."""

    neurons: array = field(default_factory=lambda: array("q"))
    times: array = field(default_factory=lambda: array("d"))

    def __len__(self):
        return len(self.neurons)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("neuron_id,time_s\n")
            # One join per block: a join over every row would hold one string per spike at once.
            for start in range(0, len(self), 1024):
                rows = zip(self.neurons[start : start + 1024], self.times[start : start + 1024])
                fh.write("".join([f"{n},{t!r}\n" for n, t in rows]))


@dataclass(eq=False)
class SynapseReport:
    """Per-synapse counters and final memory state, plus the update-count estimate.

    Every per-edge value is an array: the counters are the run's, and ``memory`` holds the final
    memory columns.
    """

    pre: np.ndarray
    post: np.ndarray
    detections: np.ndarray
    misses: np.ndarray
    suppressed: np.ndarray
    writes: np.ndarray
    memory: MemoryColumns
    sqrt_fanin_update_estimate: float = 0.0  # accounting rule: spikes * sqrt(fan-in)

    KEYS = ("pre", "post", "detections", "misses", "suppressed", "writes", "weight", "level", "degraded")
    MEMORY_KEYS = ("weight", "level", "degraded")  # a row's values of its memory cell

    def values(self, key: str) -> list:
        """Each edge's ``key`` as a row holds it: ``level`` is None for analog memory."""
        values = getattr(self.memory if key in self.MEMORY_KEYS else self, key).tolist()
        return [None if v < 0 else v for v in values] if key == "level" else values

    def as_dict(self) -> dict:
        columns = [self.values(k) for k in self.KEYS]
        return {
            "synapses": [dict(zip(self.KEYS, row)) for row in zip(*columns)],
            "sqrt_fanin_update_estimate": self.sqrt_fanin_update_estimate,
        }


def _initial_memory(syn: SynapseDefaults, level: int | None) -> tuple[tuple[int, float, float], int, float]:
    """Parameter group, level (-1 for analog) and weight of a synapse's memory; loop memory takes ``level`` if given."""
    if syn.memory_kind == "loop":
        max_level = 2**syn.bits - 1
        level = round(syn.weight * max_level) if level is None else int(level)
        if not 0 <= level <= max_level:
            raise DomainError(f"level must lie in [0, {max_level}], got {level}")
        return (max_level, 0.0, math.inf), level, level / max_level
    if level is not None:
        raise DomainError("level: only loop memory takes a level")
    return (0, syn.write_noise_std, syn.endurance), -1, float(syn.weight)


def _fluxon_rate(level, weight, max_fluxons: float):
    """Fluxons a detection emits: the weight's share of ``max_fluxons`` for loop memory (level >= 0), as float64."""
    return np.rint(weight * max_fluxons) * (level >= 0)


@dataclass(eq=False)
class _Compiled:
    """One run's per-edge arrays, link constants, lazy forced-spike stream, and the event counts the loop fills.

    ``increment`` (sign times weight) follows ``memory``: STDP sets it
    again whenever it writes an edge.  ``fluxon_correction`` is what each
    edge's fluxons differ from its detections at its final rate.
    """

    graph: NetworkGraph
    config: SimConfig
    out_edges: list[np.ndarray]
    in_edges: list[np.ndarray] | None
    memory: MemoryColumns
    sign: np.ndarray
    increment: np.ndarray
    max_fluxons: float  # fluxons per detection at weight 1; 0 off superconducting platforms
    fluxon_energy: float
    forced: Iterator[tuple[float, int]]  # (time, neuron) of the drive spikes in (time, drive, position) order
    e_source: float
    p_detect: float  # a single-photon link's; 1.0 for a photodiode, which draws against poisson_need
    poisson_need: int | None  # photons a stochastic photodiode needs; None otherwise
    dead_time: float
    e_reset: float
    tau_soma: float
    det_count: np.ndarray
    sup_count: np.ndarray
    write_count: np.ndarray
    fluxon_correction: np.ndarray  # float64 whole values
    spikes: SpikeRecord
    levels_moved: int = 0  # loop-memory levels STDP moved, over all writes
    forced_spikes: int = 0  # the ones the loop has taken from ``forced``


def _compile(graph: NetworkGraph, config: SimConfig) -> _Compiled:
    """Per-edge arrays, built from each distinct override once, link constants, the forced spikes and zeroed counts."""
    n_edges = graph.edge_count
    link = config.link
    is_snspd = isinstance(link.receiver, SnspdReceiver)

    defaults, overrides = config.synapse, config.synapse_overrides
    for e in overrides:
        if isinstance(e, bool) or not isinstance(e, (int, np.integer)) or not 0 <= e < n_edges:
            raise DomainError(f"synapse override {e!r} names no edge: keys are edge indices in [0, {n_edges})")
    # Row 0 is the defaults and each distinct override a row, built at its first edge: bounds are checked in
    # edge order.  A row is keyed by the override's repr, since -0.0 == 0.0 but a weight keeps its sign.
    edges, groups, rows, row_of, which = sorted(overrides), {}, [], {}, []
    for e, ov in [(None, {}), *((e, overrides[e]) for e in edges)]:
        which.append(row_of.setdefault(repr(ov), len(row_of)))
        if which[-1] == len(rows):  # not built yet
            try:
                syn = dataclasses.replace(defaults, **{k: v for k, v in ov.items() if k != "level"})
                memory_key, lvl, w = _initial_memory(syn, ov.get("level"))
            except (DomainError, TypeError) as exc:  # a bound, or an unknown key or a bad type
                raise DomainError(f"synapse {e} {exc}") from None
            rows.append((groups.setdefault(memory_key, len(groups)), lvl, w, -1.0 if syn.inhibitory else 1.0, syn.tau))
    row = np.zeros(n_edges, dtype=np.intp)  # each edge's row
    row[edges] = which[1:]
    *columns, taus = zip(*rows)
    group, level, weight, sign = (np.array(column)[row] for column in columns)
    # The slowest tau of the rows in use; an edgeless graph uses none, and keeps the default.
    taus = [taus[i] for i in np.flatnonzero(np.bincount(row, minlength=len(rows))).tolist()] or [defaults.tau]
    tau_soma = float(max(taus)) if config.neuron.tau_soma is None else config.neuron.tau_soma

    trains = []
    for i, drive in enumerate(config.inputs):
        if not 0 <= drive.neuron < graph.n:
            raise DomainError(f"input drive references unknown neuron {drive.neuron}")
        train = drive.spikes(config.duration, substream(config.seed, "input", i))
        trains.append(zip(train, itertools.repeat(drive.neuron)))

    poisson_need = None
    if not is_snspd and link.stochastic:
        poisson_need = math.ceil(implied_photon_count(link.receiver, link.wavelength))
    return _Compiled(
        graph=graph,
        config=config,
        out_edges=graph.out_edge_indices(),
        in_edges=graph.in_edge_indices() if config.plasticity is not None else None,
        memory=MemoryColumns(
            level=level,
            weight=weight,
            writes=np.zeros(n_edges, dtype=np.int64),
            degraded=np.zeros(n_edges, dtype=bool),
            group=group,
            groups=list(groups),
        ),
        sign=sign,
        increment=sign * weight,
        max_fluxons=config.max_fluxons(),
        fluxon_energy=config.energy.i_c * FLUX_QUANTUM.value,
        forced=heapq.merge(*trains, key=itemgetter(0)),  # stable: at equal times, drives keep their order
        e_source=source_energy_per_spike(link).value,
        p_detect=link_detection_probability(link) if is_snspd else 1.0,
        poisson_need=poisson_need,
        dead_time=link.receiver.reset_time if is_snspd else 0.0,
        e_reset=snspd_reset_energy(link.receiver.l_spd, link.receiver.i_spd).value if is_snspd else 0.0,
        tau_soma=tau_soma,
        det_count=np.zeros(n_edges, dtype=np.int64),
        sup_count=np.zeros(n_edges, dtype=np.int64),
        write_count=np.zeros(n_edges, dtype=np.int64),
        fluxon_correction=np.zeros(n_edges),
        spikes=SpikeRecord(),
    )


_DRAW_CHUNK = 4096  # random values drawn at a time: detection outcomes, and a rate drive's gaps
_TRACE_EVENTS = 32  # events an error reports
# Batches of fewer edges take the scalar handler.  The scalar handler pays
# no fixed NumPy cost per batch but more per edge: it is the faster one up
# to about 20 edges without plasticity and about 50 with STDP, and at 32
# neither is more than about 1.3x slower than the other.  The benchmark's
# stdp-semi batches (1 to 24 edges) and fanout-sc batches (62 to 141 edges)
# fall on either side, so each handler is measured.
_SCALAR_BATCH = 32


def _loop(c: _Compiled) -> None:
    """Process every event up to the run's duration, in time order, and count them into ``c``.

    Two sources feed the loop: the forced-spike stream, and a cursor over the
    spike record, where each spike of a neuron with out-edges is one batch
    of arrivals one transmit delay later.  The delay is uniform, so the
    batches come in time order; at equal times the forced spikes go first.

    Two handlers take the batches and give the same bytes: ``arrive_each``,
    one arrival at a time on memoryviews of the run's arrays, takes a batch
    of fewer than ``_SCALAR_BATCH`` edges, and ``arrive``, with array
    operations whose fixed cost only a larger batch repays, takes the rest.
    Both share the state, the detection stream, ``fire`` and ``stdp_write``,
    and the budget is enforced before either runs.

    A batch is only counted, and no membrane is checked: event times are at most the finite
    duration, so each decay lies in [0, 1], each increment in [-1, 1], and no membrane leaves float range.
    """
    config = c.config
    link = config.link
    plasticity = config.plasticity
    rng_detect = substream(config.seed, "detect")
    rng_noise = substream(config.seed, "stdp-noise")
    n, n_edges, post = c.graph.n, c.graph.edge_count, c.graph.post
    out_edges, in_edges, memory = c.out_edges, c.in_edges, c.memory
    increment = c.increment
    membrane, membrane_t, last_spike = np.zeros(n), np.zeros(n), np.full(n, -math.inf)
    det_count, sup_count = c.det_count, c.sup_count
    neurons, times = c.spikes.neurons, c.spikes.times
    dead_time, max_fluxons = c.dead_time, c.max_fluxons
    # Only a dead time reads the last detection, and only STDP the last arrival.
    last_detection = np.full(n_edges, -math.inf) if dead_time else None
    last_pre_event = np.full(n_edges, -math.inf) if plasticity is not None else None
    # Scalar views of the same arrays, named with a trailing underscore: an
    # item is a Python float or int, at half the cost of a NumPy scalar.
    membrane_, membrane_t_, last_spike_ = map(memoryview, (membrane, membrane_t, last_spike))
    det_count_, sup_count_, write_count_ = map(memoryview, (det_count, sup_count, c.write_count))
    increment_, sign_, weight_, level_ = map(memoryview, (increment, c.sign, memory.weight, memory.level))
    last_detection_ = memoryview(last_detection) if dead_time else None
    last_pre_event_ = memoryview(last_pre_event) if plasticity is not None else None
    stochastic = c.poisson_need is not None or c.p_detect < 1.0
    # Nothing else reads the detect stream, and a chunked draw gives the
    # values of one long draw, so outcomes are drawn ahead and used in order.
    pool, used = np.empty(0, dtype=bool), 0
    tau_soma, delay = c.tau_soma, config.neuron.transmit_delay
    threshold, refractory = config.neuron.threshold, config.neuron.refractory

    # The last events: one entry per forced spike and one per batch, made
    # one entry per event only when an error reports them.
    trace: deque = deque(maxlen=_TRACE_EVENTS)

    def tail() -> list:
        events = []
        for t, kind, what in trace:
            batch = kind == "arrivals"
            events += [(t, "arrival", e) for e in what[-_TRACE_EVENTS:].tolist()] if batch else [(t, kind, what)]
        return events[-_TRACE_EVENTS:]

    def fire(v: int, t: float) -> None:
        neurons.append(v)
        times.append(t)
        last_spike_[v] = t
        membrane_[v] = 0.0
        membrane_t_[v] = t
        if plasticity is not None:
            for e in in_edges[v].tolist():
                if last_pre_event_[e] > -math.inf:
                    stdp_write(e, last_pre_event_[e], t)

    def stdp_write(e: int, pre_t: float, post_t: float) -> None:
        """Apply the STDP pairing of edge ``e`` to its memory and count the write."""
        old_weight = weight_[e]
        try:
            applied = memory.write(e, pre_t, post_t, plasticity, rng_noise)
        except DomainError as exc:  # an analog cell out of endurance, with on_exhaustion "fault"
            t, kind, what = trace[-1]
            if kind == "arrivals":  # the batch ran up to its arrival at post[e], the one being handled
                trace[-1] = (t, kind, what[: int(np.flatnonzero(post[what] == post[e])[0]) + 1])
            raise SimulationError(f"synapse {e}: {exc}", tail()) from None
        if applied == 0.0:
            return
        write_count_[e] += 1
        weight, level = weight_[e], level_[e]
        increment_[e] = sign_[e] * weight
        if level >= 0:
            c.levels_moved += abs(int(applied))
            if max_fluxons:  # the detections so far emitted the old rate; _report prices them at the final one
                old, new = _fluxon_rate(level, old_weight, max_fluxons), _fluxon_rate(level, weight, max_fluxons)
                c.fluxon_correction[e] += det_count_[e] * (old - new)

    def detected(k: int) -> np.ndarray:
        """The next ``k`` detection outcomes of the stream."""
        nonlocal pool, used
        if used + k > pool.size:
            size = max(k, _DRAW_CHUNK)
            if c.poisson_need is not None:
                drawn = rng_detect.poisson(link.mean_photons(), size=size) >= c.poisson_need
            else:
                drawn = rng_detect.random(size=size) < c.p_detect
            pool, used = np.concatenate([pool[used:], drawn]), 0
        used += k
        return pool[used - k : used]

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
            if np.count_nonzero(dead):
                sup_count[edges[dead]] += 1
                edges, posts = edges[~dead], posts[~dead]
        if stochastic:
            hit = detected(edges.size)
            if np.count_nonzero(hit) < hit.size:  # each edge's misses follow from its batches in _report
                edges, posts = edges[hit], posts[hit]
        if not edges.size:
            return
        det_count[edges] += 1
        if dead_time:
            last_detection[edges] = t
        # math.exp, not np.exp: the two can differ in the last bit.
        exponents = ((membrane_t[posts] - t) / tau_soma).tolist()
        decay = np.fromiter(map(math.exp, exponents), dtype=np.float64, count=len(exponents))
        values = membrane[posts] * decay + increment[edges]
        membrane[posts] = values
        membrane_t[posts] = t
        above = values >= threshold
        if plasticity is None:
            for v in posts[above].tolist():
                if t - last_spike_[v] >= refractory:
                    fire(v, t)
            return
        # In edge order: depress the edge if its post neuron has spiked,
        # then fire that neuron if it crossed, so the STDP noise draws keep
        # their order.
        last_pre_event[edges] = t
        for e, v, up in zip(edges.tolist(), posts.tolist(), above.tolist()):
            if last_spike_[v] > -math.inf:
                stdp_write(e, t, last_spike_[v])
            if up and t - last_spike_[v] >= refractory:
                fire(v, t)

    def arrive_each(t: float, edges: np.ndarray) -> None:
        """The arrivals of ``arrive``, one at a time in edge order on the scalar views.

        As in ``arrive``, detection outcomes are drawn only for the arrivals
        the dead time leaves.
        """
        batch = zip(edges.tolist(), post[edges].tolist())
        if dead_time:
            live = []
            for e, v in batch:
                if t - last_detection_[e] < dead_time:
                    sup_count_[e] += 1
                else:
                    live.append((e, v))
            batch = live
        if stochastic:
            batch = list(batch)
            batch = itertools.compress(batch, detected(len(batch)).tolist())
        for e, v in batch:
            det_count_[e] += 1
            if dead_time:
                last_detection_[e] = t
            value = membrane_[v] * math.exp((membrane_t_[v] - t) / tau_soma) + increment_[e]
            membrane_[v] = value
            membrane_t_[v] = t
            if plasticity is not None:
                last_pre_event_[e] = t
                if last_spike_[v] > -math.inf:
                    stdp_write(e, t, last_spike_[v])
            if value >= threshold and t - last_spike_[v] >= refractory:
                fire(v, t)

    def over_budget() -> SimulationError:
        return SimulationError(
            f"event budget exceeded ({config.max_events} events); raise max_events or shorten the run",
            tail(),
        )

    t_forced, v_forced = next(c.forced, (math.inf, -1))
    next_batch = processed = 0
    while True:
        # A spike of a neuron without out-edges is no batch.
        while next_batch < len(neurons) and not out_edges[neurons[next_batch]].size:
            next_batch += 1
        arrival = times[next_batch] + delay if next_batch < len(neurons) else math.inf
        # Every forced spike lies within the run; the spent stream's inf does not.
        if t_forced <= arrival and t_forced <= config.duration:
            t, v = t_forced, v_forced
            t_forced, v_forced = next(c.forced, (math.inf, -1))
            c.forced_spikes += 1
            processed += 1
            if processed > config.max_events:
                raise over_budget()
            trace.append((t, "forced", v))
            fire(v, t)
            continue
        if arrival > config.duration:
            break
        edges = out_edges[neurons[next_batch]]
        next_batch += 1
        # A batch that would cross the budget is cut at it: the events up
        # to the budget run, then the run stops.
        over = processed + edges.size > config.max_events
        if over:
            edges = edges[: config.max_events - processed]
        processed += edges.size
        if edges.size:  # a batch cut to nothing would push a real event out of the trace
            trace.append((arrival, "arrivals", edges))
        (arrive_each if edges.size < _SCALAR_BATCH else arrive)(arrival, edges)
        if over:
            raise over_budget()


def _report(c: _Compiled) -> tuple[SpikeRecord, EnergyLedger, SynapseReport]:
    """Price the run's event counts into the energy ledger and gather the per-synapse report."""
    graph, config, spikes = c.graph, c.config, c.spikes
    n = graph.n
    neurons = np.asarray(spikes.neurons, dtype=np.int64)
    fired = np.bincount(neurons, minlength=n)
    sent = fired * np.bincount(graph.pre, minlength=n)  # transmissions of each neuron
    # The loop delivers each spike's batch if it arrives within the run, and
    # every arrival of a batch is detected, suppressed or missed.
    arrived = np.asarray(spikes.times) + config.neuron.transmit_delay <= config.duration
    batches = np.bincount(neurons[arrived], minlength=n)
    fanin = np.bincount(graph.post, minlength=n)
    estimate = 0.0
    for v in np.flatnonzero(fired).tolist():
        estimate += int(fired[v]) * math.sqrt(fanin[v])
    report = SynapseReport(
        pre=graph.pre,
        post=graph.post,
        detections=c.det_count,
        misses=batches[graph.pre] - c.det_count - c.sup_count,
        suppressed=c.sup_count,
        writes=c.write_count,
        memory=c.memory,
        sqrt_fanin_update_estimate=estimate,
    )
    counters = Counters(
        spikes=len(spikes),
        forced_spikes=c.forced_spikes,
        transmissions=int(sent.sum()),
        detections=int(c.det_count.sum()),
        misses=int(report.misses.sum()),
        suppressed=int(c.sup_count.sum()),
        stdp_writes=int(c.write_count.sum()),
    )
    write_energy = getattr(config.plasticity, "write_energy", None)
    if write_energy is None:
        memory_update = loop_write_energy(c.levels_moved, config.energy.i_c)
    else:
        memory_update = counters.stdp_writes * write_energy
    # Each edge's detections priced at its final rate, corrected by what STDP moved it from.
    fluxons = c.det_count * _fluxon_rate(c.memory.level, c.memory.weight, c.max_fluxons) + c.fluxon_correction
    static_leakage = 0.0
    if isinstance(config.link.receiver, ReceiverlessPhotodiode):  # the bias leaks over the whole run
        static_leakage = graph.edge_count * photodiode_static_power(config.link.receiver).value * config.duration
    ledger = EnergyLedger(
        source_optical=counters.transmissions * c.e_source,
        detector_reset=counters.detections * c.e_reset,
        fluxon=float(fluxons.sum()) * c.fluxon_energy,
        memory_update=memory_update,
        soma_overhead=counters.spikes * config.energy.per_spike_overhead,
        static_leakage=static_leakage,
        counters=counters,
        per_neuron_source=sent * c.e_source,
        per_neuron_receiver=np.bincount(graph.post, weights=c.det_count, minlength=n) * c.e_reset
        + np.bincount(graph.post, weights=fluxons, minlength=n) * c.fluxon_energy,
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
) -> PowerReport:
    """Average cold/wall power with density and budget comparisons.

    The density check divides per-synapse on-chip (cold) power by the
    synapse footprint; the budget check uses cooling-inflated wall power.
    When the network shape is supplied, the report also states the maximum
    average rate the budget supports at the observed per-event wall energy,
    at the mean fan-out ``n_synapses / n_neurons``.
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
        if n_neurons and n_synapses and ledger.counters.transmissions:
            e_wall_per_event = ledger.wall_total(profile) / ledger.counters.transmissions
            predicted = max_average_spike_rate(budget, n_neurons, n_synapses / n_neurons, e_wall_per_event).value
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
