"""The simulator's event loop written one arrival at a time, as a test reference.

``simulator._loop`` handles the arrivals of one spike together, one at a
time on memoryviews in a plastic run or a batch of fewer than
``simulator._SCALAR_BATCH`` edges, else with array operations; it writes
STDP on per-edge memory columns, and only counts events:
``simulator._report`` derives each edge's misses and prices the energy
ledger from the counts.  This module handles the
same events the plain way: forced spikes and arrivals merged in time order
through a queue, each arrival on its own, in edge order, with scalar draws
from the detection stream, on one scalar memory cell per edge that
``apply_stdp`` of ``reference_memory`` replaces, with each edge's misses
counted as they happen, and with live counters and an energy ledger that
adds each event's energy as it happens, fluxons at each edge's rate of the
time.  A write that faults raises ``SimulationError`` naming the synapse,
as ``run()`` does.  It runs over the record ``simulator._compile`` builds
and fills the same event counts, writes its final cells back into the
memory columns, and is closed by ``simulator._report``, whose spikes and
synapse report it returns with its own ledger, so the priced ledger of
``run()`` can be checked against the per-event one.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from oesnn.errors import DomainError, SimulationError
from oesnn.linkbudget import ReceiverlessPhotodiode, SnspdReceiver, photodiode_static_power
from oesnn.plasticity import loop_write_energy
from oesnn.rng import substream
from oesnn.simulator import EnergyLedger, SynapseDefaults, _compile, _Compiled, _report
from reference_memory import AnalogMemory, LoopMemory, MemoryCell, apply_stdp, weight_to_fluxon_rate


def reference_run(graph, config):
    """``simulator.run`` with the arrival-by-arrival loop below, its own per-edge misses and its own ledger."""
    compiled = _compile(graph, config)
    _, misses, ledger = _reference_loop(compiled)
    spikes, _, report = _report(compiled)
    report.misses = misses
    return spikes, ledger, report


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


def initial_cells(graph, config) -> list[MemoryCell]:
    """Every edge's initial memory cell; cells are immutable, so edges without an override share one."""
    overrides = config.synapse_overrides
    default = _memory_cell({}, config.synapse)
    return [_memory_cell(overrides[e], config.synapse) if e in overrides else default for e in range(graph.edge_count)]


def _reference_loop(c: _Compiled) -> tuple[list[MemoryCell], np.ndarray, EnergyLedger]:
    """Run the events, store the final cells in ``c.memory`` too, and return them, each edge's misses and the ledger."""
    config = c.config
    link = config.link
    plasticity = config.plasticity
    rng_detect = substream(config.seed, "detect")
    rng_noise = substream(config.seed, "stdp-noise")
    n, n_edges, post = c.graph.n, c.graph.edge_count, c.graph.post
    out_edges, in_edges = c.out_edges, c.in_edges
    cells = initial_cells(c.graph, config)
    superconducting = config.profile.kind == "superconducting"

    def fluxon_rate(cell: MemoryCell) -> int:
        loop = superconducting and isinstance(cell, LoopMemory)
        return weight_to_fluxon_rate(cell, c.max_fluxons) if loop else 0

    sign, increment = c.sign, c.increment
    rates = [fluxon_rate(cell) for cell in cells]
    membrane, membrane_t, last_spike = np.zeros(n), np.zeros(n), np.full(n, -math.inf)
    last_detection, last_pre_event = np.full(n_edges, -math.inf), np.full(n_edges, -math.inf)
    misses = np.zeros(n_edges, dtype=np.int64)
    spikes = c.spikes
    ledger = EnergyLedger(per_neuron_source=np.zeros(n), per_neuron_receiver=np.zeros(n))
    counters = ledger.counters
    per_neuron_source, per_neuron_receiver = ledger.per_neuron_source, ledger.per_neuron_receiver
    if isinstance(link.receiver, ReceiverlessPhotodiode):
        ledger.static_leakage = n_edges * photodiode_static_power(link.receiver).value * config.duration
    mean_photons = link.mean_photons() if c.poisson_need is not None else None
    draw_random = c.poisson_need is None and c.p_detect < 1.0
    is_snspd = isinstance(link.receiver, SnspdReceiver)
    neuron = config.neuron

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
        ledger.soma_overhead += config.energy.per_spike_overhead
        if plasticity is not None:
            for e in in_edges[v].tolist():
                if last_pre_event[e] > -math.inf:
                    stdp_write(e, last_pre_event[e], t)
        fanout = len(out_edges[v])
        if fanout:
            # One addition per synapse, in order, as the ledger rounds them.
            for _ in range(fanout):
                ledger.source_optical += c.e_source
                per_neuron_source[v] += c.e_source
            counters.transmissions += fanout
            queue.append((t + neuron.transmit_delay, v))

    def stdp_write(e: int, pre_t: float, post_t: float) -> None:
        """Apply one pairing to the cell of edge ``e``, and account the write if the cell counts one."""
        old = cells[e]
        try:
            cells[e], applied = apply_stdp(pre_t, post_t, old, plasticity, rng_noise)
        except DomainError as exc:  # an analog cell out of endurance, with on_exhaustion "fault"
            raise SimulationError(f"synapse {e}: {exc}", trace) from None
        cell = cells[e]
        if cell.write_count == old.write_count:
            return
        counters.stdp_writes += 1
        if isinstance(cell, LoopMemory):
            c.levels_moved += abs(int(applied))
        if plasticity.write_energy is not None:
            ledger.memory_update += plasticity.write_energy
        elif isinstance(cell, LoopMemory):
            ledger.memory_update += loop_write_energy(applied, config.energy.i_c)
        increment[e] = sign[e] * cell.weight
        rates[e] = fluxon_rate(cell)

    def arrive(e: int, v: int, t: float) -> None:
        """One arrival on edge ``e`` into neuron ``v``."""
        if t - last_detection[e] < c.dead_time:
            c.sup_count[e] += 1
            counters.suppressed += 1
            return
        if c.poisson_need is not None:
            detected = int(rng_detect.poisson(mean_photons)) >= c.poisson_need
        elif draw_random:
            detected = bool(rng_detect.random() < c.p_detect)
        else:
            detected = True
        if not detected:
            misses[e] += 1
            counters.misses += 1
            return
        c.det_count[e] += 1
        counters.detections += 1
        last_detection[e] = t
        if is_snspd:
            ledger.detector_reset += c.e_reset
            per_neuron_receiver[v] += c.e_reset
        if rates[e]:
            ledger.fluxon += rates[e] * c.fluxon_energy
            per_neuron_receiver[v] += rates[e] * c.fluxon_energy
        pulse = increment[e]
        if plasticity is not None:
            if last_spike[v] > -math.inf:
                stdp_write(e, t, last_spike[v])
            last_pre_event[e] = t
        dt = t - membrane_t[v]
        if dt > 0:
            membrane[v] *= math.exp(-dt / c.tau_soma)
            membrane_t[v] = t
        membrane[v] += pulse
        if membrane[v] >= neuron.threshold and t - last_spike[v] >= neuron.refractory:
            fire(v, t, forced=False)

    def count_event() -> None:
        nonlocal processed
        processed += 1
        if processed > config.max_events:
            raise SimulationError(
                f"event budget exceeded ({config.max_events} events); shorten the run's duration or thin its inputs",
                trace,
            )

    t_forced, v_forced = next(c.forced, (math.inf, None))
    processed = 0
    while True:
        if v_forced is not None and (not queue or t_forced <= queue[0][0]):
            t, v = t_forced, v_forced
            t_forced, v_forced = next(c.forced, (math.inf, None))
            count_event()
            trace.append((t, "forced", v))
            fire(v, t, forced=True)
            continue
        if not queue:
            break
        t, pre = queue.popleft()
        if t > config.duration:
            break
        for e in out_edges[pre].tolist():
            count_event()
            trace.append((t, "arrival", e))
            arrive(e, int(post[e]), t)
    write_back(cells, c.memory)
    return cells, misses, ledger


def write_back(cells: list[MemoryCell], memory) -> None:
    """Store each edge's cell in the memory columns."""
    for e, cell in enumerate(cells):
        memory.level[e] = cell.level if isinstance(cell, LoopMemory) else -1
        memory.weight[e] = cell.weight
        memory.writes[e] = cell.write_count
        memory.degraded[e] = cell.degraded
