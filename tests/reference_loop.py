"""The simulator's event loop written one arrival at a time, as a test reference.

``simulator._loop`` handles all arrivals of one spike together with array
operations.  This module handles the same events the plain way: forced
spikes and arrivals merged in time order, and each arrival on its own, in
edge order, with scalar draws from the detection stream.  It runs over the
record ``simulator._compile`` builds and is closed by ``simulator._report``,
so any difference between ``reference_run`` and ``simulator.run`` lies in
how the loop is written.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from oesnn.errors import SimulationError
from oesnn.linkbudget import SnspdReceiver
from oesnn.plasticity import LoopMemory, apply_stdp, loop_write_energy
from oesnn.rng import substream
from oesnn.simulator import _compile, _Compiled, _report


def reference_run(graph, config):
    """``simulator.run`` with the arrival-by-arrival loop below."""
    compiled = _compile(graph, config)
    _reference_loop(compiled)
    return _report(compiled)


def _reference_loop(c: _Compiled) -> None:
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
    ledger, spikes = c.ledger, c.spikes
    counters = ledger.counters
    per_neuron_source, per_neuron_receiver = ledger.per_neuron_source, ledger.per_neuron_receiver
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
                    cells[e], applied = apply_stdp(last_pre_event[e], t, cells[e], plasticity, rng_noise)
                    account_write(e, applied)
        fanout = len(out_edges[v])
        if fanout:
            # One addition per synapse, in order, as the ledger rounds them.
            for _ in range(fanout):
                ledger.source_optical += c.e_source
                per_neuron_source[v] += c.e_source
            counters.transmissions += fanout
            queue.append((t + neuron.transmit_delay, v))

    def account_write(e: int, applied: float) -> None:
        if applied == 0.0:
            return
        c.write_count[e] += 1
        counters.stdp_writes += 1
        cell = cells[e]
        if plasticity.write_energy is not None:
            ledger.memory_update += plasticity.write_energy
        elif isinstance(cell, LoopMemory):
            ledger.memory_update += loop_write_energy(applied, config.energy.i_c)
        increment[e] = sign[e] * cell.weight
        fluxon_j[e] = c.fluxon_of(cell)

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
            c.miss_count[e] += 1
            counters.misses += 1
            return
        c.det_count[e] += 1
        counters.detections += 1
        last_detection[e] = t
        if c.detection_times is not None:
            c.detection_times[e].append(t)
        if is_snspd:
            ledger.detector_reset += c.e_reset
            per_neuron_receiver[v] += c.e_reset
        if c.superconducting:
            ledger.fluxon += float(fluxon_j[e])
            per_neuron_receiver[v] += fluxon_j[e]
        pulse = increment[e]
        if plasticity is not None:
            if last_spike[v] > -math.inf:
                cells[e], applied = apply_stdp(t, last_spike[v], cells[e], plasticity, rng_noise)
                account_write(e, applied)
            last_pre_event[e] = t
        dt = t - membrane_t[v]
        if dt > 0:
            membrane[v] *= math.exp(-dt / c.tau_soma)
            membrane_t[v] = t
        membrane[v] += pulse
        if not math.isfinite(membrane[v]):
            raise SimulationError(f"membrane of neuron {v} became non-finite at t={t}", trace)
        if membrane[v] >= neuron.threshold and t - last_spike[v] >= neuron.refractory:
            fire(v, t, forced=False)

    def count_event() -> None:
        nonlocal processed
        processed += 1
        if processed > config.max_events:
            raise SimulationError(
                f"event budget exceeded ({config.max_events} events); raise max_events or shorten the run",
                trace,
            )

    next_forced = 0
    processed = 0
    while True:
        if next_forced < len(c.forced_t) and (not queue or c.forced_t[next_forced] <= queue[0][0]):
            t, v = c.forced_t[next_forced], c.forced_v[next_forced]
            next_forced += 1
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
