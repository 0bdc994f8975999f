import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oesnn import simulator
from oesnn.config import build_scenario
from oesnn.errors import DomainError, SimulationError
from oesnn.linkbudget import OpticalLink, ReceiverlessPhotodiode, SnspdReceiver, link_detection_probability
from oesnn.netgen import NetworkGraph, generate_er
from oesnn.plasticity import StdpParams
from oesnn.platforms import SEMICONDUCTOR_300K, SUPERCONDUCTING_4K
from oesnn.quantities import CONSTANTS, photon_energy
from oesnn.rng import substream
from oesnn.simulator import (
    EnergyParams,
    InputDrive,
    NeuronParams,
    SimConfig,
    SynapseDefaults,
    _compile,
    power_report,
    run,
)
from reference_loop import _reference_loop, reference_run
from reference_memory import LoopMemory
from test_golden import ER_SCENARIOS


def two_input_graph():
    return NetworkGraph(n=3, pre=np.array([0, 1]), post=np.array([2, 2]))


def chain_graph():
    return NetworkGraph(n=2, pre=np.array([0]), post=np.array([1]))


def fan_graph(fanout):
    return NetworkGraph(
        n=fanout + 1,
        pre=np.zeros(fanout, dtype=np.int64),
        post=np.arange(1, fanout + 1, dtype=np.int64),
    )


def snspd_link(**kw):
    defaults = dict(wavelength=1.5e-6, eta=0.01, n_ph=7.0, stochastic=False)
    defaults.update(kw)
    return OpticalLink(**defaults)


def assert_same_outputs(profile, outputs, reference) -> dict:
    """``run()``'s ``outputs`` against the ``reference`` outputs of ``reference_run``; returns the counters.

    The reference handles each arrival on its own with scalar draws, on one
    scalar memory cell per edge, counts each edge's misses itself, and keeps
    live counters and a ledger that adds each event's energy.  Spikes,
    counters and synapse rows must agree exactly, and each energy value to
    rounding.
    """
    (spikes, ledger, report), (ref_spikes, ref_ledger, ref_report) = outputs, reference
    assert spikes.neurons == ref_spikes.neurons and spikes.times == ref_spikes.times
    rows = report.as_dict()
    assert rows == ref_report.as_dict()
    priced, summed = ledger.as_dict(profile), ref_ledger.as_dict(profile)
    assert priced.keys() == summed.keys() and priced["categories_j"].keys() == summed["categories_j"].keys()
    assert priced["counters"] == summed["counters"]
    for key in priced.keys() - {"counters"}:
        got, want = priced[key], summed[key]
        if key == "categories_j":
            got, want = list(got.values()), list(want.values())
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=key)
    assert sum(row["misses"] for row in rows["synapses"]) == priced["counters"]["misses"]
    return priced["counters"]


class TestThresholdLogic:
    def test_coincident_inputs_fire_once(self):
        config = SimConfig(
            duration=1e-3,
            seed=1,
            link=snspd_link(),
            synapse=SynapseDefaults(tau=1e-6, weight=0.6),
            inputs=(InputDrive(neuron=0, times=(1e-6,)), InputDrive(neuron=1, times=(1e-6,))),
        )
        spikes, _, _ = run(two_input_graph(), config)
        readout = [t for v, t in zip(spikes.neurons, spikes.times) if v == 2]
        assert len(readout) == 1
        assert readout[0] == pytest.approx(1e-6 + config.neuron.transmit_delay, rel=1e-12)

    def test_staggered_inputs_never_fire(self):
        config = SimConfig(
            duration=1e-3,
            seed=1,
            link=snspd_link(),
            synapse=SynapseDefaults(tau=1e-6, weight=0.6),
            inputs=(InputDrive(neuron=0, times=(1e-6,)), InputDrive(neuron=1, times=(5e-4,))),
        )
        spikes, _, _ = run(two_input_graph(), config)
        assert [v for v in spikes.neurons if v == 2] == []

    def test_membrane_decay_brackets_analytic_value(self):
        # Two detections dt apart cross the threshold iff
        # w*(1 + exp(-dt/tau)) reaches it; bracket the analytic value.
        w, tau, dt = 0.5, 1e-6, 7e-7
        analytic = w * (1 + math.exp(-dt / tau))
        for factor, should_fire in ((1 - 1e-6, True), (1 + 1e-6, False)):
            config = SimConfig(
                duration=1e-3,
                seed=1,
                link=snspd_link(),
                neuron=NeuronParams(threshold=analytic * factor, refractory=5e-8, transmit_delay=5e-8),
                synapse=SynapseDefaults(tau=tau, weight=w),
                inputs=(InputDrive(neuron=0, times=(1e-6, 1e-6 + dt)),),
            )
            spikes, _, _ = run(chain_graph(), config)
            fired = any(v == 1 for v in spikes.neurons)
            assert fired is should_fire

    def test_refractory_blocks_double_firing(self):
        config = SimConfig(
            duration=1e-3,
            seed=1,
            link=snspd_link(),
            neuron=NeuronParams(threshold=0.5, refractory=1e-4, transmit_delay=5e-8),
            synapse=SynapseDefaults(tau=1e-3, weight=0.6),
            inputs=(InputDrive(neuron=0, times=(1e-6, 2e-6, 3e-6)),),
        )
        spikes, _, _ = run(chain_graph(), config)
        readout = [t for v, t in zip(spikes.neurons, spikes.times) if v == 1]
        assert len(readout) == 1  # later arrivals land inside the refractory hold


class TestEventOrder:
    def test_forced_spikes_go_first_at_equal_times(self):
        # With no delay, neuron 0's spike reaches neuron 1 in the instant
        # neuron 1 is driven: the drive fires it, and the arrival finds it
        # refractory.
        config = SimConfig(
            duration=1e-3,
            seed=1,
            link=snspd_link(),
            neuron=NeuronParams(threshold=1.0, refractory=5e-8, transmit_delay=0.0),
            synapse=SynapseDefaults(weight=1.0),
            inputs=(InputDrive(neuron=0, times=(1e-6,)), InputDrive(neuron=1, times=(1e-6,))),
        )
        spikes, ledger, report = run(chain_graph(), config)
        assert list(spikes.neurons) == [0, 1] and list(spikes.times) == [1e-6, 1e-6]
        assert ledger.counters.forced_spikes == 2 and report.detections == [1]

    def test_equal_drive_times_keep_drive_order(self):
        config = SimConfig(
            duration=1e-3,
            seed=1,
            link=snspd_link(),
            neuron=NeuronParams(threshold=1e9),
            inputs=(
                InputDrive(neuron=2, count=60, interval=1e-6),
                InputDrive(neuron=0, times=tuple(k * 1e-6 for k in range(59, -1, -1))),
                InputDrive(neuron=1, count=60, interval=1e-6),
            ),
        )
        spikes, _, _ = run(two_input_graph(), config)
        assert list(spikes.neurons) == [2, 0, 1] * 60


class TestDetectionStatistics:
    def test_bernoulli_fraction_within_three_sigma(self):
        trials = 10_000
        link = snspd_link(n_ph=4.605 / 0.7, stochastic=True, receiver=SnspdReceiver(eta_d=0.7))
        config = SimConfig(
            duration=trials * 1e-7 + 1e-6,
            seed=31,
            link=link,
            neuron=NeuronParams(threshold=1e9),
            synapse=SynapseDefaults(tau=1e-8, weight=0.1),
            inputs=(InputDrive(neuron=0, count=trials, interval=1e-7),),
        )
        _, ledger, report = run(chain_graph(), config)
        assert report.suppressed[0] == 0
        p = 1 - math.exp(-4.605)
        fraction = report.detections[0] / trials
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(fraction - p) <= 3 * sigma
        assert ledger.counters.detections + ledger.counters.misses == trials

    def test_deterministic_photodiode_always_detects(self):
        link = OpticalLink(eta=0.01, receiver=ReceiverlessPhotodiode(), stochastic=False)
        config = SimConfig(
            duration=1e-3,
            seed=2,
            link=link,
            profile=SEMICONDUCTOR_300K,
            neuron=NeuronParams(threshold=1e9),
            inputs=(InputDrive(neuron=0, count=100, interval=1e-6),),
        )
        _, ledger, report = run(chain_graph(), config)
        assert report.detections[0] == 100
        assert ledger.counters.misses == 0

    def test_photodiode_run_skips_the_detection_probability(self, monkeypatch):
        # A stochastic photodiode draws photon counts against its charging threshold, so the run has
        # no use for the closed-form probability, a sum of one term per photon: 5e9 terms here.
        def refuse(link):
            assert isinstance(link.receiver, SnspdReceiver), "the detection probability of a photodiode link"
            return link_detection_probability(link)

        monkeypatch.setattr(simulator, "link_detection_probability", refuse)
        doc = {
            "seed": 1,
            "duration": 1e-6,
            "profile": "semiconductor-300K",
            "network": {"n": 2, "edges": [{"pre": 0, "post": 1}]},
            "link": {"eta": 0.01, "n_ph": 5e9, "stochastic": True, "receiver": {"kind": "photodiode", "c_tot": 1e-9}},
            "inputs": [{"neuron": 0, "times": [1e-7]}],
        }
        _, ledger, _ = run(*build_scenario(doc))
        assert ledger.counters.detections + ledger.counters.misses == 1


def detection_times(config):
    """Times of the detections on ``chain_graph()``'s one synapse, read as neuron 1's spikes.

    ``config`` sets a threshold at or below the weight and no refractory
    period, so every detection fires neuron 1 at once.
    """
    spikes, ledger, _ = run(chain_graph(), config)
    times = [t for v, t in zip(spikes.neurons, spikes.times) if v == 1]
    assert len(times) == ledger.counters.detections
    return times, ledger


class TestDeadTime:
    def test_no_two_detections_within_reset_time(self):
        receiver = SnspdReceiver(max_count_rate=2e6)  # 500 ns dead time
        link = snspd_link(receiver=receiver, stochastic=False)
        config = SimConfig(
            duration=1e-3,
            seed=3,
            link=link,
            neuron=NeuronParams(threshold=0.1, refractory=0.0),
            synapse=SynapseDefaults(tau=1e-8, weight=0.1),
            inputs=(InputDrive(neuron=0, count=1000, interval=1e-7),),  # 10x too fast
        )
        times, ledger = detection_times(config)
        times = np.array(times)
        gaps = np.diff(times)
        assert gaps.min() >= receiver.reset_time - 1e-15
        measured_rate = len(times) / (times[-1] - times[0])
        assert measured_rate <= receiver.max_count_rate * 1.01
        assert ledger.counters.suppressed > 0
        assert ledger.counters.detections + ledger.counters.suppressed == 1000


class TestLedgerExactness:
    def test_source_optical_closed_form(self):
        spikes_in, fanout = 1000, 10
        config = SimConfig(
            duration=1e-3,
            seed=99,
            link=snspd_link(eta=0.01, n_ph=7.0, stochastic=True),
            synapse=SynapseDefaults(tau=1e-7, weight=0.4),
            inputs=(InputDrive(neuron=0, count=spikes_in, interval=1e-6),),
        )
        _, ledger, _ = run(fan_graph(fanout), config)
        per_event = 7.0 * photon_energy(1.5e-6).value / 0.01
        expected = spikes_in * fanout * per_event
        assert ledger.counters.transmissions == spikes_in * fanout
        assert abs(ledger.source_optical - expected) / expected <= 1e-9
        assert expected == pytest.approx(0.927e-12, rel=1e-3)

    def test_every_category_matches_event_counts(self):
        # Each category is its event count times its energy per event, with one rounding.
        config = SimConfig(
            duration=1e-3,
            seed=5,
            link=snspd_link(eta=0.01, n_ph=7.0, stochastic=True),
            profile=SUPERCONDUCTING_4K,
            neuron=NeuronParams(threshold=1e9),
            synapse=SynapseDefaults(tau=1e-7, weight=0.25, memory_kind="loop"),
            energy=EnergyParams(i_c=300e-6, per_spike_overhead=2e-18),
            inputs=(InputDrive(neuron=0, count=500, interval=1e-6),),
        )
        _, ledger, report = run(fan_graph(4), config)
        c = ledger.counters
        assert (c.spikes, c.transmissions, c.detections) == (500, 2000, sum(report.detections.tolist()))
        e_source = 7.0 * photon_energy(1.5e-6).value / 0.01
        e_reset = 0.5 * 100e-9 * (10e-6) ** 2
        level = round(0.25 * 1023)
        budget = int(e_source / (300e-6 * CONSTANTS.phi0))
        fluxons = round(level / 1023 * budget)
        assert ledger.source_optical == c.transmissions * e_source
        assert ledger.detector_reset == c.detections * e_reset
        assert ledger.fluxon == c.detections * fluxons * (300e-6 * CONSTANTS.phi0)
        assert ledger.soma_overhead == c.spikes * 2e-18
        assert ledger.memory_update == 0.0
        assert ledger.static_leakage == 0.0
        assert ledger.wall_total(SUPERCONDUCTING_4K) == pytest.approx(
            1000 * ledger.cold_total(), rel=1e-12
        )
        # Per-neuron views tile the global categories.
        assert ledger.per_neuron_source.sum() == pytest.approx(ledger.source_optical, rel=1e-12)
        assert ledger.per_neuron_receiver.sum() == pytest.approx(
            ledger.detector_reset + ledger.fluxon, rel=1e-12
        )

    @pytest.mark.parametrize("write_energy", ["no plasticity", None, 1e-15])
    def test_memory_and_per_neuron_energy_match_event_counts(self, write_energy):
        # Edges 0 and 1 hold loop memory, edges 2 and 3 analog memory.  STDP
        # only potentiates, so the loop levels moved are the final levels
        # less the initial ones.
        overrides = {
            0: {"memory_kind": "loop", "bits": 10, "weight": 0.25},
            1: {"memory_kind": "loop", "bits": 4, "level": 3},
            2: {"weight": 0.3},
        }
        plasticity = None
        if write_energy != "no plasticity":
            plasticity = StdpParams(
                a_plus=1.0, a_minus=0.0, tau_plus=1e-6, tau_minus=1e-6, write_energy=write_energy
            )
        config = SimConfig(
            duration=1e-3,
            seed=5,
            link=snspd_link(eta=0.01, n_ph=7.0, stochastic=True),
            neuron=NeuronParams(threshold=0.2, refractory=1e-7),
            synapse=SynapseDefaults(tau=1e-7, weight=0.25),
            synapse_overrides=overrides,
            plasticity=plasticity,
            energy=EnergyParams(i_c=300e-6),
            inputs=(InputDrive(neuron=0, count=60, interval=1e-6),),
        )
        _, ledger, report = run(fan_graph(4), config)
        e_source = 7.0 * photon_energy(1.5e-6).value / 0.01
        e_reset = 0.5 * 100e-9 * (10e-6) ** 2
        fluxon_energy = 300e-6 * CONSTANTS.phi0
        budget = int(e_source / fluxon_energy)
        detections = report.detections.tolist()
        assert ledger.per_neuron_source.tolist() == [60 * 4 * e_source, 0.0, 0.0, 0.0, 0.0]
        receiver = ledger.per_neuron_receiver.tolist()
        assert receiver[0] == 0.0
        assert receiver[3:] == [d * e_reset for d in detections[2:]]  # analog memory emits no fluxons
        writes = report.writes.tolist()
        if plasticity is None:
            rates = [round(round(0.25 * 1023) / 1023 * budget), round(3 / 15 * budget)]
            assert receiver[1:3] == [d * e_reset + d * r * fluxon_energy for d, r in zip(detections, rates)]
            assert ledger.memory_update == 0.0 and writes == [0, 0, 0, 0]
            return
        assert min(writes) > 0 and ledger.counters.stdp_writes == sum(writes)
        if write_energy is None:
            moved = report.memory.level[0] - round(0.25 * 1023) + report.memory.level[1] - 3
            assert moved > 0 and ledger.memory_update == moved * 300e-6 * CONSTANTS.phi0
        else:
            assert ledger.memory_update == sum(writes) * 1e-15

    def test_static_leakage_closed_form_zero_activity(self):
        pd = ReceiverlessPhotodiode(v_bias=1.0, i_leak=1e-9)
        link = OpticalLink(eta=0.01, receiver=pd, stochastic=False)
        config = SimConfig(
            duration=2e-3,
            seed=4,
            link=link,
            profile=SEMICONDUCTOR_300K,
            inputs=(),
        )
        _, ledger, _ = run(fan_graph(6), config)
        assert ledger.cold_total() == 0.0
        assert ledger.static_leakage == pytest.approx(6 * 1e-9 * 1.0 * 2e-3, rel=1e-12)
        assert ledger.wall_total(SEMICONDUCTOR_300K) == pytest.approx(
            ledger.static_leakage, rel=1e-12
        )


class TestDeterminism:
    def _run_once(self):
        config = SimConfig(
            duration=5e-3,
            seed=1234,
            link=snspd_link(stochastic=True),
            neuron=NeuronParams(threshold=1.5, refractory=1e-6, transmit_delay=5e-8),
            synapse=SynapseDefaults(tau=5e-6, weight=0.4),
            plasticity=StdpParams(a_plus=0.02, a_minus=0.02, tau_plus=1e-5, tau_minus=1e-5),
            inputs=(
                InputDrive(neuron=0, rate=2e5),
                InputDrive(neuron=1, rate=2e5),
            ),
        )
        graph = NetworkGraph(n=3, pre=np.array([0, 1, 2]), post=np.array([2, 2, 0]))
        spikes, ledger, report = run(graph, config)
        return (
            list(zip(spikes.neurons, spikes.times)),
            json.dumps(ledger.as_dict(SUPERCONDUCTING_4K), sort_keys=True),
            json.dumps(report.as_dict(), sort_keys=True),
        )

    def test_identical_runs_bit_identical(self):
        assert self._run_once() == self._run_once()

    def test_seed_changes_stochastic_outcome(self):
        def run_with_seed(seed):
            config = SimConfig(
                duration=1e-3,
                seed=seed,
                link=snspd_link(n_ph=2.0, stochastic=True),
                neuron=NeuronParams(threshold=0.1, refractory=0.0),
                synapse=SynapseDefaults(tau=1e-8, weight=0.1),
                inputs=(InputDrive(neuron=0, count=500, interval=1e-6),),
            )
            return detection_times(config)[0]

        assert run_with_seed(1) != run_with_seed(2)


class TestPlasticityInRun:
    def test_pre_post_pairing_potentiates_loop_memory(self):
        graph = chain_graph()
        config = SimConfig(
            duration=1e-3,
            seed=8,
            link=snspd_link(),
            neuron=NeuronParams(threshold=0.5, refractory=1e-7, transmit_delay=5e-8),
            synapse=SynapseDefaults(tau=1e-6, weight=0.6, memory_kind="loop"),
            plasticity=StdpParams(a_plus=4, a_minus=4, tau_plus=1e-5, tau_minus=1e-5, write_energy=1e-15),
            inputs=(InputDrive(neuron=0, count=20, interval=2e-6),),
        )
        _, ledger, report = run(graph, config)
        start_level = round(0.6 * 1023)
        assert report.memory.level[0] > start_level
        assert report.writes[0] > 0
        assert ledger.memory_update == pytest.approx(ledger.counters.stdp_writes * 1e-15, rel=1e-12)

    @pytest.mark.parametrize("site", ["potentiation", "depression"])
    def test_endurance_fault_stops_run(self, site):
        config = SimConfig(
            duration=1e-4,
            seed=8,
            link=snspd_link(),
            neuron=NeuronParams(threshold=0.5),
            synapse=SynapseDefaults(weight=0.9, endurance=1),
            plasticity=StdpParams(on_exhaustion="fault"),
            inputs=(InputDrive(neuron=0, count=20, interval=2e-6),),
        )
        last = (2e-6 + config.neuron.transmit_delay, "arrival", 0)
        if site == "potentiation":  # neuron 1 stays below threshold and is driven twice
            config = dataclasses.replace(
                config,
                neuron=NeuronParams(threshold=10.0),
                inputs=(InputDrive(neuron=0, times=(1e-6,)), InputDrive(neuron=1, times=(2e-6, 3e-6))),
            )
            last = (3e-6, "forced", 1)
        with pytest.raises(SimulationError, match="synapse 0: analog memory endurance exhausted") as err:
            run(chain_graph(), config)
        assert err.value.trace_tail[-1] == last

    def test_update_estimate_reports_sqrt_fanin_rule(self):
        graph = two_input_graph()
        config = SimConfig(
            duration=1e-3,
            seed=9,
            link=snspd_link(),
            synapse=SynapseDefaults(tau=1e-6, weight=0.6),
            inputs=(InputDrive(neuron=0, times=(1e-6,)), InputDrive(neuron=1, times=(1e-6,))),
        )
        spikes, _, report = run(graph, config)
        # One readout spike with fan-in 2
        assert report.sqrt_fanin_update_estimate == pytest.approx(math.sqrt(2), rel=1e-12)


class TestInhibition:
    def test_inhibitory_input_cancels_excitation(self):
        graph = two_input_graph()
        config = SimConfig(
            duration=1e-3,
            seed=10,
            link=snspd_link(),
            neuron=NeuronParams(threshold=1.0),
            synapse=SynapseDefaults(tau=1e-6, weight=0.6),
            synapse_overrides={1: {"inhibitory": True, "weight": 0.6}},
            inputs=(
                InputDrive(neuron=0, times=(1e-6, 2e-6)),
                InputDrive(neuron=1, times=(1e-6, 2e-6)),
            ),
        )
        spikes, _, _ = run(graph, config)
        assert all(v != 2 for v in spikes.neurons)


class TestGuards:
    def test_event_budget_overflow(self):
        config = SimConfig(
            duration=1.0,
            seed=11,
            link=snspd_link(),
            inputs=(InputDrive(neuron=0, count=100, interval=1e-6),),
            max_events=10,
        )
        with pytest.raises(SimulationError):
            run(chain_graph(), config)

    def test_event_budget_boundary(self):
        # Three forced spikes of neuron 0, each reaching 40 synapses: 123 events.
        config = SimConfig(
            duration=1e-3,
            seed=11,
            link=snspd_link(),
            synapse=SynapseDefaults(tau=1e-7, weight=0.3),
            inputs=(InputDrive(neuron=0, count=3, interval=1e-5, start=1e-6),),
        )
        # The same budget on a plastic run whose post neurons fire at every detection.
        plastic = dataclasses.replace(
            config,
            neuron=NeuronParams(threshold=0.5),
            synapse=SynapseDefaults(tau=1e-7, weight=0.9, write_noise_std=0.02, endurance=4),
            plasticity=StdpParams(a_plus=0.05, a_minus=0.05, tau_plus=1e-5, tau_minus=1e-5),
        )
        for graph, case in [(fan_graph(40), config), (fan_graph(40), plastic)]:
            full = run(graph, case)
            counters = full[1].counters
            events = counters.forced_spikes + counters.detections + counters.misses + counters.suppressed
            assert events == 3 * 41
            assert (counters.stdp_writes > 0) == (case.plasticity is not None)
            exact = run(graph, dataclasses.replace(case, max_events=events))
            assert exact[0].neurons == full[0].neurons
            assert exact[0].times == full[0].times
            assert exact[1].as_dict(case.profile) == full[1].as_dict(case.profile)
            assert exact[2].as_dict() == full[2].as_dict()
            forced = [t for v, t in zip(full[0].neurons, full[0].times) if v == 0]
            arrival = [t + case.neuron.transmit_delay for t in forced]
            # Over budget at the last arrival, and at the third forced spike:
            # the error lists the 32 events before it, one entry per event.
            for budget, tail in [
                (events - 1, [(arrival[2], "arrival", e) for e in range(7, 39)]),
                (82, [(arrival[1], "arrival", e) for e in range(8, 40)]),
            ]:
                with pytest.raises(SimulationError, match=rf"event budget exceeded \({budget} events\)") as err:
                    run(graph, dataclasses.replace(case, max_events=budget))
                assert err.value.trace_tail == tail
                assert str(err.value).count("\n    (") == 32

    def test_budget_met_by_a_batch_keeps_a_full_trace(self):
        # Two neurons driving each other with no delay, refractory period or
        # dead time cascade in one instant, one arrival per batch.  The batch
        # after the one that meets the budget is cut to nothing and must not
        # take a place in the trace.
        config = SimConfig(
            duration=1e-6,
            seed=1,
            link=snspd_link(receiver=SnspdReceiver(reset_time=0.0)),
            neuron=NeuronParams(threshold=0.5, refractory=0.0, transmit_delay=0.0),
            synapse=SynapseDefaults(weight=1.0),
            inputs=(InputDrive(neuron=0, times=(0.0,)),),
            max_events=40,
        )
        graph = NetworkGraph(n=2, pre=np.array([0, 1]), post=np.array([1, 0]))
        tails = []
        for simulate in (run, reference_run):
            with pytest.raises(SimulationError, match=r"event budget exceeded \(40 events\)") as err:
                simulate(graph, config)
            tails.append(err.value.trace_tail)
        assert tails[0] == tails[1] == [(0.0, "arrival", (k + 1) % 2) for k in range(32)]  # arrivals 8 to 39

    @pytest.mark.parametrize(
        "drive",
        [InputDrive(neuron=0, count=10**12, interval=1e-15), InputDrive(neuron=0, rate=1e30)],
        ids=["count", "rate"],
    )
    def test_huge_drive_stops_at_event_budget(self, drive):
        config = SimConfig(duration=1e-3, seed=11, link=snspd_link(), inputs=(drive,), max_events=1000)
        with pytest.raises(SimulationError, match=r"event budget exceeded \(1000 events\)") as err:
            run(chain_graph(), config)
        assert len(err.value.trace_tail) == 32

    def test_rate_train_is_one_chunked_draw(self):
        # The chunk of about 10,500 gaps is drawn and summed in three slices; the times are those of
        # one draw and one cumsum over it, and the chunk ends past the run.
        drive = InputDrive(neuron=0, rate=1e7, start=1e-5)
        expected = 1e7 * (1e-3 - 1e-5)
        chunk = int(expected + 6 * math.sqrt(expected + 1) + 16)
        assert 2 * 4096 < chunk <= 3 * 4096
        times = 1e-5 + np.cumsum(substream(3, "input", 0).exponential(1e-7, size=chunk))
        assert times[-1] > 1e-3
        assert list(drive.spikes(1e-3, substream(3, "input", 0))) == times[times <= 1e-3].tolist()

    @pytest.mark.parametrize(
        "drive, duration",
        [
            (InputDrive(neuron=0, count=10**12, interval=1e-15), 1e-3),
            (InputDrive(neuron=0, rate=1e30), 1e-3),
            (InputDrive(neuron=0, rate=1e300), 1e10),  # an expected count out of float range
        ],
        ids=["count", "rate", "rate-inf-expected"],
    )
    def test_huge_drive_is_drawn_lazily(self, drive, duration):
        rng = substream(3, "input", 0)
        tracemalloc.start()
        try:
            first = list(itertools.islice(drive.spikes(duration, rng), 1001))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(first) == 1001 and first == sorted(first) and first[-1] <= duration
        assert peak < 2**20

    def test_unknown_input_neuron(self):
        config = SimConfig(
            duration=1e-3,
            seed=12,
            link=snspd_link(),
            inputs=(InputDrive(neuron=7, times=(1e-6,)),),
        )
        with pytest.raises(DomainError):
            run(chain_graph(), config)

    def test_synapse_errors_raised_in_edge_order(self):
        # Overrides are compiled in edge order, so the first bad edge decides the error.
        bad_noise = {"write_noise_std": -1.0}
        bad_tau = {"tau": -1.0}
        base = dict(duration=1e-3, seed=16, link=snspd_link())
        with pytest.raises(DomainError, match="write_noise_std"):
            run(two_input_graph(), SimConfig(**base, synapse_overrides={0: bad_noise, 1: bad_tau}))
        with pytest.raises(DomainError, match="synapse 0 tau"):
            run(two_input_graph(), SimConfig(**base, synapse_overrides={0: bad_tau, 1: bad_noise}))

    @pytest.mark.parametrize(
        "override, problem",
        [
            ({"delay": 1e-9}, "synapse 1 SynapseDefaults.__init__() got an unexpected keyword argument 'delay'"),
            ({"memory_kind": "flash"}, "synapse 1 memory_kind: must be 'analog' or 'loop', got 'flash'"),
            ({"memory_kind": "loop", "bits": 2, "level": 4}, "synapse 1 level must lie in [0, 3], got 4"),
            ({"memory_kind": "loop", "level": -1}, "synapse 1 level must lie in [0, 1023], got -1"),
            ({"level": 3}, "synapse 1 level: only loop memory takes a level"),
        ],
    )
    def test_override_errors_name_the_synapse(self, override, problem):
        # Each override replaces fields of the synapse defaults, so the record checks it.
        config = SimConfig(duration=1e-3, seed=16, link=snspd_link(), synapse_overrides={1: override})
        with pytest.raises(DomainError) as err:
            run(two_input_graph(), config)
        assert str(err.value) == problem

    def test_fault_trace_ends_at_the_faulting_arrival(self):
        # Neurons 1 to 3 spike first, so each arrival of the fan depresses its edge.  The second
        # spike of neuron 0 is the second write of edge 0, past its endurance of 1: the trace
        # ends with that arrival, and lists none of the batch's later arrivals, which never ran.
        config = SimConfig(
            duration=1e-5,
            seed=17,
            link=snspd_link(),
            synapse=SynapseDefaults(weight=0.2, endurance=1),
            plasticity=StdpParams(a_plus=0.05, a_minus=0.05, tau_plus=1e-6, tau_minus=1e-6, on_exhaustion="fault"),
            inputs=(
                InputDrive(neuron=0, times=(1e-6, 2e-6)),
                *[InputDrive(neuron=v, times=(5e-7,)) for v in (1, 2, 3)],
            ),
        )
        errors = []
        for simulate in (run, reference_run):
            with pytest.raises(SimulationError, match="synapse 0: analog memory endurance exhausted") as err:
                simulate(fan_graph(3), config)
            errors.append(err.value.trace_tail)
        assert errors[0][-1] == (2e-6 + 5e-8, "arrival", 0)
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("key", [2, -1, (0, 2), True])
    def test_override_naming_no_edge_raises(self, key):
        # An override is keyed by edge index; any other key, a (pre, post) pair or a bool
        # included, names no edge, and is refused before any override is built.
        overrides = {0: {"tau": -1.0}, key: {"tau": -1.0, "bogus": 3}}
        config = SimConfig(duration=1e-3, seed=16, link=snspd_link(), synapse_overrides=overrides)
        with pytest.raises(DomainError) as err:
            run(two_input_graph(), config)
        assert str(err.value) == f"synapse override {key!r} names no edge: keys are edge indices in [0, 2)"

    def test_each_distinct_override_built_once(self, monkeypatch):
        # On a 40-edge fan, each odd edge holds its own copy of one override and each even edge
        # but edge 0 a copy of another; edge 0 keeps the defaults.
        calls = []
        initial_memory = simulator._initial_memory
        monkeypatch.setattr(simulator, "_initial_memory", lambda *a: calls.append(a) or initial_memory(*a))
        loop, inhibitory = {"memory_kind": "loop", "bits": 4, "level": 9}, {"inhibitory": True, "weight": 0.3}
        overrides = {e: dict(loop) if e % 2 else dict(inhibitory) for e in range(1, 40)}
        config = SimConfig(duration=1e-3, seed=16, link=snspd_link(), synapse_overrides=overrides)
        c = _compile(fan_graph(40), config)
        assert len(calls) == 3  # the defaults, and each distinct override
        assert c.memory.level.tolist() == [-1] + [9 if e % 2 else -1 for e in range(1, 40)]
        assert c.sign.tolist() == [1.0] + [1.0 if e % 2 else -1.0 for e in range(1, 40)]
        assert c.memory.weight.tolist() == [0.5] + [0.6 if e % 2 else 0.3 for e in range(1, 40)]
        assert len(c.memory.groups) == 2

    def test_bits_bounded(self):
        with pytest.raises(DomainError, match="bits"):
            SynapseDefaults(bits=11)
        with pytest.raises(DomainError, match="bits"):
            SynapseDefaults(bits=0)

    def test_records_bounded_where_made(self):
        # One declaration per field bound: the scenario walk and the records share it.
        for make, problem in [
            (lambda: SynapseDefaults(write_noise_std=-1.0), "write_noise_std: must be >= 0, got -1.0"),
            (lambda: SynapseDefaults(endurance=0), "endurance: must be > 0, got 0"),
            (lambda: SynapseDefaults(memory_kind="flash"), "memory_kind: must be 'analog' or 'loop', got 'flash'"),
            (lambda: EnergyParams(i_c=0.0), "i_c: must be > 0, got 0.0"),
            (lambda: InputDrive(neuron=0, times=(1e-6, -1.0)), "times: must be >= 0, got -1.0"),
            (lambda: SimConfig(duration=1e-3, seed=2**64, link=snspd_link()), "seed: must be < 18446744073709551616"),
            (lambda: SimConfig(duration=1e-3, seed=-1, link=snspd_link()), "seed: must be >= 0, got -1"),
            (lambda: SimConfig(duration=math.inf, seed=1, link=snspd_link()), "duration: must be < inf, got inf"),
        ]:
            with pytest.raises(DomainError) as err:
                make()
            assert str(err.value).startswith(problem)

    def test_input_drive_mode_validation(self):
        with pytest.raises(DomainError):
            InputDrive(neuron=0)
        with pytest.raises(DomainError):
            InputDrive(neuron=0, times=(1e-6,), rate=1e3)
        with pytest.raises(DomainError):
            InputDrive(neuron=0, count=5)
        for drive in [dict(rate=1e3, interval=1e-6), dict(times=(1e-6,), interval=1e-6)]:
            with pytest.raises(DomainError, match="count and interval go together"):
                InputDrive(neuron=0, **drive)
        with pytest.raises(DomainError, match="times drives take no start"):
            InputDrive(neuron=0, times=(1e-6,), start=5e-6)
        InputDrive(neuron=0, times=(1e-6,), start=0.0)
        InputDrive(neuron=0, rate=1e3, start=5e-6)
        InputDrive(neuron=0, count=5, interval=1e-6, start=5e-6)


class TestBatchedArrivals:
    """``run()`` against the arrival-by-arrival loop in ``reference_loop``, on fixed cases.

    ``run()`` handles each spike's arrivals as one batch, with array
    operations or, below ``_SCALAR_BATCH`` edges, one at a time on scalar
    views; it writes STDP on the memory columns and prices its ledger once
    from event counts.  The cases include every ER document whose output
    bytes ``test_golden`` pins, among them one whose out-degrees straddle
    the cut, and a plastic variant of that one.
    """

    CASES = [
        "cascade",
        "photodiode-poisson",
        "photodiode-deterministic",
        "dead-time-inhibitory",
        "stdp-analog-noisy",
        "stdp-loop",
        "straddle-stdp",
    ]

    @staticmethod
    def _case(case):
        if case in ER_SCENARIOS:  # the documents whose outputs tests/test_golden.py pins
            return build_scenario(json.loads(json.dumps(ER_SCENARIOS[case])))
        if case == "straddle-stdp":
            graph, config = TestBatchedArrivals._case("er-straddle-cut")
            stdp = StdpParams(a_plus=1, a_minus=1, tau_plus=1e-6, tau_minus=1e-6)
            return graph, dataclasses.replace(config, duration=5e-6, plasticity=stdp)
        graph = generate_er(150, 12.0, seed=5)
        config = SimConfig(
            duration=1e-4,
            seed=21,
            link=snspd_link(stochastic=True),
            neuron=NeuronParams(threshold=1.0, refractory=5e-8, transmit_delay=0.0),
            synapse=SynapseDefaults(tau=1e-6, weight=0.55, memory_kind="loop", bits=8),
            inputs=tuple(InputDrive(neuron=v, rate=2e5) for v in (4, 60, 130)),
        )
        photodiode = OpticalLink(eta=0.01, n_ph=4950.0, receiver=ReceiverlessPhotodiode(), stochastic=True)
        stdp_loop = StdpParams(a_plus=3, a_minus=3, tau_plus=1e-6, tau_minus=1e-6)
        if case.startswith("stdp"):  # potentiation drives the network up: keep these runs short
            config = dataclasses.replace(config, duration=3e-5)
        if case.startswith("photodiode"):
            if case.endswith("deterministic"):
                photodiode = dataclasses.replace(photodiode, stochastic=False)
            config = dataclasses.replace(config, link=photodiode, profile=SEMICONDUCTOR_300K)
        elif case == "dead-time-inhibitory":
            inhibitory = {e: {"inhibitory": True} for e in range(0, graph.edge_count, 4)}
            config = dataclasses.replace(
                config,
                link=snspd_link(stochastic=True, receiver=SnspdReceiver(reset_time=2e-6)),
                neuron=NeuronParams(threshold=1.0, refractory=5e-8, transmit_delay=5e-8),
                synapse_overrides=inhibitory,
                inputs=tuple(InputDrive(neuron=v, rate=1e6) for v in range(0, 150, 10)),
            )
        elif case == "stdp-analog-noisy":
            config = dataclasses.replace(
                config,
                synapse=SynapseDefaults(tau=1e-6, weight=0.55, write_noise_std=0.03, endurance=10),
                plasticity=StdpParams(a_plus=0.05, a_minus=0.06, tau_plus=1e-6, tau_minus=1e-6),
            )
        elif case == "stdp-loop":
            config = dataclasses.replace(config, plasticity=stdp_loop)
        return graph, config

    @pytest.mark.parametrize("case", CASES + sorted(ER_SCENARIOS))
    def test_batches_match_single_arrivals(self, case):
        graph, config = self._case(case)
        counters = assert_same_outputs(config.profile, run(graph, config), reference_run(graph, config))
        assert counters["detections"] > 0
        assert (counters["stdp_writes"] > 0) == (config.plasticity is not None)

    def test_straddling_document_takes_both_handlers(self):
        graph, config = self._case("er-straddle-cut")
        spikes, _, _ = run(graph, config)
        out_degree = np.bincount(graph.pre, minlength=graph.n)
        batches = out_degree[np.asarray(spikes.neurons)]
        batches = batches[batches > 0]
        assert batches.min() < simulator._SCALAR_BATCH <= batches.max()

    @pytest.mark.parametrize("lam", [0.3, 4.9, 50.0, 5000.0, None])
    def test_chunked_detection_draws_equal_one_draw(self, lam):
        # The loop draws detection outcomes ahead in chunks and hands them out in order.
        def draw(rng, k):
            return rng.random(size=k) if lam is None else rng.poisson(lam, size=k)

        whole = draw(substream(7, "detect"), 10_000)
        rng = substream(7, "detect")
        assert np.array_equal(whole, np.concatenate([draw(rng, k) for k in (1, 4095, 3, 5901)]))

    @pytest.mark.parametrize("case", CASES)
    def test_report_cells_match_reference_cells(self, case):
        """The report's memory columns equal the cells the arrival-by-arrival loop leaves."""
        graph, config = self._case(case)
        _, _, report = run(graph, config)
        cells, _, _ = _reference_loop(_compile(graph, config))
        assert report.memory.weight.tolist() == [cell.weight for cell in cells]
        assert report.memory.level.tolist() == [cell.level if isinstance(cell, LoopMemory) else -1 for cell in cells]
        assert report.memory.degraded.tolist() == [cell.degraded for cell in cells]
        assert report.memory.writes.tolist() == [cell.write_count for cell in cells]
        assert (report.memory.writes.any()) == (config.plasticity is not None)


# Drive times, delays, refractory periods and dead times are multiples of a
# power of two, so that sums of them are exact and events tie.
GRID = 2.0**-24  # s, about 60 ns


@st.composite
def memory_fields(draw) -> dict:
    if draw(st.booleans()):
        return {"memory_kind": "loop", "bits": draw(st.integers(1, 10))}
    noise, endurance = draw(st.sampled_from([0.0, 0.03])), draw(st.sampled_from([math.inf, 1.0, 4.0]))
    return {"memory_kind": "analog", "write_noise_std": noise, "endurance": endurance}


@st.composite
def small_runs(draw):
    """A small valid (graph, config) pair.

    Half the graphs have a hub, neuron 0, whose out-degree is at least
    ``_SCALAR_BATCH`` and which the first drive forces, so that its batches
    take the array handler and the other neurons' batches the scalar one.

    A quarter of the runs are built to fault: analog cells of endurance 1
    under STDP that faults, and drives that fire some post neurons of one
    source and then the source twice, with no other drive.  The first
    arrival at a primed post is its cell's one write, and the next write
    faults, most often with later arrivals of its batch left unrun.
    """
    cut = simulator._SCALAR_BATCH
    hub = draw(st.booleans())
    n = draw(st.integers(cut + 1, cut + 8) if hub else st.integers(2, 12))
    if draw(st.booleans()):
        er = generate_er(n, draw(st.floats(0.5, min(n - 1, 6.0))), seed=draw(st.integers(0, 999)))
        pairs = list(zip(er.pre.tolist(), er.post.tolist()))
    else:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, min_size=1, max_size=2 * n, unique=True))
    if hub:
        pairs += [(0, v) for v in range(1, draw(st.integers(cut, n - 1)) + 1) if (0, v) not in pairs]
    pre, post = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    graph = NetworkGraph(n=n, pre=pre, post=post)

    faulting = draw(st.integers(0, 3)) == 0
    weights = st.floats(0.2, 1.0)
    synapse = SynapseDefaults(
        tau=draw(st.sampled_from([1e-7, 1e-6])),
        weight=draw(weights),
        inhibitory=draw(st.integers(0, 3)) == 3,
        **({"memory_kind": "analog", "endurance": 1.0} if faulting else draw(memory_fields())),
    )
    # A few override dicts, each held by one or more edges, so that an override built once serves several.
    shared = []
    for _ in range(draw(st.integers(1, 3))):
        ov = {"inhibitory": draw(st.booleans()), "tau": draw(st.sampled_from([1e-7, 3e-7, 1e-6]))}
        if draw(st.booleans()):
            ov.update(draw(memory_fields()))
            if ov["memory_kind"] == "loop" and draw(st.booleans()):
                ov["level"] = draw(st.integers(0, 2 ** ov["bits"] - 1))
            else:
                ov["weight"] = draw(weights)
        shared.append(ov)
    overrides = {}
    for e in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=8, unique=True)) if pairs else ():
        overrides[e] = draw(st.sampled_from(shared))

    if draw(st.integers(0, 2)) < 2:
        # A dead time longer than the faulting source's spike interval would suppress its second arrival.
        receiver = SnspdReceiver(reset_time=GRID * draw(st.sampled_from([4, 1, 0] if faulting else [32, 4, 1, 0])))
        n_ph = draw(st.sampled_from([1.0, 7.0]))
        link = snspd_link(n_ph=n_ph, stochastic=draw(st.integers(0, 3)) < 3, receiver=receiver)
        profile = SUPERCONDUCTING_4K
    else:
        n_ph = draw(st.sampled_from([4900.0, 5100.0]))
        link = OpticalLink(eta=0.01, n_ph=n_ph, receiver=ReceiverlessPhotodiode(), stochastic=draw(st.booleans()))
        profile = SEMICONDUCTOR_300K
    plasticity = None
    if faulting or draw(st.integers(0, 2)) < 2:
        plasticity = StdpParams(
            a_plus=draw(st.sampled_from([0.05, 1.0, 3.0])),
            a_minus=draw(st.sampled_from([0.05, 1.0, 3.0])),
            tau_plus=draw(st.sampled_from([2e-7, 1e-6])),
            tau_minus=draw(st.sampled_from([2e-7, 1e-6])),
            on_exhaustion="fault" if faulting else draw(st.sampled_from(["freeze", "fault"])),
            write_energy=draw(st.sampled_from([None, 1e-15])),
        )

    # The first drive forces the hub; the others mostly neurons with out-edges.
    sources = sorted(set(graph.pre.tolist())) or [0]
    drives = []
    for i in range(0 if faulting else draw(st.integers(1, 4))):
        v = 0 if hub and i == 0 else draw(st.one_of(st.sampled_from(sources), st.integers(0, n - 1)))
        start = GRID * draw(st.integers(0, 8))
        kind = draw(st.sampled_from(["times", "count", "rate"]))
        if kind == "times":  # unsorted, with ties
            steps = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8))
            drives.append(InputDrive(neuron=v, times=tuple(GRID * k for k in steps)))
        elif kind == "count":
            interval = GRID * draw(st.integers(1, 6))
            drives.append(InputDrive(neuron=v, count=draw(st.integers(0, 12)), interval=interval, start=start))
        else:
            drives.append(InputDrive(neuron=v, rate=draw(st.sampled_from([1e6, 5e6])), start=start))
    if faulting:
        source = 0 if hub else draw(st.sampled_from(sources))
        posts = sorted(set(graph.post[graph.pre == source].tolist()))
        primed = draw(st.lists(st.sampled_from(posts), min_size=1, max_size=4, unique=True)) if posts else []
        drives += [InputDrive(neuron=v, times=(0.0,)) for v in primed]
        drives.append(InputDrive(neuron=source, times=(GRID * 2, GRID * 10)))
    config = SimConfig(
        duration=GRID * draw(st.integers(16, 64)),
        seed=draw(st.integers(0, 2**32)),
        link=link,
        profile=profile,
        neuron=NeuronParams(
            threshold=draw(st.sampled_from([0.6, 0.3, 1.0, 1.5])),
            refractory=GRID * draw(st.integers(0, 4)),
            transmit_delay=GRID * draw(st.integers(0, 2)),
            tau_soma=draw(st.sampled_from([None, 3e-7])),
        ),
        synapse=synapse,
        synapse_overrides=overrides,
        plasticity=plasticity,
        inputs=tuple(drives),
        energy=EnergyParams(
            max_fluxons=draw(st.sampled_from([None, 0, 7])),
            per_spike_overhead=draw(st.sampled_from([0.0, 1e-15])),
        ),
        max_events=draw(st.integers(0, 40)) if draw(st.booleans()) else 3000,  # small budgets cut batches
    )
    return graph, config


class TestLoopFuzz:
    """``run()`` against ``reference_run`` on generated scenarios."""

    @settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_runs())
    def test_run_matches_reference(self, case):
        graph, config = case
        outcomes = []
        for simulate in (run, reference_run):
            try:
                outcomes.append(simulate(graph, config))
            except SimulationError as exc:
                outcomes.append(exc)
        got, want = outcomes
        assert type(got) is type(want), (got, want)
        if isinstance(want, SimulationError):
            # The message names the exceeded budget or the faulting synapse, and
            # the trace ends with the last event that ran.
            assert str(got).split("\n")[0] == str(want).split("\n")[0]
            assert got.trace_tail == want.trace_tail
        else:
            counters = assert_same_outputs(config.profile, got, want)
            # A budget of exactly the run's events lets it finish.
            events = sum(counters[k] for k in ("forced_spikes", "detections", "misses", "suppressed"))
            assert_same_outputs(config.profile, run(graph, dataclasses.replace(config, max_events=events)), want)


class TestPowerReport:
    def test_wall_power_of_fanout_scenario(self):
        config = SimConfig(
            duration=1e-3,
            seed=99,
            link=snspd_link(eta=0.01, n_ph=7.0),
            synapse=SynapseDefaults(tau=1e-7, weight=0.4),
            inputs=(InputDrive(neuron=0, count=1000, interval=1e-6),),
        )
        graph = fan_graph(10)
        _, ledger, _ = run(graph, config)
        report = power_report(ledger, 1e-3, SUPERCONDUCTING_4K, n_synapses=10, n_neurons=11)
        # 0.927 pJ of source optical over 1 ms, inflated by 1000 W/W,
        # plus detector reset energy.
        source_wall = 0.927e-12 / 1e-3 * 1000
        assert report.wall_power >= source_wall
        assert report.wall_power == pytest.approx(source_wall, rel=0.1)

    def test_budget_utilization_self_consistent(self):
        spikes_in, fanout = 200, 5
        config = SimConfig(
            duration=1e-3,
            seed=13,
            link=snspd_link(eta=0.01, n_ph=7.0, stochastic=True),
            synapse=SynapseDefaults(tau=1e-7, weight=0.2),
            inputs=(InputDrive(neuron=0, count=spikes_in, interval=5e-6),),
        )
        graph = fan_graph(fanout)
        _, ledger, _ = run(graph, config)
        wall = ledger.wall_total(SUPERCONDUCTING_4K) / 1e-3
        report = power_report(
            ledger,
            1e-3,
            SUPERCONDUCTING_4K,
            budget=wall,  # budget set exactly at consumption
            n_neurons=graph.n,
            n_synapses=graph.edge_count,
        )
        assert report.budget_utilization == pytest.approx(1.0, rel=1e-9)
        # At full utilization the supported rate matches the realized
        # per-neuron transmission rate.
        realized = ledger.counters.transmissions / (graph.edge_count * 1e-3)
        assert report.predicted_max_rate == pytest.approx(realized, rel=1e-9)

    def test_density_check(self):
        config = SimConfig(
            duration=1e-3,
            seed=14,
            link=snspd_link(),
            inputs=(InputDrive(neuron=0, count=10, interval=1e-5),),
        )
        _, ledger, _ = run(chain_graph(), config)
        report = power_report(ledger, 1e-3, SUPERCONDUCTING_4K, w_sy=30e-6, n_synapses=1)
        assert report.synapse_power_density is not None
        assert report.density_ok is not None


class TestSomaTimeConstant:
    def test_default_uses_slowest_synapse(self):
        # With tau_soma defaulting to the synapse tau, two sub-threshold
        # pulses far apart never fire; an explicit long tau_soma makes the
        # same schedule fire.
        base = dict(
            duration=1e-3,
            seed=15,
            link=snspd_link(),
            synapse=SynapseDefaults(tau=1e-7, weight=0.6),
            inputs=(InputDrive(neuron=0, times=(1e-6, 11e-6)),),
        )
        spikes, _, _ = run(chain_graph(), SimConfig(**base))
        assert all(v != 1 for v in spikes.neurons)
        slow = SimConfig(**base, neuron=NeuronParams(threshold=1.0, tau_soma=1e-3))
        spikes, _, _ = run(chain_graph(), slow)
        assert any(v == 1 for v in spikes.neurons)

    def test_slowest_synapse_counts_every_edge(self):
        # A 1 ns override on the only edge leaves the 1 us default out, so
        # two 0.6 pulses 100 ns apart do not add up; an edgeless graph has
        # no edge for an override to name.
        pulses = (InputDrive(neuron=0, times=(1e-6, 1.1e-6)),)
        base = dict(duration=1e-3, seed=15, link=snspd_link(), inputs=pulses)
        fast = {0: {"tau": 1e-9, "weight": 0.6}}
        spikes, _, _ = run(chain_graph(), SimConfig(**base, synapse_overrides=fast))
        assert list(spikes.neurons) == [0, 0]
        spikes, _, _ = run(chain_graph(), SimConfig(**base, synapse_overrides={0: {"weight": 0.6}}))
        assert list(spikes.neurons) == [0, 0, 1]
        edgeless = NetworkGraph(n=2, pre=np.array([], dtype=np.int64), post=np.array([], dtype=np.int64))
        with pytest.raises(DomainError, match="names no edge"):
            run(edgeless, SimConfig(**base, synapse_overrides=fast))
        with pytest.raises(DomainError, match="synapse 0 tau"):
            run(chain_graph(), SimConfig(**base, synapse_overrides={0: {"tau": math.nan}}))
