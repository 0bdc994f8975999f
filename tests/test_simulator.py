import dataclasses
import json
import math

import numpy as np
import pytest

from oesnn.errors import DomainError, SimulationError
from oesnn.linkbudget import OpticalLink, ReceiverlessPhotodiode, SnspdReceiver
from oesnn.netgen import NetworkGraph, generate_er
from oesnn.plasticity import StdpParams
from oesnn.platforms import SEMICONDUCTOR_300K, SUPERCONDUCTING_4K
from oesnn.quantities import CONSTANTS, photon_energy
from oesnn.simulator import (
    EnergyParams,
    InputDrive,
    NeuronParams,
    SimConfig,
    SynapseDefaults,
    power_report,
    run,
)
from reference_loop import reference_run
from test_golden import repeated_pair_run


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
        assert spikes.neurons == [0, 1] and spikes.times == [1e-6, 1e-6]
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
        assert spikes.neurons == [2, 0, 1] * 60


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


class TestDeadTime:
    def test_no_two_detections_within_reset_time(self):
        receiver = SnspdReceiver(max_count_rate=2e6)  # 500 ns dead time
        link = snspd_link(receiver=receiver, stochastic=False)
        config = SimConfig(
            duration=1e-3,
            seed=3,
            link=link,
            neuron=NeuronParams(threshold=1e9),
            synapse=SynapseDefaults(tau=1e-8, weight=0.1),
            inputs=(InputDrive(neuron=0, count=1000, interval=1e-7),),  # 10x too fast
            record_detections=True,
        )
        _, ledger, report = run(chain_graph(), config)
        times = np.array(report.detection_times[0])
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
        e_source = 7.0 * photon_energy(1.5e-6).value / 0.01
        e_reset = 0.5 * 100e-9 * (10e-6) ** 2
        level = round(0.25 * 1023)
        budget = int(e_source / (300e-6 * CONSTANTS.phi0))
        fluxons = round(level / 1023 * budget)
        assert ledger.source_optical == pytest.approx(c.transmissions * e_source, rel=1e-9)
        assert ledger.detector_reset == pytest.approx(c.detections * e_reset, rel=1e-9)
        assert ledger.fluxon == pytest.approx(
            c.detections * fluxons * 300e-6 * CONSTANTS.phi0, rel=1e-9
        )
        assert ledger.soma_overhead == pytest.approx(c.spikes * 2e-18, rel=1e-9)
        assert ledger.static_leakage == 0.0
        assert ledger.wall_total(SUPERCONDUCTING_4K) == pytest.approx(
            1000 * ledger.cold_total(), rel=1e-12
        )
        # Per-neuron views tile the global categories.
        assert ledger.per_neuron_source.sum() == pytest.approx(ledger.source_optical, rel=1e-12)
        assert ledger.per_neuron_receiver.sum() == pytest.approx(
            ledger.detector_reset + ledger.fluxon, rel=1e-12
        )

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
                neuron=NeuronParams(threshold=1e9),
                synapse=SynapseDefaults(tau=1e-8, weight=0.1),
                inputs=(InputDrive(neuron=0, count=500, interval=1e-6),),
                record_detections=True,
            )
            _, _, report = run(chain_graph(), config)
            return report.detection_times[0]

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
        assert report.levels[0] > start_level
        assert report.writes[0] > 0
        assert ledger.memory_update == pytest.approx(ledger.counters.stdp_writes * 1e-15, rel=1e-12)

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
            synapse_overrides={(1, 2): {"inhibitory": True, "weight": 0.6}},
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
        # The same budget on a plastic run whose post neurons fire at every
        # detection, and on a spike that reaches each post neuron twice.
        plastic = dataclasses.replace(
            config,
            neuron=NeuronParams(threshold=0.5),
            synapse=SynapseDefaults(tau=1e-7, weight=0.9, write_noise_std=0.02, endurance=4),
            plasticity=StdpParams(a_plus=0.05, a_minus=0.05, tau_plus=1e-5, tau_minus=1e-5),
        )
        repeated = dataclasses.replace(
            config,
            synapse=SynapseDefaults(tau=1e-7, weight=0.6, memory_kind="loop", bits=6),
            plasticity=StdpParams(a_plus=2, a_minus=2, tau_plus=1e-5, tau_minus=1e-5),
        )
        twice = NetworkGraph(n=21, pre=np.zeros(40, dtype=np.int64), post=1 + np.arange(40) % 20)
        for graph, case in [(fan_graph(40), config), (fan_graph(40), plastic), (twice, repeated)]:
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
            run(two_input_graph(), SimConfig(**base, synapse_overrides={(0, 2): bad_noise, (1, 2): bad_tau}))
        with pytest.raises(DomainError, match="synapse 0 tau"):
            run(two_input_graph(), SimConfig(**base, synapse_overrides={(0, 2): bad_tau, (1, 2): bad_noise}))

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


class TestBatchedArrivals:
    """``run()`` against the arrival-by-arrival loop in ``reference_loop``.

    ``run()`` handles each spike's arrivals as one batch; the reference
    handles them one at a time with scalar draws.  Both share the compile
    and report phases, so each case must agree exactly in everything.
    """

    @pytest.mark.parametrize(
        "case",
        [
            "cascade",
            "photodiode-poisson",
            "photodiode-deterministic",
            "dead-time-inhibitory",
            "stdp-analog-noisy",
            "stdp-loop",
            "stdp-loop-repeated-pairs",
            "record-detections",
        ],
    )
    def test_batches_match_single_arrivals(self, case):
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
            pairs = zip(graph.pre[::4].tolist(), graph.post[::4].tolist())
            inhibitory = {pair: {"inhibitory": True} for pair in pairs}
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
        elif case == "stdp-loop-repeated-pairs":
            # Every seventh edge twice: those spikes reach a post neuron twice.
            graph = NetworkGraph(
                n=graph.n,
                pre=np.concatenate([graph.pre, graph.pre[::7]]),
                post=np.concatenate([graph.post, graph.post[::7]]),
            )
            config = dataclasses.replace(config, plasticity=stdp_loop)
        elif case == "record-detections":
            config = dataclasses.replace(config, record_detections=True)
        results = []
        for simulate in (run, reference_run):
            spikes, ledger, report = simulate(graph, config)
            doc = report.as_dict()
            doc["detection_times"] = report.detection_times
            results.append((spikes.neurons, spikes.times, ledger.as_dict(config.profile), doc))
        assert results[0] == results[1]
        counters = results[0][2]["counters"]
        assert counters["detections"] > 0
        assert (counters["stdp_writes"] > 0) == (config.plasticity is not None)
        if config.record_detections:
            assert sum(map(len, results[0][3]["detection_times"])) == counters["detections"]

    def test_repeated_pairs_match_single_arrivals(self):
        assert repeated_pair_run() == repeated_pair_run(simulate=reference_run)


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
            fanout=fanout,
        )
        assert report.budget_utilization == pytest.approx(1.0, rel=1e-9)
        # At full utilization the supported rate matches the realized
        # per-neuron transmission rate.
        realized = ledger.counters.transmissions / (graph.n * fanout * 1e-3)
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
        # two 0.6 pulses 100 ns apart do not add up; overrides naming no
        # edge of an edgeless graph leave the default in.
        pulses = (InputDrive(neuron=0, times=(1e-6, 1.1e-6)),)
        base = dict(duration=1e-3, seed=15, link=snspd_link(), inputs=pulses)
        fast = {(0, 1): {"tau": 1e-9, "weight": 0.6}}
        spikes, _, _ = run(chain_graph(), SimConfig(**base, synapse_overrides=fast))
        assert spikes.neurons == [0, 0]
        spikes, _, _ = run(chain_graph(), SimConfig(**base, synapse_overrides={(0, 1): {"weight": 0.6}}))
        assert spikes.neurons == [0, 0, 1]
        edgeless = NetworkGraph(n=2, pre=np.array([], dtype=np.int64), post=np.array([], dtype=np.int64))
        spikes, _, _ = run(edgeless, SimConfig(**base, synapse_overrides=fast))
        assert spikes.neurons == [0, 0]
        with pytest.raises(DomainError, match="synapse 0 tau"):
            run(chain_graph(), SimConfig(**base, synapse_overrides={(0, 1): {"tau": math.nan}}))
