"""Golden sha256 digests of ``spikes.csv`` and ``ledger.json``.

The simulator promises byte-identical outputs for a fixed seed, across
changes to how it is written as well as across repeated runs.  These
digests pin the bytes of every bundled scenario and of small scenarios
that reach the paths the bundled ones do not: loop memory with fluxon
accounting on single-photon detectors; Poisson-threshold photodiodes,
with STDP on noisy, endurance-limited analog memory and without; a zero
transmit delay, so that spikes cascade within one instant; heavy detector
dead-time suppression; deterministic photodiodes; and mixed loop and
analog edge overrides with inhibitory edges.  One more digest pins ``run()`` itself on
a directly built graph whose ``(pre, post)`` pairs repeat, which no
scenario document can describe.

A change that alters the bytes on purpose updates the table below from
the digests the failing test prints, and says so.
"""

import hashlib
import json

import numpy as np
import pytest

from oesnn.cli import main
from oesnn.config import bundled_scenario_names
from oesnn.linkbudget import OpticalLink, SnspdReceiver
from oesnn.netgen import NetworkGraph
from oesnn.simulator import InputDrive, NeuronParams, SimConfig, SynapseDefaults, run

SNSPD_LINK = {
    "wavelength": 1.5e-6,
    "eta": 0.01,
    "n_ph": 7.0,
    "stochastic": True,
    "receiver": {"kind": "snspd", "eta_d": 0.7, "l_spd": 100e-9, "i_spd": 10e-6},
}
PHOTODIODE_LINK = {
    "wavelength": 1.5e-6,
    "eta": 0.01,
    "n_ph": 5000.0,
    "stochastic": True,
    "receiver": {"kind": "photodiode", "c_tot": 1e-15, "v_swing": 0.8, "i_leak": 1e-9, "v_bias": 1.0},
}
NEURON = {"threshold": 1.0, "refractory": 5e-8, "transmit_delay": 5e-8}


def _ring_edges(n: int, hops, spec) -> list[dict]:
    """Edges ``i -> i + hop (mod n)``, each with the overrides ``spec(index)``."""
    pairs = [(i, (i + hop) % n) for i in range(n) for hop in hops]
    return [{"pre": pre, "post": post, **spec(k)} for k, (pre, post) in enumerate(pairs)]


def _mixed_override(k: int) -> dict:
    """Every third edge inhibitory; loop and analog memory, bits, weights and tau varied."""
    ov = {"inhibitory": k % 3 == 0, "weight": round(0.2 + 0.07 * (k % 11), 2)}
    if k % 2:
        ov.update(memory_kind="loop", bits=4 + k % 6)
    else:
        ov.update(memory_kind="analog", tau=2e-7 * (1 + k % 4))
    if k % 7 == 0:
        ov.pop("weight")
        ov.update(memory_kind="loop", bits=6, level=k % 64)
    return ov

ER_SCENARIOS = {
    "er-snspd-loop": {
        "name": "er-snspd-loop",
        "seed": 11,
        "duration": 2e-4,
        "profile": "superconducting-4K",
        "network": {"er": {"n": 300, "mean_degree": 20.0}},
        "link": SNSPD_LINK,
        "neuron": NEURON,
        "synapse": {"tau": 1e-7, "weight": 0.3, "memory_kind": "loop", "bits": 8},
        "energy": {"i_c": 300e-6},
        "inputs": [{"neuron": v, "rate": 1e5} for v in (3, 77, 150, 299)],
    },
    "er-photodiode-stdp": {
        "name": "er-photodiode-stdp",
        "seed": 12,
        "duration": 2e-4,
        "profile": "semiconductor-300K",
        "network": {"er": {"n": 200, "mean_degree": 10.0}},
        "link": PHOTODIODE_LINK,
        "neuron": NEURON,
        "synapse": {
            "tau": 1e-6,
            "weight": 0.45,
            "memory_kind": "analog",
            "write_noise_std": 0.005,
            "endurance": 8,
        },
        "plasticity": {"kind": "stdp", "a_plus": 0.02, "a_minus": 0.021, "tau_plus": 2e-5, "tau_minus": 2e-5},
        "inputs": [{"neuron": v, "rate": 1e5} for v in range(0, 200, 10)],
    },
    # Zero delay: every arrival of a spike lands in the same instant, and
    # threshold crossings among them fire further spikes in that instant.
    "er-delay0-cascade": {
        "name": "er-delay0-cascade",
        "seed": 13,
        "duration": 1e-4,
        "profile": "superconducting-4K",
        "network": {"er": {"n": 300, "mean_degree": 16.0}},
        "link": SNSPD_LINK,
        "neuron": {"threshold": 1.0, "refractory": 5e-8, "transmit_delay": 0.0},
        "synapse": {"tau": 1e-6, "weight": 0.55, "memory_kind": "loop", "bits": 8},
        "energy": {"i_c": 300e-6},
        "inputs": [{"neuron": v, "rate": 2e5} for v in (5, 120, 240)],
    },
    # A 2 us dead time against 1 MHz drives: most arrivals are suppressed.
    "er-snspd-dead-time": {
        "name": "er-snspd-dead-time",
        "seed": 14,
        "duration": 5e-5,
        "profile": "superconducting-4K",
        "network": {"er": {"n": 200, "mean_degree": 10.0}},
        "link": {**SNSPD_LINK, "receiver": {**SNSPD_LINK["receiver"], "reset_time": 2e-6}},
        "neuron": NEURON,
        "synapse": {"tau": 1e-6, "weight": 0.7},
        "inputs": [{"neuron": v, "rate": 1e6} for v in range(0, 200, 10)],
    },
    "er-photodiode-deterministic": {
        "name": "er-photodiode-deterministic",
        "seed": 15,
        "duration": 2e-4,
        "profile": "semiconductor-300K",
        "network": {"er": {"n": 200, "mean_degree": 10.0}},
        "link": {**PHOTODIODE_LINK, "stochastic": False},
        "neuron": NEURON,
        "synapse": {"tau": 1e-6, "weight": 0.45},
        "inputs": [{"neuron": v, "rate": 1e5} for v in range(0, 200, 10)],
    },
    # Poisson-threshold photodiodes without plasticity, and a per-spike soma cost.
    "er-photodiode-poisson": {
        "name": "er-photodiode-poisson",
        "seed": 18,
        "duration": 2e-4,
        "profile": "semiconductor-300K",
        "network": {"er": {"n": 200, "mean_degree": 12.0}},
        "link": {**PHOTODIODE_LINK, "n_ph": 4950.0},
        "neuron": NEURON,
        "synapse": {"tau": 1e-6, "weight": 0.45},
        "energy": {"per_spike_overhead": 1e-15},
        "inputs": [{"neuron": v, "rate": 1e5} for v in range(0, 200, 10)],
    },
    "ring-mixed-overrides": {
        "name": "ring-mixed-overrides",
        "seed": 16,
        "duration": 2e-4,
        "profile": "superconducting-4K",
        "network": {"n": 40, "edges": _ring_edges(40, (1, 3, 7, 12, 20), _mixed_override)},
        "link": SNSPD_LINK,
        "neuron": NEURON,
        "synapse": {"tau": 5e-7, "weight": 0.5, "memory_kind": "loop", "bits": 8},
        "energy": {"i_c": 300e-6},
        "inputs": [{"neuron": v, "rate": 2e5} for v in (0, 9, 18, 27)]
        + [{"neuron": 33, "times": [5e-6, 5e-6, 1e-5, 2e-6]}],
    },
}

# scenario -> (sha256 of spikes.csv, sha256 of ledger.json)
GOLDEN = {
    "ledger-fanout": (
        "383da0994eac702d388330c2db177291e26188a511ab7374aece0d47f07d4cd4",
        "a5ab2c451f79ead4f0f08ccd2b079043709aa2b8932385322c0464e2dcb6bb70",
    ),
    "poisson-link": (
        "4756cf480f544dc6547cfc0e5a4057914a75f51fec27081851fd3d0d1961c35f",
        "3499af21f2a933f3f09419675f583de36056b5d9627a1a96537ed58dcb816325",
    ),
    "two-synapse-coincidence": (
        "133e592a6cf6334bb8daacb5096a7dc3021e7a72b0319c3a5ce92b068a0502fa",
        "83c6112f491a292f49836c6e522b7a453e5a779b7f63b0cf35d79b2080c63648",
    ),
    "er-snspd-loop": (
        "9b614bd5bf63a16f714d4e774cf9f71169fde17d07da8f7fa39c3b627876726a",
        "ce15b2342d543cec60cc665ad787c85bf2916be519f829a4387f14ec8e17a33a",
    ),
    "er-photodiode-stdp": (
        "247b4ccc732fb23047fff26accd027cbf8a9a9740ada19d89d85e84f81f14284",
        "f00e72d7f28fbd69ba7cf7c16bbbb62572d23f78fd6a4bef8031ceb0f1bcf60a",
    ),
    "er-delay0-cascade": (
        "e085ce0905e75e1c788c9416041f81db7f736e35aacd6d0635ca52c27b2137cf",
        "7ff50549c1da9ff260a2b912fed89fe5bd7eb8dd38470128cb0abed699513427",
    ),
    "er-snspd-dead-time": (
        "108a1df4a60917549a89e961e936ec653a2d17be72062a965fbc8eadfdce5870",
        "5a20ae7c29b7808f92cc2885fb84edcc3246dffbb875f13b36b969f8980b9249",
    ),
    "er-photodiode-deterministic": (
        "906b1666a30cb41b3789175331bbc12d39081d063ab3c57682ec2b8a663c96e1",
        "72d47ca3c78a73e9c5748fe1a4013dc7b517f0b9a4ff7641ccccd7488c7f3f77",
    ),
    "er-photodiode-poisson": (
        "921a45f0a247e4ca170974d35e7822aa2fae21bd407b4e5f47e70fa1f801dc01",
        "611e07d349b6c7d48c8b714689bac0b1a71f0fddc9541d93288f1ecc011b0733",
    ),
    "ring-mixed-overrides": (
        "79f7155860bfa556a3198b9b5537c22770628af37e1e7d1d50ee0c61f59ccda0",
        "1ccbd2bafeef9aa80256c91d0cdb490bf1eac2326e42f169addf37539c67586d",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_bundled_scenario_is_pinned():
    assert set(bundled_scenario_names()) <= set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digests(name, tmp_path, capsys):
    config = name
    if name in ER_SCENARIOS:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(ER_SCENARIOS[name]))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    got = (_sha256(out / "spikes.csv"), _sha256(out / "ledger.json"))
    assert got == GOLDEN[name], f"new digests for {name!r}: {got!r}"


# sha256 of the JSON of run()'s three results on repeated_pair_run().
REPEATED_PAIR_RUN = "b2fe26fd193951acd482d56e42e324cf0f1fe287cccc10bdf4d4020d5e5d1275"


def repeated_pair_run(simulate=run):
    """A spike of neuron 0 reaches neuron 3 twice and neuron 4 three times."""
    pre = [0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 4]
    post = [3, 4, 3, 4, 4, 5, 3, 5, 4, 5, 1, 2]
    graph = NetworkGraph(n=6, pre=np.array(pre), post=np.array(post))
    config = SimConfig(
        duration=1e-4,
        seed=17,
        link=OpticalLink(wavelength=1.5e-6, eta=0.01, n_ph=3.0, receiver=SnspdReceiver(eta_d=0.7)),
        neuron=NeuronParams(threshold=1.0, refractory=5e-8, transmit_delay=5e-8),
        synapse=SynapseDefaults(tau=5e-7, weight=0.4, memory_kind="loop", bits=6),
        synapse_overrides={(0, 4): {"weight": 0.3, "memory_kind": "analog"}, (1, 5): {"inhibitory": True}},
        inputs=(InputDrive(neuron=0, rate=3e5), InputDrive(neuron=1, rate=1e5)),
    )
    spikes, ledger, report = simulate(graph, config)
    doc = {
        "spikes": [spikes.neurons, spikes.times],
        "ledger": ledger.as_dict(config.profile),
        "report": report.as_dict(),
    }
    return json.dumps(doc, sort_keys=True)


def test_run_on_repeated_pairs_matches_golden_digest():
    got = hashlib.sha256(repeated_pair_run().encode()).hexdigest()
    assert got == REPEATED_PAIR_RUN, f"new digest: {got!r}"
