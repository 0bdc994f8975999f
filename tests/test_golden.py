"""Golden sha256 digests of ``spikes.csv`` and ``ledger.json``.

The simulator promises byte-identical outputs for a fixed seed, across
changes to how it is written as well as across repeated runs.  These
digests pin the bytes of every bundled scenario and of two small ER
scenarios that reach the paths the bundled ones do not: loop memory with
fluxon accounting on single-photon detectors, and Poisson-threshold
photodiodes with STDP on noisy, endurance-limited analog memory.

A change that alters the bytes on purpose updates the table below from
the digests the failing test prints, and says so.
"""

import hashlib
import json

import pytest

from oesnn.cli import main
from oesnn.config import bundled_scenario_names

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
