"""Workload inputs, generated from the benchmark seed.

Each workload is one closed-loop batch job of the ``oesnn`` command line.
The simulate workloads get a scenario document; ``path-oracle`` gets the
arguments of a ``validate-eq6`` job.  The same seed always gives the same
inputs, and the program sees nothing but those inputs.
"""

from __future__ import annotations

import numpy as np

# Paper-regime fan-out: mean degree 200 is what required_degree(1e6, 3)
# asks for, so each neuron drives about 100 loop-memory synapses.
FANOUT_SC = {"n": 2000, "mean_degree": 200.0, "inputs": 10, "rate": 1e5, "duration": 1e-3}
# Plastic semiconductor network: receiverless photodiodes, Poisson-threshold
# detection and pair-based STDP on endurance-limited analog memory.
STDP_SEMI = {"n": 1000, "mean_degree": 20.0, "inputs": 100, "rate": 1e5, "duration": 1e-3}
# Criterion-08 job: exact BFS over ten seeded G(n, p) graphs.
PATH_ORACLE = {"n": 2000, "k": 16, "graphs": 10}

# Small inputs of the same shape, run once per process tree to compile
# bytecode and warm the file cache; their timings are discarded.
WARMUP = {
    "fanout-sc": {"n": 200, "mean_degree": 20.0, "inputs": 2, "rate": 1e5, "duration": 1e-4},
    "stdp-semi": {"n": 200, "mean_degree": 10.0, "inputs": 10, "rate": 1e5, "duration": 1e-4},
    "path-oracle": {"n": 300, "k": 8, "graphs": 1},
}

WORKLOADS = ("fanout-sc", "stdp-semi", "path-oracle")

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


def _draws(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _poisson_inputs(rng: np.random.Generator, shape: dict) -> list[dict]:
    neurons = np.sort(rng.choice(shape["n"], size=shape["inputs"], replace=False))
    return [{"neuron": int(v), "rate": shape["rate"]} for v in neurons]


def fanout_sc(seed: int, shape: dict = FANOUT_SC) -> dict:
    rng = _draws("fanout-sc", seed)
    return {
        "name": "fanout-sc",
        "seed": int(rng.integers(0, 2**62)),
        "duration": shape["duration"],
        "profile": "superconducting-4K",
        "network": {"er": {"n": shape["n"], "mean_degree": shape["mean_degree"]}},
        "link": SNSPD_LINK,
        "neuron": NEURON,
        "synapse": {"tau": 1e-7, "weight": 0.3, "memory_kind": "loop", "bits": 8},
        "energy": {"i_c": 300e-6},
        "inputs": _poisson_inputs(rng, shape),
    }


def stdp_semi(seed: int, shape: dict = STDP_SEMI) -> dict:
    rng = _draws("stdp-semi", seed)
    return {
        "name": "stdp-semi",
        "seed": int(rng.integers(0, 2**62)),
        "duration": shape["duration"],
        "profile": "semiconductor-300K",
        "network": {"er": {"n": shape["n"], "mean_degree": shape["mean_degree"]}},
        "link": PHOTODIODE_LINK,
        "neuron": NEURON,
        "synapse": {"tau": 1e-6, "weight": 0.45, "memory_kind": "analog", "endurance": 32},
        "plasticity": {"kind": "stdp", "a_plus": 0.02, "a_minus": 0.021, "tau_plus": 2e-5, "tau_minus": 2e-5},
        "inputs": _poisson_inputs(rng, shape),
    }


def path_oracle(seed: int, shape: dict = PATH_ORACLE) -> list[str]:
    base = int(_draws("path-oracle", seed).integers(0, 2**62))
    return [
        "validate-eq6",
        "--n", str(shape["n"]),
        "--k", str(shape["k"]),
        "--seeds", str(shape["graphs"]),
        "--seed", str(base),
    ]
