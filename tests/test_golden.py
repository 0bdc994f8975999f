"""Golden sha256 digests of ``spikes.csv`` and ``ledger.json``.

The simulator promises byte-identical outputs for a fixed seed, across
changes to how it is written as well as across repeated runs.  These
digests pin the bytes of every bundled scenario and of small scenarios
that reach the paths the bundled ones do not: loop memory with fluxon
accounting on single-photon detectors; Poisson-threshold photodiodes,
with STDP on noisy, endurance-limited analog memory and without; a zero
transmit delay, so that spikes cascade within one instant; heavy detector
dead-time suppression; deterministic photodiodes; mixed loop and analog
edge overrides with inhibitory edges; STDP on loop memory over
enough synapses that the ledger's rows span several writer blocks;
out-degrees on both sides of the event loop's scalar batch cut; and a
Poisson drive whose first chunk of gaps is drawn in several slices,
merged with a second drive.

The path oracle behind ``validate-eq6`` is pinned the same way: the bytes
of its CSV for an exact all-source run (the criterion-08 shape) and for a
run large enough to fall back to sampled sources, and the exact floats of
one sampled ``PathStats``, whose ``mean_stderr`` is built from the
per-source counts and appears in no CSV.

A change that alters the bytes on purpose updates the table below from
the digests the failing test prints, and says so.
"""

import hashlib
import json

import pytest

from oesnn.cli import main
from oesnn.config import bundled_scenario_names
from oesnn.netgen import average_shortest_path, generate_er

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


def _edges(pairs, spec) -> list[dict]:
    """Edges ``pre -> post`` of ``pairs`` in order, each with the overrides ``spec(index)``."""
    return [{"pre": pre, "post": post, **spec(k)} for k, (pre, post) in enumerate(pairs)]


def _ring_edges(n: int, hops, spec) -> list[dict]:
    """Edges ``i -> i + hop (mod n)``, each with the overrides ``spec(index)``."""
    return _edges([(i, (i + hop) % n) for i in range(n) for hop in hops], spec)


def _er_edges(n: int, mean_degree: float, seed: int, spec) -> list[dict]:
    """The edges of ``generate_er(n, mean_degree, seed)`` in its order, each with the overrides ``spec(index)``."""
    graph = generate_er(n, mean_degree, seed)
    return _edges(zip(graph.pre.tolist(), graph.post.tolist()), spec)


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
    # STDP on loop memory over about 8k synapses: the per-synapse rows span
    # several of the ledger writer's blocks, with levels that STDP wrote.
    "er-loop-stdp-chunks": {
        "name": "er-loop-stdp-chunks",
        "seed": 17,
        "duration": 2e-4,
        "profile": "superconducting-4K",
        "network": {"er": {"n": 700, "mean_degree": 24.0}},
        "link": SNSPD_LINK,
        "neuron": NEURON,
        "synapse": {"tau": 1e-6, "weight": 0.42, "memory_kind": "loop", "bits": 6},
        "plasticity": {"kind": "stdp", "a_plus": 1, "a_minus": 2, "tau_plus": 1e-6, "tau_minus": 1e-6},
        "energy": {"i_c": 300e-6},
        "inputs": [{"neuron": v, "rate": 1e5} for v in range(0, 700, 25)],
    },
    # Out-degrees from 15 to 49, so that batches take both of the event
    # loop's arrival handlers; a dead time, and every third edge inhibitory.
    "er-straddle-cut": {
        "name": "er-straddle-cut",
        "seed": 19,
        "duration": 1e-5,
        "profile": "superconducting-4K",
        "network": {"n": 300, "edges": _er_edges(300, 64.0, 19, lambda k: {"inhibitory": True} if k % 3 == 0 else {})},
        "link": {**SNSPD_LINK, "receiver": {**SNSPD_LINK["receiver"], "reset_time": 1e-6}},
        "neuron": NEURON,
        "synapse": {"tau": 1e-6, "weight": 0.3, "memory_kind": "loop", "bits": 8},
        "energy": {"i_c": 300e-6},
        "inputs": [{"neuron": v, "rate": 1e6} for v in range(0, 300, 15)],
    },
    "rate-drive-slices": {
        "name": "rate-drive-slices",
        "seed": 5,
        "duration": 1e-3,
        "profile": "superconducting-4K",
        "network": {"n": 3, "edges": [{"pre": 0, "post": 1}, {"pre": 2, "post": 1}]},
        "link": SNSPD_LINK,
        "neuron": NEURON,
        "inputs": [{"neuron": 0, "rate": 1e7, "start": 1e-5}, {"neuron": 2, "rate": 1e5}],
    },
}

# scenario -> (sha256 of spikes.csv, sha256 of ledger.json)
GOLDEN = {
    "ledger-fanout": (
        "383da0994eac702d388330c2db177291e26188a511ab7374aece0d47f07d4cd4",
        "6fd74e95fe7999de6f30a65d29108df9603e1be0488bf78f19eb6674120a701b",
    ),
    "poisson-link": (
        "4756cf480f544dc6547cfc0e5a4057914a75f51fec27081851fd3d0d1961c35f",
        "e6472f7190596791ba1c2fb8d399fc547ae95add0ab76c896e008ea6747cbecd",
    ),
    "two-synapse-coincidence": (
        "133e592a6cf6334bb8daacb5096a7dc3021e7a72b0319c3a5ce92b068a0502fa",
        "83c6112f491a292f49836c6e522b7a453e5a779b7f63b0cf35d79b2080c63648",
    ),
    "er-snspd-loop": (
        "9b614bd5bf63a16f714d4e774cf9f71169fde17d07da8f7fa39c3b627876726a",
        "d1728740ece7cfd3342cb6e42a9d004332071ee61589a41d4ed08429e67e8357",
    ),
    "er-photodiode-stdp": (
        "247b4ccc732fb23047fff26accd027cbf8a9a9740ada19d89d85e84f81f14284",
        "a234c4a33ed1ca5ee2595e0a309af3eee36df7f3afa843e085de8607b3608a47",
    ),
    "er-delay0-cascade": (
        "e085ce0905e75e1c788c9416041f81db7f736e35aacd6d0635ca52c27b2137cf",
        "22b28bdad50d44da29f7ee6deb49799f12529b7dd84363d6ab4b18de43fa347a",
    ),
    "er-snspd-dead-time": (
        "108a1df4a60917549a89e961e936ec653a2d17be72062a965fbc8eadfdce5870",
        "fcc4d51c34e413a38fe2f0216d531605b1fc6ef2fff94697802cd571e3f3c236",
    ),
    "er-photodiode-deterministic": (
        "906b1666a30cb41b3789175331bbc12d39081d063ab3c57682ec2b8a663c96e1",
        "a2839d7ee24661c6a727599942e1f40985367bb1ca8721ca4b3133a1206d163a",
    ),
    "er-photodiode-poisson": (
        "921a45f0a247e4ca170974d35e7822aa2fae21bd407b4e5f47e70fa1f801dc01",
        "942adbd58b0492ab1c0e1ffa8bf2082c3f48141a0123d1c1a432c3a279b98eba",
    ),
    "ring-mixed-overrides": (
        "79f7155860bfa556a3198b9b5537c22770628af37e1e7d1d50ee0c61f59ccda0",
        "7db5ef7c6d62c6a1aa60e384177723fc838e0e37e3a3719f035fe36daad62a4d",
    ),
    "er-loop-stdp-chunks": (
        "9f38d22c0fddde9ed115fae0b2fe7392365479c54295f675e7f858eb47193282",
        "5f773106a04c912c06c58afd1879dd550250a2ecae7babc3aa142c391ab8fa6a",
    ),
    "er-straddle-cut": (
        "684103ae55873965acf074f55c3091715ce80102f056eb4e50360efe7a4ec2d2",
        "b86011f84c657da8c40cc78c03fd6daf5081d828777921673ebdf9dec10e0252",
    ),
    "rate-drive-slices": (
        "a3423b777f5999ca90959c4b57ac7cc84ed376eb95fc8b71dd53bb3ac70ccdb1",
        "01774aef084a4b3b05dad01521b1a409fc5c4c4430967200e217447fd10c2309",
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


# validate-eq6 arguments -> sha256 of path-model-validation.csv
VALIDATE_GOLDEN = {
    "--n 2000 --k 16 --seeds 10 --seed 0": "4c3418a71e5eeee84ff30b01438e6f8ee4647420e694c30560f8ebbab5690ed4",
    # n > 5000 falls back to 1000 sampled sources per graph.
    "--n 6000 --k 8 --seeds 2 --seed 0": "1f30db677eb715479478188cd8e121ef5a851193341f0e236c0fd2a064efe639",
}


@pytest.mark.parametrize("args", sorted(VALIDATE_GOLDEN))
def test_validate_eq6_bytes_match_golden_digests(args, tmp_path, capsys):
    assert main(["validate-eq6", *args.split(), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = _sha256(tmp_path / "path-model-validation.csv")
    assert got == VALIDATE_GOLDEN[args], f"new digest for validate-eq6 {args}: {got!r}"


def test_sampled_path_stats_match_golden_floats():
    stats = average_shortest_path(generate_er(6000, 8, seed=3))
    assert (stats.diameter, stats.sources) == (7, 1000)
    assert stats.mean_shortest_path.hex() == "0x1.1a6793313b8c4p+2"
    assert stats.reachable_fraction.hex() == "0x1.ffbe73fcc1bd3p-1"
    assert stats.mean_stderr.hex() == "0x1.aa802f154928ap-8"
