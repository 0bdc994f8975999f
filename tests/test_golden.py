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

The closed-form verbs are pinned by their standard output: every
``calc`` formula, with a fixed value for each required parameter, and
``membench`` on the bundled table, each in text and in JSON.

A change that alters the bytes on purpose updates the table below from
the digests the failing test prints, and says so.
"""

import hashlib
import json

import pytest

from oesnn import cli
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
    "--n 2000 --k 16 --seeds 10 --seed 0": "266e33e32637fdec5ff265dcf4fe11f879101a09874bc0b802aa212f6b9b695a",
    # n > 5000 falls back to 1000 sampled sources per graph.
    "--n 6000 --k 8 --seeds 2 --seed 0": "1e9ee1e43acedad315e2a8c4b59186394966d726c1e1bb405957e499d5456a29",
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


# A value for every required calc parameter, valid in each formula that takes it.
CALC_REQUIRED = {
    "nph": 7.0, "etad": 0.7, "p": 0.99, "energy": 1e-15, "rate": 1e6, "n": 1e6, "L": 3.0, "k": 200.0,
    "cold": 1.0, "e": 1e-15, "wsy": 10e-6, "c": 1e-12, "w": 10e-6,
}
# calc formula -> (sha256 of the text output, sha256 of the --format json output)
CALC_GOLDEN = {
    "carnot": (
        "1d2fa136d69d4da1543a5e87fb5ce1d2f0d27ff5267208e9a48248eac0563188",
        "eac1502fd679609b6a66270488e108e00ade4eee0447553b00b08694378a4b23",
    ),
    "density-rate": (
        "1c66b524a9ad9bfdfbe56ffc877cb7e99a1ded58eff48488cfc3fb7676eab923",
        "e98f25c11d4fc288bbccf7239e375620321137def7524b14a940d4f7ced1bc58",
    ),
    "eq1": (
        "60b9ce8951936b142a6c654e997e7a21493a50c5981ece11971c38de63a28ee5",
        "2d81e86c68f1210bbe29de1edbca3052b5dac297a298ca8b9b279fdc1a28cb74",
    ),
    "eq2": (
        "c9eab09ee5d9d2545503e3fa9fee9035f85accb7ab3651fa0026968422ea84c3",
        "1e4a08734ae295c24d493c7922fa18a057adc08a4a37944d5ce305e4700a1d98",
    ),
    "eq3": (
        "99ba4e4e45d81162b1e0e9e2b2e443e95bc30b0cf51fb8ea023e3e0cb5728421",
        "070440bdf9bee655ea884b5d94b43fec904295b350fa4b02aca7f252e7a18035",
    ),
    "eq4": (
        "4753b243abd0e16eaf66b23b8940fcf4e82bd567b0b2e24cd0466b4bd79ca130",
        "19278f898015a300b7a3aa266c4e6454dbbf93e8f1c7dafd340888eedeefc428",
    ),
    "eq5": (
        "706eccaa65bd731dd63199cdb39821e22cde31b719d91e604515f6813332758a",
        "b5ae935e0be3b75b1488ea98bc9cfa2aeaee08011b6135fd5cd08538d4bb7e27",
    ),
    "eq6": (
        "8f82bfce4d9ffcef1ff89645eadbf04e878147dd2f9c3125106b5187af025998",
        "2491868d58e1745885d6f1db5c4a81b381c712379cccfb039e84987c38d709e5",
    ),
    "eq7": (
        "ddf3c1b1ff09d1112870903cb438106745ef25869c8665e43076c2309a07e430",
        "94b459c152450d4bbb8af14fa5c2b5c65df5bc11d1280c8f13a688126ea5f55a",
    ),
    "eq8": (
        "567d52d323ea015a98b8f3f9b9021e78f49633aa3c1de46c015fb9006a5d3c04",
        "4710358aa6f93d6f712d561125bbfbea0a10064b9877754d85fb0b3fbad8a8ca",
    ),
    "fluxons": (
        "e737bd1bde33287a9bc9c57f3b8d79305a4217c9b1ac2d125055f949e74c97f1",
        "039d7170e3bddddd31c9f922f00cec0e6b36d037f7f0f210e6ef57e23bc8b732",
    ),
    "max-rate": (
        "4e9149413d8de4b7f1364383f81f1ed5a537be9b1fa5e2ee1dfc0019e1bedd08",
        "abd0577e456252bef4326dc87662b7610de922ddb33b3f0ab5f43f5bcf1cd6c5",
    ),
    "path-length": (
        "f246bc5c2616969e0fffff7031780c05a2de2387a63fef3fb6016079dc6a7df2",
        "a0d2e450b8235db69805b50f03bd19a45929a2e17d6288e0ca059facd7736b21",
    ),
    "photons": (
        "eb9e68c4eb0dd0e83a0d434713be946a619dfa31e8c0a8ef192cf2f8a52abd46",
        "4866bcb127263345d64936095945c5e8d8c1c94025f503a0e0dd881803e97593",
    ),
    "planes": (
        "7858b49aef95cb1ba8db6a96b57d5873a95796869a3ae490d444830f55115243",
        "0435c531444b9c362c09fcf8a3a4652ffbcdf03684e94b8e547ab001295e9ed4",
    ),
    "reset-energy": (
        "5ba56ab0145fe5db2fcd8d7d4990710911e6b0aff54e5d7bfbec5ad97aefd091",
        "7125cdd8f1dc7f2c906c268744c602b3d76848cc69ca89634fadf65e7750d9b6",
    ),
    "squid": (
        "80c0fbd80549d1e1c5a8bd2153c45bc01951c3c1351fc4ac69daf6b4e3e45665",
        "bd320602eeda2d582236ab6da2e12360f3a2bcb5c0335dfdb59a31081b74ea99",
    ),
    "static-crossover": (
        "ef252226d5b406e38a97b9cbe92b23f71519e87dcc39f079a3c8e469dac5e67c",
        "b96abd5c158c95b65d32c760fb218a1c7a55f38a460271acb5bc2e702b626aca",
    ),
    "static-power": (
        "61e4a90420b5080d50f1c060fcc9c9ff6f7fcf11dc0ef18f0d4bb48e603a2617",
        "de6cb4987ca39fd4695a27b1d19dc36b338c6fac97d2edf7712505a748abecc8",
    ),
    "tau-cmos": (
        "2dfd54bfcd6a63310248916e1ce0f95bf29c8afa41ef0f4c777350024f28e9ae",
        "4b98f9c9a0445d3bd2a818b1d06e7ad890fd41e1c1024d7cb04bc88b845237ec",
    ),
    "tau-dpi": (
        "4c14251ee12804a3e02f7a058af1e9b60ec159469564c8d56c99cc5a0e102f9a",
        "53414844ebd520584374215b0b1f1b40648e867c9e47aa22c90c3d5cb5599e54",
    ),
    "tau-sc": (
        "e9551d5b9c48132e8cd06d33c57febef278e138f07a91f22df65ce664f3ee72a",
        "73d14e751afbc20d02f6a87eeea620af21fc27ee9e0742ed7bb962a62198ed22",
    ),
    "tx-power": (
        "81aa9604a420c45e0802576df6609a11f613420306c32c800196ea2a00c61d64",
        "9a7846fccab2bcbfd34e16ad64ebde963d52a10f7e8b2b6737fc851cb1790d95",
    ),
    "wall": (
        "7d298b5a76662085d674e0dd1b357cb64a224c04c5afeadef18a6bf6e0383475",
        "6376b0f3253afeb67a174d6071d3c6cd44b60f7e5741570bea20509f8e1f30e9",
    ),
}


def _stdout_sha256(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_calc_formula_is_pinned():
    assert sorted(CALC_GOLDEN) == sorted(cli.FORMULAS)


@pytest.mark.parametrize("formula", sorted(CALC_GOLDEN))
def test_calc_output_matches_golden_digests(formula, capsys):
    required = [k for k, (default, _) in cli.FORMULAS[formula].params.items() if default is None]
    argv = ["calc", formula, *(a for k in required for a in (f"--{k}", repr(CALC_REQUIRED[k])))]
    got = (_stdout_sha256(capsys, argv), _stdout_sha256(capsys, [*argv, "--format", "json"]))
    assert got == CALC_GOLDEN[formula], f"new digests for calc {formula}: {got!r}"


# membench --format -> sha256 of its output on the bundled table
MEMBENCH_GOLDEN = {
    "json": "6c7d293ebf3ae4ba522fda2dc7a5c463df96f5c2efe8c1d7c7f29055e0672878",
    "text": "534acbf5ebb779a9e2d0d3f3c2e9aa65fcac85dd015a324694965d92c2fbc7a9",
}


@pytest.mark.parametrize("fmt", sorted(MEMBENCH_GOLDEN))
def test_membench_output_matches_golden_digests(fmt, capsys):
    got = _stdout_sha256(capsys, ["membench", "--format", fmt])
    assert got == MEMBENCH_GOLDEN[fmt], f"new digest for membench --format {fmt}: {got!r}"
