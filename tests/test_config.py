import copy
import json
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oesnn.cli import main
from oesnn.config import build_scenario, bundled_scenario_names, load_scenario, validate_scenario
from oesnn.errors import ConfigError
from oesnn.linkbudget import SnspdReceiver
from oesnn.simulator import run


def minimal_doc():
    return {
        "seed": 1,
        "duration": 1e-3,
        "network": {"n": 2, "edges": [{"pre": 0, "post": 1}]},
        "link": {"n_ph": 7.0, "eta": 0.01},
    }


class TestBundled:
    def test_names_present(self):
        names = bundled_scenario_names()
        assert {"two-synapse-coincidence", "poisson-link", "ledger-fanout"} <= set(names)

    def test_all_bundled_validate(self):
        for name in bundled_scenario_names():
            doc = load_scenario(name)
            assert validate_scenario(doc) == []

    def test_missing_scenario_reports_names(self):
        with pytest.raises(ConfigError) as err:
            load_scenario("/no/such/file.json")
        assert "two-synapse-coincidence" in str(err.value)

    @pytest.mark.parametrize(
        "kind, problem",
        [
            ("directory", "cannot read scenario file: Is a directory"),
            ("not-utf8", "not UTF-8 text: invalid start byte at byte 0"),
        ],
    )
    def test_unreadable_file_is_config_error(self, tmp_path, kind, problem):
        path = tmp_path / "scenario.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError) as err:
            load_scenario(str(path))
        assert err.value.problems == [f"{path}: {problem}"]


class TestValidation:
    def test_minimal_valid(self):
        assert validate_scenario(minimal_doc()) == []

    def test_unknown_keys_rejected_everywhere(self):
        doc = minimal_doc()
        doc["extra"] = 1
        doc["link"]["gain"] = 2
        doc["network"]["edges"][0]["speed"] = 3
        problems = validate_scenario(doc)
        assert len(problems) == 3
        assert any("scenario: unknown key 'extra'" in p for p in problems)
        assert any("link: unknown key 'gain'" in p for p in problems)
        assert any("network.edges[0]: unknown key 'speed'" in p for p in problems)

    def test_all_violations_reported_at_once(self):
        doc = {
            "seed": "not-a-number",
            "duration": -1,
            "profile": "no-such-profile",
            "network": {"n": 2, "edges": [{"pre": 0, "post": 5}, {"pre": 1, "post": 1}]},
            "inputs": [{"neuron": 9, "times": [1e-6], "rate": 1.0}],
        }
        problems = validate_scenario(doc)
        assert len(problems) >= 6

    def test_self_loop_rejected(self):
        doc = minimal_doc()
        doc["network"]["edges"].append({"pre": 1, "post": 1})
        assert any("self-loop" in p for p in validate_scenario(doc))

    def test_build_raises_config_error_with_every_problem(self):
        doc = minimal_doc()
        doc["duration"] = -1
        doc["unknown"] = True
        with pytest.raises(ConfigError) as err:
            build_scenario(doc)
        assert len(err.value.problems) == 2

    def test_snspd_link_requires_photon_count(self):
        doc = minimal_doc()
        del doc["link"]["n_ph"]
        assert any("link.n_ph" in p for p in validate_scenario(doc))
        doc["link"] = {"eta": 0.5, "receiver": {"kind": "photodiode"}}
        assert validate_scenario(doc) == []  # implied count covers photodiodes

    def test_probability_like_fields_bounded(self):
        doc = minimal_doc()
        doc["link"]["eta"] = 1.5
        doc["network"]["edges"][0]["weight"] = 2.0
        problems = validate_scenario(doc)
        assert any("link.eta" in p for p in problems)
        assert any("weight" in p for p in problems)

    def test_stochastic_must_be_boolean(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["link"]["stochastic"] = "no"
        assert validate_scenario(doc) == ["link.stochastic: expected a boolean"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 3
        assert "link.stochastic" in capsys.readouterr().err

    def test_duplicate_edges_rejected(self):
        doc = load_scenario("two-synapse-coincidence")
        doc["network"]["edges"].append({"pre": 0, "post": 2, "weight": 0.0})
        assert validate_scenario(doc) == ["network.edges[2]: duplicate edge 0->2, first at edges[0]"]
        with pytest.raises(ConfigError):
            build_scenario(doc)
        doc["network"]["edges"][2] = {"pre": 2, "post": 0}  # the reverse direction is another synapse
        assert validate_scenario(doc) == []

    def test_edge_bits_at_most_ten(self):
        doc = minimal_doc()
        doc["network"]["edges"][0].update({"memory_kind": "loop", "bits": 11})
        assert validate_scenario(doc) == ["network.edges[0].bits: must be <= 10, got 11"]

    def test_er_degree_at_most_n_minus_one(self):
        doc = minimal_doc()
        doc["network"] = {"er": {"n": 10, "mean_degree": 9.5}}
        assert validate_scenario(doc) == ["network.er.mean_degree: must be at most n - 1"]

    def test_cross_field_violation_reported_as_config_error(self):
        doc = minimal_doc()
        doc["synapse"] = {"tau": 1e-6, "memory_kind": "loop", "bits": 10}
        doc["network"]["edges"][0]["level"] = 5000  # beyond 2**bits
        with pytest.raises(ConfigError):
            build_scenario(doc)


class TestBuild:
    def test_explicit_network(self):
        graph, config = build_scenario(minimal_doc())
        assert graph.n == 2 and graph.edge_count == 1
        assert isinstance(config.link.receiver, SnspdReceiver)
        assert config.profile.name == "superconducting-4K"

    def test_er_network(self):
        doc = {
            "seed": 5,
            "duration": 1e-3,
            "network": {"er": {"n": 100, "mean_degree": 6}},
            "link": {"n_ph": 7.0},
        }
        graph, config = build_scenario(doc)
        assert graph.n == 100
        assert graph.edge_count > 0

    def test_edge_overrides_flow_through(self):
        doc = minimal_doc()
        doc["network"]["edges"][0].update({"weight": 0.25, "memory_kind": "loop", "bits": 4})
        graph, config = build_scenario(doc)
        _, _, report = run(graph, config)
        assert report.levels[0] == round(0.25 * 15)

    def test_photodiode_receiver(self):
        doc = minimal_doc()
        doc["link"] = {
            "eta": 0.01,
            "receiver": {"kind": "photodiode", "c_tot": 1e-15, "v_swing": 0.8},
        }
        doc["profile"] = "semiconductor-300K"
        graph, config = build_scenario(doc)
        assert config.link.stochastic is False
        assert config.profile.name == "semiconductor-300K"

    def test_stdp_block(self):
        doc = minimal_doc()
        doc["plasticity"] = {"kind": "stdp", "a_plus": 2.0, "tau_plus": 1e-4}
        _, config = build_scenario(doc)
        assert config.plasticity is not None
        assert config.plasticity.a_plus == 2.0
        assert config.plasticity.tau_plus == 1e-4


def simulate_exit_code(doc, tmp_path, *argv):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return main(["simulate", "--config", str(path), "--out", str(tmp_path), *argv])


class TestSchemaFromRecords:
    def test_inhibitory_must_be_boolean(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["synapse"] = {"inhibitory": "no"}
        assert validate_scenario(doc) == ["synapse.inhibitory: expected a boolean"]
        assert simulate_exit_code(doc, tmp_path) == 3
        doc = minimal_doc()
        doc["network"]["edges"][0]["inhibitory"] = "false"
        assert validate_scenario(doc) == ["network.edges[0].inhibitory: expected a boolean"]
        assert simulate_exit_code(doc, tmp_path) == 3
        assert "inhibitory" in capsys.readouterr().err

    def test_synapse_bits_listed_with_other_problems(self):
        doc = minimal_doc()
        doc["duration"] = -1
        doc["synapse"] = {"memory_kind": "loop", "bits": 12}
        doc["network"]["edges"][0].update({"bits": 11, "level": 1500})
        assert validate_scenario(doc) == [
            "scenario.duration: must be > 0, got -1",
            "synapse.bits: must be <= 10, got 12",
            "network.edges[0].bits: must be <= 10, got 11",
        ]

    @pytest.mark.parametrize(
        "where, key",
        [("scenario", "duration"), ("inputs", "rate"), ("neuron", "threshold"), ("inputs", "times")],
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_numbers_must_be_finite(self, tmp_path, where, key, value):
        doc = load_scenario("poisson-link")
        if where == "inputs":
            doc["inputs"] = [{"neuron": 0, key: [value] if key == "times" else value}]
        else:
            (doc if where == "scenario" else doc[where])[key] = value
        problems = validate_scenario(doc)
        assert len(problems) == 1 and "expected a finite number" in problems[0]
        assert simulate_exit_code(doc, tmp_path) == 3

    def test_stochastic_photodiode_photons_bounded(self, tmp_path):
        doc = load_scenario("two-synapse-coincidence")
        doc["link"] = {"eta": 0.01, "n_ph": 1e30, "stochastic": True, "receiver": {"kind": "photodiode"}}
        problems = validate_scenario(doc)
        assert len(problems) == 1
        assert problems[0].startswith("link: n_ph: a stochastic photodiode link takes at most")
        assert simulate_exit_code(doc, tmp_path) == 3
        doc["link"]["n_ph"] = 5000.0
        assert validate_scenario(doc) == []
        assert simulate_exit_code(doc, tmp_path) == 0

    def test_null_means_absent(self):
        doc = minimal_doc()
        doc["neuron"] = {"threshold": None, "tau_soma": None}
        doc["link"].update({"eta": None, "stochastic": None, "receiver": {"eta_d": None}})
        doc["synapse"] = {"tau": None, "inhibitory": None, "memory_kind": None}
        doc["plasticity"] = {"kind": "stdp", "a_plus": None, "on_exhaustion": None}
        doc["energy"] = None
        doc["network"]["edges"][0]["weight"] = None
        graph, config = build_scenario(doc)
        assert config.neuron.threshold == 1.0 and config.link.eta == 1.0
        assert config.link.receiver.eta_d == 0.7 and config.synapse.tau == 1e-6
        assert config.plasticity.a_plus == 4.0 and config.synapse_overrides == {}
        doc["seed"] = None
        assert validate_scenario(doc) == ["scenario: missing required key 'seed'"]

    @pytest.mark.parametrize(
        "override, problem",
        [
            ({"write_noise_std": -1}, "network.edges[0].write_noise_std: must be >= 0, got -1"),
            ({"endurance": 0}, "network.edges[0].endurance: must be > 0, got 0"),
        ],
    )
    def test_edge_overrides_bounded(self, tmp_path, override, problem):
        doc = minimal_doc()
        doc["network"]["edges"][0].update(override)
        assert validate_scenario(doc) == [problem]
        assert simulate_exit_code(doc, tmp_path) == 3

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_within_64_bits(self, tmp_path, seed):
        doc = minimal_doc()
        doc["seed"] = seed
        problems = validate_scenario(doc)
        assert len(problems) == 1 and problems[0].startswith("scenario.seed: must be")
        assert simulate_exit_code(doc, tmp_path) == 3
        doc["seed"] = 2**64 - 1
        assert validate_scenario(doc) == []
        assert simulate_exit_code(doc, tmp_path, "--seed", str(seed)) == 3


_POOL = [None, True, "no", -1, 0, 0.5, 11, 1e30, math.inf, math.nan, [], {}]
_KEYS = [
    "seed", "duration", "network", "n", "edges", "er", "mean_degree", "pre", "post", "weight",
    "level", "bits", "memory_kind", "inhibitory", "endurance", "write_noise_std", "tau",
    "threshold", "tau_soma", "refractory", "receiver", "kind", "eta", "eta_d", "n_ph",
    "stochastic", "reset_time", "plasticity", "a_plus", "on_exhaustion", "inputs", "neuron",
    "times", "rate", "count", "interval", "start", "energy", "max_fluxons", "record",
    "detections", "extra",
]


def _objects(node, path=()):
    """Paths of every object in a document, the document itself first."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _objects(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _objects(value, path + (i,))


_BASES = [load_scenario(name) for name in bundled_scenario_names()] + [minimal_doc()]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_documents_build_or_raise_config_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_BASES)))
    path = data.draw(st.sampled_from(list(_objects(doc))))
    target = doc
    for step in path:
        target = target[step]
    keys = st.sampled_from(_KEYS)
    key = data.draw(st.sampled_from(sorted(target)) | keys if target else keys)
    value = copy.deepcopy(data.draw(st.sampled_from(_POOL)))
    assume(not (value == 1e30 and key in ("n", "mean_degree")))  # keep valid graphs small
    target[key] = value
    problems = validate_scenario(doc)
    try:
        build_scenario(doc)
    except ConfigError as exc:
        assert exc.problems == problems and problems
    else:
        assert problems == []
