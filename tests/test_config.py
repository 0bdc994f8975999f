import json

import pytest

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
