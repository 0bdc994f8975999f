import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oesnn import cli
from oesnn.cli import main
from oesnn.config import build_scenario, load_scenario
from oesnn.datasets import read_csv, read_json
from oesnn.linkbudget import DEFAULT_WAVELENGTH, ReceiverlessPhotodiode, SnspdReceiver
from oesnn.membench import SystemAssumptions
from oesnn.plasticity import MemoryColumns
from oesnn.platforms import SUPERCONDUCTING_4K, CmosTimeConstantSpec, ScTimeConstantSpec
from oesnn.scaling import SYNAPSE_WIDTH, WAFER_DIAMETER, WAVEGUIDE_PITCH
from oesnn.simulator import EnergyParams, SynapseReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point():
    # The child imports oesnn from where this process found it, installed or not.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "oesnn.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    assert "oesnn" in result.stdout


def test_default_out_dir_from_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OESNN_OUT", str(tmp_path / "envout"))
    code, out, _ = run_cli(capsys, "figure", "fig7")
    assert code == 0
    assert (tmp_path / "envout" / "fig7.csv").exists()


@pytest.mark.parametrize(
    "argv, blocked",
    [
        (("figure", "fig3", "--out", "{file}"), "{file}"),
        (("validate-eq6", "--n", "100", "--k", "4", "--seeds", "1", "--out", "{file}"), "{file}"),
        (("simulate", "--config", "two-synapse-coincidence", "--out", "{file}/sub"), "{file}/sub"),
        (("simulate", "--config", "two-synapse-coincidence", "--out", "{dir}"), "{dir}/spikes.csv"),
    ],
)
def test_unwritable_output_usage_error(capsys, tmp_path, argv, blocked):
    # A file in the way, not a permission: chmod does not stop root.
    paths = {"file": tmp_path / "file", "dir": tmp_path / "dir"}
    paths["file"].write_text("")
    (paths["dir"] / "spikes.csv").mkdir(parents=True)
    code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert blocked.format(**paths) in err and "Traceback" not in err


class TestCalc:
    def test_eq6_headline(self, capsys):
        code, out, _ = run_cli(capsys, "calc", "eq6", "--n", "1e6", "--L", "3")
        assert code == 0
        value = float(out.split("=")[1].strip())
        assert value == pytest.approx(199.4, abs=0.1)

    def test_squid_multi_output(self, capsys):
        code, out, _ = run_cli(capsys, "calc", "squid", "--ic", "300e-6")
        assert code == 0
        assert "w_sq" in out and "e_sq" in out and "l_sq" in out
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(lines["w_sq"].split()[0]) == pytest.approx(2.19e-6, rel=1e-2)
        assert float(lines["e_sq"].split()[0]) == pytest.approx(1.24e-18, rel=1e-2)

    def test_eq1_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "calc", "eq1", "--nph", "0", "--etad", "0.7")
        assert code == 0
        assert float(out.split("=")[1].strip()) == 1.0

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "calc", "eq2", "--nph", "7", "--eta", "0.01", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["formula"] == "eq2"
        assert doc["results"]["source_energy"]["unit"] == "J"
        assert doc["results"]["source_energy"]["value"] == pytest.approx(9.27e-17, rel=1e-3)

    def test_unknown_formula_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "calc", "nope")
        assert code == 2
        assert "unknown formula" in err
        assert "eq6" in err  # lists what exists

    def test_missing_parameter_lists_expected(self, capsys):
        code, _, err = run_cli(capsys, "calc", "eq6", "--n", "1e6")
        assert code == 2
        assert "--L" in err

    def test_unknown_parameter_rejected(self, capsys):
        code, _, err = run_cli(capsys, "calc", "eq6", "--n", "1e6", "--L", "3", "--bogus", "1")
        assert code == 2
        assert "--bogus" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("wall", "--cold", "1", "--specific", "nan"), "--specific"),
            (("eq6", "--n", "inf", "--L", "3"), "--n"),
        ],
    )
    def test_non_finite_parameter_rejected(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "calc", *argv)
        assert code == 2 and out == ""
        assert f"{flag} expects a finite number" in err

    @pytest.mark.parametrize(
        "argv, what",
        [
            (("fluxons", "--ic", "1e-310"), "fluxon budget"),  # I_c * Phi_0 underflows to 0
            (("fluxons", "--ebudget", "1e300", "--ic", "1e-10"), "fluxon budget"),  # the quotient overflows
            (("max-rate", "--n", "1e-300", "--e", "1e-300", "--budget", "1e300"), "spike rate"),
        ],
    )
    def test_quotient_out_of_float_range_usage_error(self, capsys, argv, what):
        code, out, err = run_cli(capsys, "calc", *argv)
        assert code == 2 and out == ""
        assert f"the {what} is out of float range" in err

    def test_negative_cold_dissipation_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "calc", "wall", "--cold", "-1")
        assert code == 2 and out == ""
        assert "cold dissipation must be non-negative" in err

    @pytest.mark.parametrize("specific", ["-5", "0.5"])
    def test_specific_power_below_one_usage_error(self, capsys, specific):
        # Refrigeration takes at least the watt it removes, as a platform profile requires.
        code, out, err = run_cli(capsys, "calc", "wall", "--cold", "1", "--specific", specific)
        assert code == 2 and out == ""
        assert "specific_power must be at least 1 W per W" in err


# calc parameter -> record field, for the formulas whose defaults are a record's fields.
_PHOTODIODE_PARAMS = {"ctot": "c_tot", "v": "v_swing", "vbias": "v_bias", "ileak": "i_leak"}
_ASSUMPTION_PARAMS = {"lifetime": "lifetime", "rate": "mean_rate", "fanin": "fanin", "eopt": "e_opt"}
_CMOS_PARAMS = {"cdensity": "c_density", "vth": "v_th", "kappa": "kappa", "itau": "i_tau"}
_SC_PARAMS = {"lsq": "l_square", "rs": "r_s", "wwire": "w_wire", "wgap": "w_gap"}
_RECORD_DEFAULTS = {
    "eq3": (ReceiverlessPhotodiode, _PHOTODIODE_PARAMS),
    "static-power": (ReceiverlessPhotodiode, _PHOTODIODE_PARAMS),
    "static-crossover": (ReceiverlessPhotodiode, _PHOTODIODE_PARAMS),
    "eq4": (SystemAssumptions, _ASSUMPTION_PARAMS),
    "eq5": (SystemAssumptions, _ASSUMPTION_PARAMS),
    "tau-dpi": (CmosTimeConstantSpec, _CMOS_PARAMS),
    "tau-cmos": (CmosTimeConstantSpec, _CMOS_PARAMS),
    "tau-sc": (ScTimeConstantSpec, _SC_PARAMS),
    "reset-energy": (SnspdReceiver, {"l": "l_spd", "i": "i_spd"}),
    "squid": (EnergyParams, {"ic": "i_c"}),
    "fluxons": (EnergyParams, {"ic": "i_c"}),
}
# calc parameter -> the module constant its default stands for.
_CONSTANT_DEFAULTS = {
    "eq2": {"wavelength": DEFAULT_WAVELENGTH},
    "eq3": {"wavelength": DEFAULT_WAVELENGTH},
    "static-crossover": {"wavelength": DEFAULT_WAVELENGTH},
    "eq7": {"wwg": WAVEGUIDE_PITCH},
    "eq8": {"wsy": SYNAPSE_WIDTH},
    "planes": {"wwg": WAVEGUIDE_PITCH, "wsy": SYNAPSE_WIDTH, "d": WAFER_DIAMETER},
    "carnot": {"thot": SUPERCONDUCTING_4K.t_hot, "tcold": SUPERCONDUCTING_4K.t_cold},
    "wall": {"specific": SUPERCONDUCTING_4K.specific_power},
    "density-rate": {"limit": SUPERCONDUCTING_4K.power_density_limit},
}


@pytest.mark.parametrize("formula", sorted(_RECORD_DEFAULTS.keys() | _CONSTANT_DEFAULTS.keys()))
def test_calc_defaults_are_record_defaults(formula):
    record, params = _RECORD_DEFAULTS.get(formula, (None, {}))
    defaults = {f.name: f.default for f in dataclasses.fields(record)} if record else {}
    want = {name: defaults[field] for name, field in params.items()} | _CONSTANT_DEFAULTS.get(formula, {})
    shared = {name: default for name, (default, _) in cli.FORMULAS[formula].params.items() if name in want}
    assert shared and shared == {name: want[name] for name in shared}


class TestFigure:
    def test_fig7_rows(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "figure", "fig7", "--out", str(tmp_path))
        assert code == 0
        ds = read_csv(tmp_path / "fig7.csv")
        assert ds.columns == ("width_m", "cmos_tau_s", "sc_tau_s")
        by_width = {row[0]: row for row in ds.rows}
        assert by_width[3e-05][1] == pytest.approx(45.0, rel=1e-9)
        assert by_width[3e-05][2] == pytest.approx(324.0, rel=1e-9)
        assert by_width[1e-05][1] == pytest.approx(5.0, rel=1e-9)

    def test_fig8_anchor(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "figure", "fig8", "--out", str(tmp_path),
            "--set", "path_lengths=[3.0]", "--set", "n_min=1e6", "--set", "n_max=1e6",
            "--set", "points=1",
        )
        assert code == 0
        ds = read_csv(tmp_path / "fig8.csv")
        assert ds.rows[0][2] == pytest.approx(199.4, abs=0.1)

    def test_fig6_ten_megahertz_point(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "figure", "fig6", "--out", str(tmp_path), "--format", "json",
            "--set", "etas=[0.01]", "--set", "n_min=1e10", "--set", "n_max=1e10",
            "--set", "points=1", "--set", "receiver_energy=1e-15",
        )
        assert code == 0
        ds = read_json(tmp_path / "fig6.json")
        assert ds.rows[0][2] == pytest.approx(1e7, rel=1e-9)

    def test_roundtrip_both_formats(self, capsys, tmp_path):
        for fig in ("fig3", "fig4", "fig9"):
            run_cli(capsys, "figure", fig, "--out", str(tmp_path))
            run_cli(capsys, "figure", fig, "--out", str(tmp_path), "--format", "json")
            csv_ds = read_csv(tmp_path / f"{fig}.csv")
            json_ds = read_json(tmp_path / f"{fig}.json")
            assert csv_ds == json_ds
            assert csv_ds.provenance["figure"] == fig
            assert len(csv_ds.rows) > 0

    def test_invalid_override_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "figure", "fig7", "--out", str(tmp_path), "--set", "bogus=1"
        )
        assert code == 2
        assert "override" in err

    @pytest.mark.parametrize(
        "fig, overrides",
        [
            ("fig3", ["points=-1"]),
            ("fig3", ["points=0"]),
            ("fig3", ["rate_min_hz=0"]),
            ("fig3", ["rate_min_hz=-1e3"]),
            ("fig3", ["rate_max_hz=1"]),
            ("fig4", ["n_min=0"]),
            ("fig4", ["n_max=1e400"]),
            ("fig6", ["n_min=1e12", "n_max=1e6"]),
            ("fig6", ["points=-3"]),
            ("fig8", ["n_max=-1"]),
            ("fig8", ["points=0"]),
        ],
    )
    def test_bad_grid_usage_error(self, capsys, tmp_path, fig, overrides):
        sets = [arg for o in overrides for arg in ("--set", o)]
        code, _, err = run_cli(capsys, "figure", fig, "--out", str(tmp_path), *sets)
        assert code == 2
        assert "grid" in err
        assert not (tmp_path / f"{fig}.csv").exists()

    def test_fig9_without_axes_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "figure", "fig9", "--out", str(tmp_path), "--set", "axes=[]")
        assert code == 2 and out == ""
        assert "has no rows" in err and "Traceback" not in err
        assert not (tmp_path / "fig9.csv").exists()


# Edge counts around the ledger writer's block size: one, a block less one, a block,
# a block and one, and two blocks and one.
_BLOCK = cli._ROWS_PER_BLOCK
_BLOCK_EDGE_COUNTS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


def _writer_network(count: int) -> dict:
    """``count`` synapses from neurons 0 and 1 to sink neurons, whose cells cycle through the
    shared default, a loop cell with an explicit level, an inhibitory edge, an analog weight
    override and a loop cell whose level comes from the weight."""
    kinds = (
        {},
        {"memory_kind": "loop", "bits": 6},
        {"inhibitory": True},
        {"weight": 0.6},
        {"memory_kind": "loop", "bits": 8, "weight": 0.7},
    )
    edges = []
    for i in range(count):
        edge = {"pre": i % 2, "post": 2 + i // 2, **kinds[i % len(kinds)]}
        if i % len(kinds) == 1:
            edge["level"] = i % 64
        edges.append(edge)
    return {"n": 2 + (count + 1) // 2, "edges": edges}


class TestSimulate:
    def test_bundled_scenario_outputs(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--config", "two-synapse-coincidence", "--out", str(tmp_path)
        )
        assert code == 0
        spikes = (tmp_path / "spikes.csv").read_text().strip().splitlines()
        assert spikes[0] == "neuron_id,time_s"
        readout = [line for line in spikes[1:] if line.startswith("2,")]
        assert len(readout) == 1
        ledger = json.loads((tmp_path / "ledger.json").read_text())
        assert ledger["energy"]["counters"]["transmissions"] == 2

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--config", "ledger-fanout", "--out", str(a))
        run_cli(capsys, "simulate", "--config", "ledger-fanout", "--out", str(b))
        assert (a / "spikes.csv").read_bytes() == (b / "spikes.csv").read_bytes()
        assert (a / "ledger.json").read_bytes() == (b / "ledger.json").read_bytes()

    def test_seed_override_changes_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--config", "poisson-link", "--out", str(a), "--seed", "1")
        run_cli(capsys, "simulate", "--config", "poisson-link", "--out", str(b), "--seed", "2")
        assert (a / "ledger.json").read_bytes() != (b / "ledger.json").read_bytes()

    def test_invalid_config_exit_code_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "duration": -1, "network": {"n": 2, "edges": []}}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 3
        assert "duration" in err

    def test_malformed_json_exit_code_three(self, capsys, tmp_path):
        bad = tmp_path / "truncated.json"
        bad.write_text('{"seed": 1,')
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 3
        assert f"{bad}: not valid JSON" in err and "line 1, column 12" in err

    @pytest.mark.parametrize("kind, problem", [("directory", "cannot read"), ("not-utf8", "not UTF-8")])
    def test_unreadable_config_exit_code_three(self, capsys, tmp_path, kind, problem):
        bad = tmp_path / "scenario.json"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe{")
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert code == 3
        assert f"{bad}: {problem}" in err

    def test_usage_error_distinct_from_validation(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "calc", "nope")
        assert code == 2  # usage errors and validation errors use distinct codes

    def test_simulation_error_exit_code_four(self, capsys, tmp_path, monkeypatch):
        def small_budget(doc):
            graph, config = build_scenario(doc)
            return graph, dataclasses.replace(config, max_events=100)

        monkeypatch.setattr(cli, "build_scenario", small_budget)
        code, _, err = run_cli(capsys, "simulate", "--config", "poisson-link", "--out", str(tmp_path))
        assert code == 4
        assert "event budget exceeded" in err

    def test_event_budget_boundary_exit_codes(self, capsys, tmp_path, monkeypatch):
        def simulate(out):
            return run_cli(capsys, "simulate", "--config", "ledger-fanout", "--out", str(tmp_path / out))

        code, _, _ = simulate("full")
        assert code == 0
        counters = json.loads((tmp_path / "full" / "ledger.json").read_text())["energy"]["counters"]
        events = sum(counters[k] for k in ("forced_spikes", "detections", "misses", "suppressed"))
        budget = {}

        def with_budget(doc):
            graph, config = build_scenario(doc)
            return graph, dataclasses.replace(config, max_events=budget["max_events"])

        monkeypatch.setattr(cli, "build_scenario", with_budget)
        budget["max_events"] = events
        code, _, _ = simulate("exact")
        assert code == 0
        for name in ("spikes.csv", "ledger.json"):
            assert (tmp_path / "exact" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        budget["max_events"] = events - 1
        code, _, err = simulate("over")
        assert code == 4
        assert f"event budget exceeded ({events - 1} events)" in err
        tail = err.split("last events:\n")[1].splitlines()
        assert len(tail) == 32 and all("'arrival'" in line or "'forced'" in line for line in tail)

    @pytest.mark.parametrize(
        "network",
        [
            {"n": 2, "edges": []},
            # analog rows that degrade under STDP, and an inhibitory loop override
            {
                "n": 3,
                "edges": [
                    {"pre": 0, "post": 2, "weight": 0.6},
                    {"pre": 1, "post": 2, "weight": 0.6},
                    {"pre": 2, "post": 0, "inhibitory": True, "memory_kind": "loop", "bits": 6},
                ],
            },
            # The writer formats rows in blocks: edge counts at and around the block boundaries.
            *(_writer_network(count) for count in _BLOCK_EDGE_COUNTS),
        ],
        ids=["no-synapses", "mixed-synapses", *(f"{count}-synapses" for count in _BLOCK_EDGE_COUNTS)],
    )
    def test_streamed_ledger_matches_encoder(self, capsys, tmp_path, monkeypatch, network):
        doc = {
            "name": "writer",
            "seed": 3,
            "duration": 1e-4,
            "network": network,
            "link": {"n_ph": 7.0, "eta": 0.01, "stochastic": False},
            "synapse": {"tau": 1e-6, "endurance": 1},
            "plasticity": {"kind": "stdp", "a_plus": 0.02, "a_minus": 0.02, "tau_plus": 1e-5, "tau_minus": 1e-5},
            "inputs": [{"neuron": 0, "times": [1e-6, 3e-6, 5e-6]}, {"neuron": 1, "times": [1e-6, 3e-6, 5e-6]}],
        }
        reports = []
        run = cli.run

        def keep_report(graph, config):
            result = run(graph, config)
            reports.append(result[2])
            return result

        monkeypatch.setattr(cli, "run", keep_report)
        path = tmp_path / "writer.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "ledger.json").read_text()
        expected = json.loads(text)
        expected["synapse_report"] = reports[0].as_dict()
        assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        rows = expected["synapse_report"]["synapses"]
        assert len(rows) == len(network["edges"])
        if len(network["edges"]) == 3:
            assert [r["degraded"] for r in rows] == [True, True, False]
            assert [r["level"] for r in rows][:2] == [None, None]
        elif not network["edges"]:
            assert rows == [] and '"synapses": []' in text
        elif len(rows) > 1:
            assert {r["degraded"] for r in rows} == {True, False}
            assert {r["level"] is None for r in rows} == {True, False}
            assert {r["weight"] for r in rows} >= {0.5, 0.0, 0.6}  # the default, a level-0 loop cell, an override

    @pytest.mark.parametrize("where", ["synapse", "edge"])
    def test_bits_above_ten_exit_code_three(self, capsys, tmp_path, where):
        doc = load_scenario("two-synapse-coincidence")
        target = doc["synapse"] if where == "synapse" else doc["network"]["edges"][0]
        target.update({"memory_kind": "loop", "bits": 11})
        path = tmp_path / "bits.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 3
        assert "bits" in err

    @pytest.mark.parametrize(
        "patch",
        [
            {"energy": {"i_c": 1e-310}},  # I_c * Phi_0 underflows to 0
            {"link": {"n_ph": 1e300, "eta": 1e-10}},  # the fluxon budget overflows
        ],
        ids=["i_c", "n_ph"],
    )
    def test_fluxon_budget_out_of_float_range_exit_code_three(self, capsys, tmp_path, patch):
        doc = load_scenario("two-synapse-coincidence")
        for section, values in patch.items():
            doc[section] = {**doc.get(section, {}), **values}
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == 3
        assert "scenario: link.n_ph, link.eta and energy.i_c: the fluxon budget is out of float range" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()
        doc["energy"] = {**doc.get("energy", {}), "max_fluxons": 10}  # a budget given outright needs no quotient
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))[0] == 0

    def test_figures_out_of_float_range_exit_code_four(self, capsys, tmp_path):
        doc = load_scenario("two-synapse-coincidence")
        doc["energy"] = {"per_spike_overhead": 1e308}  # three spikes: the soma overhead overflows
        path = tmp_path / "overhead.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == 4
        assert "simulation error: the run's energy or power figures leave float range" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()  # no ledger.json with Infinity in it, and no spikes.csv

    def test_record_section_exit_code_three(self, capsys, tmp_path):
        doc = load_scenario("two-synapse-coincidence")
        doc["record"] = {"detections": True}
        path = tmp_path / "record.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 3
        assert "scenario: unknown key 'record'" in err

    def test_signed_zero_weight_keeps_its_sign(self, capsys, tmp_path):
        # -0.0 is inside the weight bounds; the ledger prints it as given, next to a 0.0 and a
        # loop cell of weight -0.0 (level 0, weight 0.0) in the same block of rows.
        doc = {
            "seed": 1,
            "duration": 1e-5,
            "network": {
                "n": 4,
                "edges": [
                    {"pre": 0, "post": 1, "weight": -0.0},
                    {"pre": 0, "post": 2, "weight": 0.0},
                    {"pre": 0, "post": 3, "weight": -0.0, "memory_kind": "loop"},
                ],
            },
            "link": {"n_ph": 7.0, "eta": 0.01, "stochastic": False},
            "inputs": [{"neuron": 0, "times": [1e-6]}],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "ledger.json").read_text()
        assert [line.strip() for line in text.splitlines() if '"weight"' in line] == [
            '"weight": -0.0,',
            '"weight": 0.0,',
            '"weight": 0.0,',
        ]
        rows = json.loads(text)["synapse_report"]["synapses"]
        assert [math.copysign(1.0, r["weight"]) for r in rows] == [-1.0, 1.0, 1.0]
        assert [r["level"] for r in rows] == [None, None, 0]

    def test_endurance_fault_exit_code_four(self, capsys, tmp_path):
        doc = {
            "seed": 1,
            "duration": 1e-4,
            "network": {"n": 2, "edges": [{"pre": 0, "post": 1}]},
            "link": {"n_ph": 7.0, "eta": 0.01, "stochastic": False},
            "neuron": {"threshold": 0.5},
            "synapse": {"weight": 0.9, "endurance": 1},
            "plasticity": {"kind": "stdp", "on_exhaustion": "fault"},
            "inputs": [{"neuron": 0, "count": 20, "interval": 2e-6}],
        }
        path = tmp_path / "fault.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 4
        assert "simulation error: synapse 0: analog memory endurance exhausted" in err
        assert "last events:" in err
        assert not (tmp_path / "ledger.json").exists()

    def test_count_input_beyond_duration_keeps_bytes(self, capsys, tmp_path):
        # A count train far beyond the run stops at its first spike past it.
        doc = load_scenario("ledger-fanout")
        doc["duration"] = 1e-6
        outputs = []
        for count in (1e12, 2):  # spikes at 0 and 1 us fall inside the run
            doc["inputs"] = [{"neuron": 0, "count": count, "interval": 1e-6}]
            path = tmp_path / "count.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"out-{count:g}"
            code, _, _ = run_cli(capsys, "simulate", "--config", str(path), "--out", str(out))
            assert code == 0
            outputs.append([(out / name).read_bytes() for name in ("spikes.csv", "ledger.json")])
        assert outputs[0] == outputs[1]
        assert outputs[0][0].decode().count("\n0,") == 2

    @pytest.mark.parametrize(
        "drive",
        [{"neuron": 0, "count": 1e12, "interval": 1e-15}, {"neuron": 0, "rate": 1e30}],
        ids=["count", "rate"],
    )
    def test_huge_drive_stops_at_event_budget(self, capsys, tmp_path, monkeypatch, drive):
        def small_budget(doc):
            graph, config = build_scenario(doc)
            return graph, dataclasses.replace(config, max_events=1000)

        monkeypatch.setattr(cli, "build_scenario", small_budget)
        doc = load_scenario("ledger-fanout")
        doc["inputs"] = [drive]
        path = tmp_path / "drive.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 4
        assert "event budget exceeded (1000 events)" in err
        assert not (tmp_path / "ledger.json").exists()

    @pytest.mark.parametrize("budget", ["0", "nan", "inf", "-1"])
    def test_bad_budget_usage_error(self, capsys, tmp_path, budget):
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "simulate", "--config", "two-synapse-coincidence", "--out", str(out), "--budget", budget
        )
        assert code == 2
        assert "usage error: --budget must be a finite positive power in watts" in err
        assert "Traceback" not in err and not (out / "spikes.csv").exists()

    def test_rate_input_starting_after_duration_draws_no_spikes(self, capsys, tmp_path):
        doc = load_scenario("poisson-link")
        doc["inputs"] = [{"neuron": 0, "rate": 1e6, "start": 2 * doc["duration"]}]
        path = tmp_path / "late.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 0
        assert out.startswith("spikes: 0 ")
        assert (tmp_path / "spikes.csv").read_text().strip() == "neuron_id,time_s"


# Weights whose text or bits are easy to get wrong: both zeros, a whole number, a long repr and the
# least subnormal.
_WEIGHT_POOL = np.array([-0.0, 0.0, 1.0, 1 / 3, 5e-324])
_COUNTER_KEYS = ("pre", "post", "detections", "misses", "suppressed", "writes")


def _synthetic_report(rng, tops: dict, level, weight, degraded) -> SynapseReport:
    """A report with the given memory columns whose int columns are drawn from ``rng``, each up to
    and reaching its entry in ``tops``."""
    count = len(level)
    counters = {key: rng.integers(0, top, count, endpoint=True) for key, top in tops.items()}
    if count:
        for key, values in counters.items():
            values[rng.integers(count)] = tops[key]
    memory = MemoryColumns(
        level=level,
        weight=weight,
        writes=np.zeros(count, dtype=np.int64),
        degraded=degraded,
        group=np.zeros(count, dtype=np.int64),
        groups=[(0, 0.0, math.inf)],
    )
    return SynapseReport(**counters, memory=memory, sqrt_fanin_update_estimate=float(rng.random() * 1e6))


class TestLedgerWriter:
    DOC = {"scenario": "generated", "seed": 1, "profile": "p", "energy": {"total_j": 1.5e-12}, "power": {}}

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_generated_report_matches_encoder(self, data):
        count = data.draw(st.sampled_from([0, 1, 511, 512, 513, 1025]), label="count")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # Each int column's largest value lies below the edge count (a range table) or at or above it
        # (a distinct-value table).
        below, above = st.integers(0, max(count - 1, 0)), st.integers(count, 2**62)
        tops = {key: data.draw(st.one_of(below, above), label=key) for key in _COUNTER_KEYS}
        max_level = data.draw(st.sampled_from([0, 1, 255, 1023]), label="max_level")
        level = rng.integers(0, max_level, count, endpoint=True)
        level[rng.random(count) < data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="analog share")] = -1
        pool = data.draw(st.lists(st.integers(0, len(_WEIGHT_POOL) - 1), min_size=1, max_size=5), label="weights")
        degraded = rng.random(count) < data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="degraded share")
        report = _synthetic_report(rng, tops, level, _WEIGHT_POOL[rng.choice(pool, count)], degraded)
        fh = io.BytesIO()
        cli._write_ledger(fh, cli._ledger_ends(self.DOC, report), report)
        expected = json.dumps({**self.DOC, "synapse_report": report.as_dict()}, sort_keys=True, indent=2) + "\n"
        assert fh.getvalue() == expected.encode()

    def test_memory_stays_within_a_few_blocks(self):
        # The writer holds a block of rows and the column tables, never a row for every edge. A report
        # like the paper's fan-out (loop cells sharing one level, 2000 neurons) writes in under 3 MB.
        level = np.full(200_000, 76)
        tops = {key: 1999 if key in ("pre", "post") else 50 for key in _COUNTER_KEYS}
        report = _synthetic_report(np.random.default_rng(0), tops, level, level / 255, np.zeros(200_000, dtype=bool))
        with open(os.devnull, "wb") as fh:
            tracemalloc.start()
            try:
                cli._write_ledger(fh, cli._ledger_ends(self.DOC, report), report)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3e6


class TestValidateEq6:
    def test_small_run(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "validate-eq6", "--n", "1000", "--k", "20", "--seeds", "3",
            "--out", str(tmp_path),
        )
        assert code == 0
        ds = read_csv(tmp_path / "path-model-validation.csv")
        row = dict(zip(ds.columns, ds.rows[0]))
        assert row["rel_error"] <= 0.15
        assert row["within_tolerance"] == 1
        assert row["predicted"] == pytest.approx(2.613, abs=1e-3)


    def test_sampled_sources_recorded(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "validate-eq6", "--n", "1000", "--k", "20", "--seeds", "2", "--sample-sources", "50",
            "--out", str(tmp_path),
        )
        assert code == 0
        ds = read_csv(tmp_path / "path-model-validation.csv")
        assert ds.provenance["parameters"]["sample_sources"] == 50

    @pytest.mark.parametrize(
        "flag, value, problem",
        [
            ("--n", "nan", "sizes must be finite whole numbers"),
            ("--n", "inf", "sizes must be finite whole numbers"),
            ("--n", "2.5", "sizes must be finite whole numbers"),
            ("--n", "1e300", "n must be at most 2**32, so that its n(n-1)/2 node pairs fit in int64"),
            ("--n", "4294967297", "n must be at most 2**32"),
            ("--tolerance", "nan", "tolerance must be finite and at least 0"),
            ("--tolerance", "-0.1", "tolerance must be finite and at least 0"),
            ("--tolerance", "inf", "tolerance must be finite and at least 0"),
            ("--sample-sources", "0", "sample_sources must be at least 2, got 0"),
            ("--sample-sources", "1", "sample_sources must be at least 2, got 1"),
            ("--sample-sources", "-3", "sample_sources must be at least 2, got -3"),
        ],
    )
    def test_bad_size_or_tolerance_usage_error(self, capsys, tmp_path, flag, value, problem):
        argv = {"--n": "100", "--k": "4", "--seeds": "1", "--out": str(tmp_path), flag: value}
        code, _, err = run_cli(capsys, "validate-eq6", *[a for pair in argv.items() for a in pair])
        assert code == 2
        assert f"usage error: {problem}" in err
        assert "Traceback" not in err and not (tmp_path / "path-model-validation.csv").exists()


class TestMembench:
    def test_bundled_table_text(self, capsys):
        code, out, _ = run_cli(capsys, "membench")
        assert code == 0
        assert "loop-memory: pass" in out
        assert "memristor: unknown" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "membench", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["targets"]["update_time"] == pytest.approx(100e-9, rel=1e-12)
        verdicts = {t["name"]: t["verdict"] for t in doc["technologies"]}
        assert verdicts["loop-memory"] == "pass"
        assert verdicts["floating-gate"] == "unknown"

    def test_unknown_name_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "membench", "--name", "no-such-tech")
        assert code == 2

    @pytest.mark.parametrize(
        "table, problem",
        [
            (None, "no such technology table"),
            ("[{", "not valid JSON"),
            ('[{"name": "x", "endurance": "abc"}]', "technologies[0].endurance: expected a number, got 'abc'"),
            ('[{"endurance": 1e15}]', "technologies[0]: missing required key 'name'"),
            ('{"name": "x"}', "technologies: expected a list"),
        ],
        ids=["missing", "malformed", "endurance-string", "no-name", "object"],
    )
    def test_bad_table_exit_code_three(self, capsys, tmp_path, table, problem):
        path = tmp_path / "tech.json"
        if table is not None:
            path.write_text(table)
        code, out, err = run_cli(capsys, "membench", "--tech", str(path))
        assert code == 3 and out == ""
        assert problem in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("calc", "carnot", "--thot", "1e308", "--tcold", "1e-308", "--format", "json"),
        ("calc", "eq2", "--nph", "1e308", "--eta", "1e-300"),
        ("membench", "--lifetime", "inf", "--format", "json"),
        ("membench", "--fanin", "1e308", "--eopt", "1e300"),
        ("figure", "fig3", "--set", "fanout=1e300", "--set", "rate_max_hz=1e300"),
        ("figure", "fig3", "--set", "fanout=1e300", "--set", "rate_max_hz=1e300", "--format", "json"),
    ],
    ids=["calc-json", "calc-text", "membench-json", "membench-text", "figure-csv", "figure-json"],
)
def test_non_finite_output_usage_error(capsys, tmp_path, monkeypatch, argv):
    # No output format holds inf or nan: a result out of float range prints and writes nothing.
    monkeypatch.setenv("OESNN_OUT", str(tmp_path / "out"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "out of float range" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
