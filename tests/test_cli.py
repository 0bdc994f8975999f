import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oesnn import cli
from oesnn.cli import main
from oesnn.config import build_scenario, load_scenario
from oesnn.datasets import read_csv, read_json


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
        ],
        ids=["no-synapses", "mixed-synapses"],
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
        if network["edges"]:
            assert [r["degraded"] for r in rows] == [True, True, False]
            assert [r["level"] for r in rows][:2] == [None, None]
        else:
            assert rows == [] and '"synapses": []' in text

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

    def test_rate_input_starting_after_duration_draws_no_spikes(self, capsys, tmp_path):
        doc = load_scenario("poisson-link")
        doc["inputs"] = [{"neuron": 0, "rate": 1e6, "start": 2 * doc["duration"]}]
        path = tmp_path / "late.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 0
        assert out.startswith("spikes: 0 ")
        assert (tmp_path / "spikes.csv").read_text().strip() == "neuron_id,time_s"


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
