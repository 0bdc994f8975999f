import contextlib
import hashlib
import inspect
import io
import json
import os
import tempfile
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oesnn.cli import main
from oesnn.datasets import Dataset
from oesnn.errors import DomainError
from oesnn.figures import FIGURES, WIDTH_LADDER_M, build_figure


def test_all_figures_build_with_defaults():
    for fig_id in FIGURES:
        ds = build_figure(fig_id)
        assert isinstance(ds, Dataset)
        assert len(ds.rows) > 0
        assert ds.provenance["figure"] == fig_id
        assert "parameters" in ds.provenance


def test_width_ladder_hits_reference_widths():
    assert 10e-6 in WIDTH_LADDER_M
    assert 30e-6 in WIDTH_LADDER_M
    assert WIDTH_LADDER_M[0] == 1e-6 and WIDTH_LADDER_M[-1] == 1e-3


def test_fig3_megahertz_point():
    ds = build_figure("fig3", rate_min_hz=1e6, rate_max_hz=1e9, points=4)
    rows = {r[0]: r[1] for r in ds.rows}
    assert rows[1e6] == pytest.approx(0.661e-6, rel=1e-2)
    assert rows[1e9] == pytest.approx(0.661e-3, rel=1e-2)


def test_fig4_population_for_single_plane():
    ds = build_figure("fig4", n_min=1e6, n_max=1e6, points=1, w_sy=10e-6)
    row = dict(zip(ds.columns, ds.rows[0]))
    assert 0.9 <= row["p_e"] <= 1.3
    assert 4.5 <= row["p_p"] <= 7


def test_fig6_efficiency_families():
    ds = build_figure("fig6", etas=(1.0, 0.01), n_min=1e10, n_max=1e10, points=1)
    by_eta = {r[1]: r[2] for r in ds.rows}
    assert by_eta[1.0] == pytest.approx(1e9, rel=1e-9)
    assert by_eta[0.01] == pytest.approx(1e7, rel=1e-9)


def test_fig7_reference_rows():
    ds = build_figure("fig7")
    by_width = {r[0]: r for r in ds.rows}
    assert by_width[10e-6][1] == pytest.approx(5.0, rel=1e-9)
    assert by_width[30e-6][1] == pytest.approx(45.0, rel=1e-9)
    assert by_width[30e-6][2] == pytest.approx(324.0, rel=1e-9)


def test_fig8_large_network_row():
    ds = build_figure("fig8", path_lengths=(2.0,), n_min=1e8, n_max=1e8, points=1)
    assert ds.rows[0][2] > 1e5


def test_fig9_monotone_and_flagged():
    ds = build_figure("fig9", n_300_list=(1e6,), planes_list=(1.0, 10.0))
    rows = [dict(zip(ds.columns, r)) for r in ds.rows]
    for axis in ("w_sy", "w_wg"):
        for planes in (1.0, 10.0):
            series = [
                r for r in rows if r["axis"] == axis and r["planes"] == planes and r["feasible"]
            ]
            values = [r["path_length"] for r in series]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    # Ten planes never lose to one plane at the same width.
    for axis in ("w_sy", "w_wg"):
        one = {r["width_m"]: r for r in rows if r["axis"] == axis and r["planes"] == 1.0}
        ten = {r["width_m"]: r for r in rows if r["axis"] == axis and r["planes"] == 10.0}
        for w, r1 in one.items():
            if r1["feasible"] and ten[w]["feasible"]:
                assert ten[w]["path_length"] <= r1["path_length"] + 1e-12
    assert any(not r["feasible"] for r in rows)  # widest synapse points get flagged


def test_unknown_figure_rejected():
    with pytest.raises(DomainError):
        build_figure("fig99")


# sha256 of ``oesnn figure`` outputs: (figure id, format, --set overrides) -> digest.
FIGURE_DIGESTS = {
    ("fig3", "csv", ()): "8eb2d34f748396b2b04c3d374c9b8423dc01e00160da7313a364d7967f722795",
    ("fig4", "csv", ()): "9abbba1d3ffea6a668645ddd4dabba4164ff921146593a5d057b96abe386b8cd",
    ("fig6", "csv", ()): "068cb3d1291981f1acdba79beca846956badd2a5eb6be8b19ff855e1d985ee6c",
    ("fig7", "csv", ()): "5262a0e9b2c00c90788c54d5328ce6354a3cf88a61a8e7dd86fcc687c6f63daf",
    ("fig8", "csv", ()): "0879c87f8363ff6019c2e44a3dd1082df8232d5ba1fb22d3086671f51cb3aa8b",
    ("fig9", "csv", ()): "2c26790a18b09e3466a74219a106597f95f14d9eedfe26a0f89c193e67bbbeb5",
    ("fig3", "json", ()): "083e42ed1fab04d06e9b5cff02660b1405551fb1bf9fdc5735850ee67a986f2c",
    ("fig4", "json", ()): "e39a6aae49e7762d42b02e768048faa7d36c31568cdc25d605176773c08a9407",
    ("fig6", "json", ()): "923c2eb65e54e35ef2cfe42d0fa5b452bad16eaca5c5b3fe0f46615a21b13085",
    ("fig7", "json", ()): "7ea0d4bec2299dd5ab5afbc98ceafbe5c54ef9e90858ef8429f1111247b4ef46",
    ("fig8", "json", ()): "29ab3f0043fe6cc04749f95ac89a303719ce852f2373165afa528a5158333e81",
    ("fig9", "json", ()): "8ae8f82f09b3405a83dceb797084eff391ff15c002214d16fc57791b766c7235",
    ("fig6", "json", ("etas=[1.0,0.01]",)): "6249512d25cb34fa7b26fb25fb73de17a690bf0d89907e96f5d8102ab0054f27",
    ("fig3", "json", ("points=4", "rate_min_hz=1e6")): "ff36bd2dd5f87246e066babfd246fbac7c8c32d026467cdae4e1e55dec02c996",
    ("fig9", "json", ("n_300_list=[1e6]",)): "718d029ecd70b31888ad5aad9bd40de2f3174699bd67cc45d9f8b1ad7a33fc2c",
}


@pytest.mark.parametrize("key", FIGURE_DIGESTS, ids=lambda k: "-".join((k[0], k[1], *k[2])))
def test_figure_output_matches_golden_digest(key, tmp_path, capsys):
    figure, fmt, overrides = key
    argv = ["figure", figure, "--format", fmt, "--out", str(tmp_path)]
    for token in overrides:
        argv += ["--set", token]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / f"{figure}.{fmt}").read_bytes()).hexdigest()
    assert digest == FIGURE_DIGESTS[key]


def _override_values(hint):
    """Values of a builder parameter's annotated type, edge cases included."""
    numbers = st.floats() | st.integers(min_value=-(10**6), max_value=10**6)
    if hint is int:
        return st.integers(min_value=-2, max_value=200)
    if hint is float:
        return numbers
    item = typing.get_args(hint)[0]
    items = st.sampled_from(["w_sy", "w_wg", "x"]) if item is str else numbers
    return st.lists(items, max_size=4)


@st.composite
def _figure_overrides(draw):
    figure = draw(st.sampled_from(sorted(FIGURES)))
    hints = typing.get_type_hints(FIGURES[figure])
    parameters = sorted(inspect.signature(FIGURES[figure]).parameters)
    names = draw(st.lists(st.sampled_from(parameters), unique=True, max_size=3))
    return figure, {name: draw(_override_values(hints[name])) for name in names}


@given(_figure_overrides())
@settings(max_examples=300, deadline=None)
def test_every_override_builds_or_exits_with_usage_code(case):
    figure, overrides = case
    argv = ["figure", figure]
    for name, value in overrides.items():
        argv += ["--set", f"{name}={json.dumps(value)}"]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", out])
        written = os.listdir(out)
    assert code in (0, 2)
    assert written == ([f"{figure}.csv"] if code == 0 else [])


@pytest.mark.parametrize("etas", ["[0]", "[1.0,-0.5]", "[NaN]"])
def test_fig6_rejects_non_positive_eta(etas, tmp_path, capsys):
    assert main(["figure", "fig6", "--set", f"etas={etas}", "--out", str(tmp_path)]) == 2
    assert "etas" in capsys.readouterr().err
    assert not (tmp_path / "fig6.csv").exists()


@pytest.mark.parametrize("width", ["1e150", "2.8453629175014606e153"])
def test_fig7_width_out_of_float_range_exits_with_usage_code(width, tmp_path, capsys):
    assert main(["figure", "fig7", "--set", f"widths_m=[{width}]", "--out", str(tmp_path)]) == 2
    assert "out of float range" in capsys.readouterr().err
    assert not (tmp_path / "fig7.csv").exists()
