import math

import pytest

from oesnn.datasets import Dataset, read_csv, read_json
from oesnn.errors import DomainError


def sample_dataset():
    return Dataset(
        name="sample",
        columns=("width_m", "count", "label", "value"),
        rows=(
            (1e-6, 3, "a", 0.1 + 0.2),  # non-terminating binary fraction
            (2.5e-5, -7, "b", 6.612490583104015e-16),
            (1.0, 0, "c", float(10**20)),
        ),
        provenance={"figure": "figX", "version": "0.1.0", "seed": 3, "parameters": {"x": 1.5}},
    )


class TestRoundTrip:
    def test_csv_exact(self, tmp_path):
        ds = sample_dataset()
        path = tmp_path / "d.csv"
        ds.write_csv(path)
        back = read_csv(path)
        assert back == ds

    def test_json_exact(self, tmp_path):
        ds = sample_dataset()
        path = tmp_path / "d.json"
        ds.write_json(path)
        back = read_json(path)
        assert back == ds

    def test_csv_write_is_deterministic(self, tmp_path):
        ds = sample_dataset()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ds.write_csv(a)
        ds.write_csv(b)
        assert a.read_bytes() == b.read_bytes()


class TestFormatContract:
    def test_float_format(self):
        text = sample_dataset().to_csv_text()
        assert "6.612490583104015e-16" in text  # lowercase e, '.' decimal
        assert "E-" not in text
        assert "1e+20" in text  # repr form, no grouping separators
        assert text.endswith("\n") and "\r" not in text

    def test_header_then_columns(self):
        lines = sample_dataset().to_csv_text().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "width_m,count,label,value"

    def test_int_float_distinction_survives(self, tmp_path):
        ds = Dataset(name="t", columns=("a", "b"), rows=((1, 1.0),), provenance={})
        path = tmp_path / "t.csv"
        ds.write_csv(path)
        back = read_csv(path)
        assert isinstance(back.rows[0][0], int)
        assert isinstance(back.rows[0][1], float)


class TestInvariants:
    def test_empty_rows_rejected(self):
        with pytest.raises(DomainError):
            Dataset(name="x", columns=("a",), rows=(), provenance={})

    def test_ragged_rows_rejected(self):
        with pytest.raises(DomainError):
            Dataset(name="x", columns=("a", "b"), rows=((1,),), provenance={})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(DomainError, match="out of float range"):
            Dataset(name="x", columns=("a", "b"), rows=((1, 0.5), (2, value)), provenance={})

    def test_booleans_rejected(self):
        ds = Dataset(name="x", columns=("a",), rows=((True,),), provenance={})
        with pytest.raises(DomainError):
            ds.to_csv_text()

    def test_column_access(self):
        ds = sample_dataset()
        assert ds.column("count") == [3, -7, 0]
        with pytest.raises(DomainError):
            ds.column("missing")
