from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from protoadapt.util import (
    ValidationError,
    check_fields,
    check_finite,
    sigmoid,
    vector_norm,
    write_csv,
    write_records,
)


def _masked_sigmoid(x):
    # the former implementation, kept as the oracle: one exp per sign mask
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSigmoid:
    def test_special_values_bit_equal(self):
        nan = np.float64(np.nan)
        x = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, nan, -nan,
                      709.0, -745.2, 1e-300, -1e-300, 36.7, -36.7])
        assert _same_bits(sigmoid(x), _masked_sigmoid(x))

    @pytest.mark.parametrize("value", [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0,
                                       np.nan, 2.5, -2.5])
    def test_zero_dimensional_bit_equal(self, value):
        out = sigmoid(np.float64(value))
        assert out.ndim == 0
        assert _same_bits(out, _masked_sigmoid(np.float64(value)))

    def test_empty_and_shaped_inputs(self):
        for x in (np.array([]), np.zeros((0, 3)), np.linspace(-9, 9, 24).reshape(2, 3, 4)):
            assert _same_bits(sigmoid(x), _masked_sigmoid(x))

    def test_random_bit_equal_across_sizes_scales_and_strides(self):
        rng = np.random.default_rng(0)
        for n in list(range(70)) + [399, 400, 401, 1000, 4096]:
            for scale in (0.1, 1.0, 5.0, 30.0, 800.0):
                x = rng.normal(size=n) * scale
                assert _same_bits(sigmoid(x), _masked_sigmoid(x)), (n, scale)
        x = rng.normal(size=3000) * 4.0
        for start in range(4):
            assert _same_bits(sigmoid(x[start::3]), _masked_sigmoid(x[start::3]))

    def test_no_overflow_warning(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sigmoid(np.array([-1e308, -800.0, 800.0, 1e308]))


def _vector_norm_cases(seed=31):
    rng = np.random.default_rng(seed)
    cases = [rng.normal(size=n) * scale for n in (0, 1, 2, 3, 7, 8, 9, 16, 33, 400)
             for scale in (1e-160, 1e-3, 1.0, 1e3, 1e150)]
    base = rng.normal(size=300)
    cases += [base[1::3], base[::-2], rng.normal(size=(4, 6)), rng.normal(size=(6, 4)).T,
              np.array([np.inf, 1.0]), np.array([np.nan, 1.0]), np.array([-0.0])]
    return cases


@pytest.mark.parametrize("v", _vector_norm_cases())
def test_vector_norm_bytes_equal_linalg_norm(v):
    out = vector_norm(v)
    assert type(out) is float
    assert np.float64(out).tobytes() == np.float64(np.linalg.norm(v)).tobytes()


class TestCheckFinite:
    def test_passes_finite_and_empty(self):
        assert check_finite([1, 2], "x").dtype == float
        assert check_finite(np.zeros((0, 2)), "x").shape == (0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="x contains non-finite"):
            check_finite(np.array([[0.0, bad]]), "x")


@dataclass
class _Inner:
    n: int = 1


@dataclass
class _Schema:
    count: int = 1
    rate: float = 0.5
    flag: bool = True
    name: str = "a"
    sizes: tuple[int, ...] = (2,)
    labels: tuple[str, ...] = ("a",)
    limit: int | None = None
    inner: _Inner = field(default_factory=_Inner)


_BOUNDS = {"count": (">=", 1), "rate": (">", 0.0), "sizes": (">=", 2)}


@pytest.mark.parametrize("name,value,message", [
    ("count", 1, None),  # at its bound
    ("count", True, "int >= 1, got True"),  # a bool is not an int
    ("count", 2.0, "int >= 1, got 2.0"),
    ("count", 0, "int >= 1, got 0"),
    ("rate", 2, None),  # an int passes for a float
    ("rate", False, "float > 0.0, got False"),  # a bool is not a float either
    ("rate", 0.0, "float > 0.0, got 0.0"),
    ("rate", None, "float > 0.0, got None"),
    ("flag", False, None),
    ("flag", 1, "bool, got 1"),
    ("name", "b", None),
    ("name", None, "str, got None"),
    ("sizes", (2, 3), None),
    ("sizes", (), "a nonempty tuple of int >= 2, got ()"),
    ("sizes", (2, "3"), "a nonempty tuple of int >= 2, got (2, '3')"),
    ("sizes", (2, 1), "a nonempty tuple of int >= 2, got (2, 1)"),  # an element below the bound
    ("sizes", [2], "a nonempty tuple of int >= 2, got [2]"),
    ("sizes", 2, "a nonempty tuple of int >= 2, got 2"),
    ("labels", "ab", "a nonempty tuple of str, got 'ab'"),
    ("labels", ("a", 1), "a nonempty tuple of str, got ('a', 1)"),
    ("limit", None, None),
    ("limit", 0, None),  # no bound
    ("limit", "3", "int or None, got '3'"),
    ("inner", _Inner(n="x"), None),  # left to the nested config's own validate
])
def test_check_fields_types_bounds_and_names(name, value, message):
    config = replace(_Schema(), **{name: value})
    if message is None:
        check_fields(config, _BOUNDS, "section.")
        return
    with pytest.raises(ValidationError) as exc:
        check_fields(config, _BOUNDS, "section.")
    assert str(exc.value) == f"section.{name} must be {message}"


@dataclass
class _Record:
    name: str
    value: float
    count: int
    flag: bool


_RECORDS = [_Record("a", 0.1, 3, True), _Record("b", float("nan"), -1, False)]
_HEADER = ["name", "value", "count", "flag"]
_ROWS = [["a", 0.1, 3, True], ["b", float("nan"), -1, False]]


class TestWriteRecords:
    @staticmethod
    def _both(tmp_path, records, columns, header, rows):
        write_records(tmp_path / "records.csv", records, columns)
        write_csv(tmp_path / "csv.csv", header, rows)
        return (tmp_path / "records.csv").read_bytes(), (tmp_path / "csv.csv").read_bytes()

    def test_dataclass_records(self, tmp_path):
        got, want = self._both(tmp_path, _RECORDS, None, _HEADER, _ROWS)
        assert got == want

    def test_dict_records(self, tmp_path):
        records = [dict(zip(_HEADER, row)) for row in _ROWS]
        got, want = self._both(tmp_path, records, None, _HEADER, _ROWS)
        assert got == want

    def test_columns_subset_in_their_order(self, tmp_path):
        got, want = self._both(tmp_path, _RECORDS, ["count", "name"], ["count", "name"],
                               [[3, "a"], [-1, "b"]])
        assert got == want

    def test_no_records_writes_the_header(self, tmp_path):
        got, want = self._both(tmp_path, [], _HEADER, _HEADER, [])
        assert got == want == b"name,value,count,flag\n"

    def test_no_records_without_columns_is_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="columns"):
            write_records(tmp_path / "records.csv", [])
