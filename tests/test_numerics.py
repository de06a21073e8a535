import pathlib
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import segopt
from segopt.numerics import (Rng, as_f64, check_seed, parsing, read_array, read_json,
                             require_finite, softmax, write_array, write_csv, write_json)


class TestSoftmax:
    def test_uniform_logits(self):
        assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), rtol=0, atol=0)

    def test_two_class_log_ratio(self):
        out = softmax(np.array([np.log(2.0), 0.0]))
        assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 6))
        assert_allclose(softmax(z + 123.456), softmax(z), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        out = softmax(rng.normal(size=(10, 4)) * 50)
        assert_allclose(out.sum(axis=1), np.ones(10), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax(np.zeros((0, 4)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            softmax(np.array([1.0, np.nan]))


class TestRng:
    def test_deterministic(self):
        a = Rng(42).uniform(size=100)
        b = Rng(42).uniform(size=100)
        assert (a == b).all()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            Rng(seed)

    def test_check_seed_names_the_seed(self):
        assert check_seed(2**64 - 1) == 2**64 - 1
        with pytest.raises(ValueError, match=r"^model seed must be a 64-bit unsigned integer, "
                                             r"got 18446744073709551616$"):
            check_seed(2**64, "model seed")

    def test_seeds_diverge(self):
        a = Rng(42).uniform(size=100)
        b = Rng(43).uniform(size=100)
        assert not (a == b).all()

    def test_uniform_range_and_mean(self):
        u = Rng(0).uniform(size=200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_scale_zero(self):
        assert (Rng(0).normal(size=10, scale=0.0) == 0.0).all()

    def test_permutation_is_permutation(self):
        p = Rng(5).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_integers_bounds(self):
        v = Rng(1).integers(2, 5, size=1000)
        assert v.min() >= 2 and v.max() <= 4


class TestValidation:
    def test_as_f64_copies_to_float(self):
        out = as_f64([1, 2, 3])
        assert out.dtype == np.float64

    def test_require_finite_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            require_finite(np.array([1.0, np.inf]), "field")

    def test_require_finite_names_field(self):
        with pytest.raises(ValueError, match="field"):
            require_finite(np.array([np.nan]), "field")


class TestFileLayer:
    def test_read_json_missing_file(self, tmp_path):
        path = tmp_path / "a.json"
        with pytest.raises(FileNotFoundError, match=f"^widget not found: {re.escape(str(path))}$"):
            read_json(path, "widget", ())

    @pytest.mark.parametrize("text, message", [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"a": 1}', r"missing required fields \['b', 'c'\]"),
    ], ids=["invalid", "array", "missing-fields"])
    def test_read_json_malformed_names_file(self, tmp_path, text, message):
        path = tmp_path / "a.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^malformed widget {re.escape(str(path))}: {message}"):
            read_json(path, "widget", ("a", "b", "c"))

    def test_parsing_names_file(self):
        with pytest.raises(ValueError, match="^malformed widget w.json: missing field 'x'$"):
            with parsing("widget", "w.json"):
                {}["x"]
        with pytest.raises(ValueError, match="^malformed widget w.json: invalid literal"):
            with parsing("widget", "w.json"):
                int("abc")
        with pytest.raises(ValueError, match="^malformed widget w.json: .*NoneType"):
            with parsing("widget", "w.json"):
                int(None)
        with pytest.raises(OSError, match="^disk gone$"):
            with parsing("widget", "w.json"):
                raise OSError("disk gone")

    def test_json_round_trip_format(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"b": [2], "a": 1})
        assert path.read_text() == '{\n  "a": 1,\n  "b": [\n    2\n  ]\n}\n'
        assert read_json(path, "widget", ("a", "b")) == {"a": 1, "b": [2]}

    def test_write_csv(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["x", "y"], ([i, repr(i / 2)] for i in range(2)))
        assert path.read_bytes() == b"x,y\r\n0,0.0\r\n1,0.5\r\n"

    def test_read_array_round_trip(self, tmp_path):
        path = tmp_path / "a.bin"
        np.arange(5.0).astype("<f8").tofile(path)
        out = read_array(path, "<f8", 5, "widget")
        assert out.dtype == np.float64
        assert (out == np.arange(5.0)).all()

    def test_write_array_converts_and_round_trips(self, tmp_path):
        path = tmp_path / "a.u8"
        values = np.arange(6, dtype=np.int64).reshape(2, 3)
        write_array(path, values, np.uint8)
        assert path.read_bytes() == bytes(range(6))
        assert (read_array(path, np.uint8, 6, "widget") == values.reshape(-1)).all()

    @pytest.mark.parametrize("count, actual", [(4, 40), (6, 40)])
    def test_read_array_size_mismatch(self, tmp_path, count, actual):
        path = tmp_path / "a.bin"
        np.arange(5.0).astype("<f8").tofile(path)
        with pytest.raises(ValueError, match=f"^size mismatch in {re.escape(str(path))}: "
                                             f"{actual} bytes, expected {count * 8}$"):
            read_array(path, "<f8", count, "widget")

    def test_read_array_missing_file(self, tmp_path):
        path = tmp_path / "a.bin"
        with pytest.raises(FileNotFoundError, match=f"^widget not found: {re.escape(str(path))}$"):
            read_array(path, np.uint8, 1, "widget")


# Calls that read or write a file format; only the file layer may make them.
FILE_FORMAT_CALL = re.compile(r"(\b(json\.(load|loads|dump|dumps)|csv\.writer"
                              r"|np\.(fromfile|frombuffer))|\.tofile)\s*\(")


def test_only_numerics_reads_and_writes_file_formats():
    package = pathlib.Path(segopt.__file__).parent
    offenders = [f"{path.name}:{number}: {line.strip()}"
                 for path in sorted(package.glob("*.py")) if path.name != "numerics.py"
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if FILE_FORMAT_CALL.search(line)]
    assert offenders == []
