"""Shared numerical primitives and the file layer.

Everything downstream computes on dense float64 numpy arrays in row-major
order (a checked case may store narrower ones, widened where they are
used), and draws randomness from :class:`Rng`, a counter-based generator
whose streams replay bit-identically across platforms for a fixed seed.

It is also the file layer: read_json, read_array, write_json, write_csv
and write_array handle every JSON, CSV and raw array file, and the readers
and parsing() (for field conversions) name the file in every error.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager

import numpy as np

__all__ = ["Rng", "check_seed", "softmax", "softmax_inplace", "require_finite", "as_f64",
           "read_json", "json_int", "json_str", "parsing", "read_array", "write_json", "write_csv",
           "write_array"]


def as_f64(values, name: str = "array") -> np.ndarray:
    """Coerce to a float64 ndarray (C order), rejecting non-finite entries."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    require_finite(arr, name)
    return arr


def require_finite(arr: np.ndarray, name: str = "array") -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {name}")


def check_seed(seed, name: str = "seed") -> int:
    """Return ``seed`` as an int, refusing one outside the 64-bit unsigned
    range that Rng takes."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {seed}")
    return seed


class Rng:
    """Seeded random stream shared by samplers, models, and data generation.

    Backed by the Philox counter-based bit generator: the same 64-bit seed
    produces the same draw sequence on every platform, which is what makes
    whole training runs replay byte-identically.  Single-owner: never share
    one instance between concurrent writers.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(check_seed(seed)))

    def uniform(self, size=None) -> np.ndarray:
        """Draws in [0, 1)."""
        return self._gen.uniform(size=size)

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(scale=scale, size=size) if scale > 0 else np.zeros(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Stable softmax (max-subtracted) along ``axis``.

    Accepts a single logit vector or a batch of rows; rows of the result are
    probability vectors summing to 1 within 1e-12.
    """
    z = np.array(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    return softmax_inplace(z, axis)


def softmax_inplace(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """softmax() without input checks, overwriting the float64 array ``z``.

    For callers whose logits are finite by construction (validated inputs
    and parameters); non-finite logits come out as NaN probabilities.
    """
    # The ufuncs' own reductions: z.max and z.sum, the same bytes, add
    # about 3 us of Python per call, which shows in training's many
    # small steps.
    z -= np.maximum.reduce(z, axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=axis, keepdims=True)
    return z


def json_int(value, name: str, only: int | None = None) -> int:
    """Return a JSON file's integer field, refusing a float or a bool, which
    int() would pass truncated, and with ``only``, any other integer."""
    if type(value) is not int or (only is not None and value != only):
        want = "an integer" if only is None else f"the integer {only}"
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return value


def json_str(value, name: str) -> str:
    """Return a JSON file's string field, refusing a number, bool, null,
    list or object, which str() would pass as its text."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


@contextmanager
def parsing(kind: str, path):
    """Report a KeyError, TypeError or ValueError raised inside the block
    as ``ValueError("malformed <kind> <path>: ...")``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"malformed {kind} {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} {path}: {exc}") from exc


def read_json(path, kind: str, fields) -> dict:
    """Read a JSON object that holds every key in ``fields``; a missing file
    raises FileNotFoundError, any other defect ValueError("malformed ...")."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"{kind} not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed {kind} {path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {kind} {path}: not a JSON object")
    missing = [key for key in fields if key not in doc]
    if missing:
        raise ValueError(f"malformed {kind} {path}: missing required fields {missing}")
    return doc


def read_array(path, dtype, count: int, kind: str) -> np.ndarray:
    """Read a raw file of exactly ``count`` ``dtype`` items as a read-only
    array: opened once, its size checked on the open file, then read in one
    call.  It reads into bytes: on 24 cases of 32x32x32, reading into
    preallocated arrays raised load()'s peak RSS by 1.3 MB."""
    expected = count * np.dtype(dtype).itemsize
    try:
        # Unbuffered: the whole file comes back from one read, with no buffer copy.
        fh = open(path, "rb", buffering=0)
    except FileNotFoundError:
        raise FileNotFoundError(f"{kind} not found: {path}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if size == expected:
            data = fh.read()
            size = len(data)  # short if the file was cut after fstat
    if size != expected:
        raise ValueError(f"size mismatch in {path}: {size} bytes, expected {expected}")
    return np.frombuffer(data, dtype=dtype)


def write_json(path, doc) -> None:
    """Write ``doc`` with sorted keys, a 2-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a header row, then ``rows``, in the csv module's default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_array(path, values, dtype) -> None:
    """Write ``values`` as a raw file of ``dtype`` items in C order, the
    layout read_array reads back."""
    np.asarray(values, dtype=dtype).tofile(path)
