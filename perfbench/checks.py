"""Output checks: reference comparison with per-output tolerances.

An output record is a flat dict of fields. Fields named in ``TOLERANCES``
are floats (or lists of floats) compared within that tolerance; every
other field (hashes, counts, selected parameters, argmax cells, Betti
numbers, barcode counts) must match exactly.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Field name -> (absolute, relative) tolerance: |actual - expected| may be
# at most absolute + relative * |expected|. The widths are far above the
# rounding a rewrite that reorders sums introduces and far below any change
# of what is estimated; the absolute part of the h-MASE tolerance covers
# the AR baseline, whose h-MASE on smooth flows is itself near rounding
# level (about 1e-6).
TOLERANCES = {
    "atau": (1e-6, 0.0),     # KSG information storage, bits
    "mase": (1e-9, 1e-6),    # h-MASE of a rolling forecast
    "pe": (1e-9, 0.0),       # normalized permutation entropy
    "wpe": (1e-9, 0.0),      # normalized weighted permutation entropy
}


def sha256_of(values) -> str:
    """Digest of the little-endian float64 (or int64) bytes of ``values``."""
    arr = np.asarray(values)
    dtype = "<i8" if np.issubdtype(arr.dtype, np.integer) else "<f8"
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


def _width(key: str, expected: float) -> float:
    absolute, relative = TOLERANCES[key]
    return absolute + relative * abs(expected)


def _close(key: str, actual, expected) -> bool:
    if isinstance(expected, float) and math.isnan(expected):
        return isinstance(actual, float) and math.isnan(actual)
    if not isinstance(actual, (int, float)):
        return False
    return abs(actual - expected) <= _width(key, expected)


def compare(actual: dict, expected: dict) -> list[str]:
    """Mismatches between two output records, one message each."""
    problems = []
    for key, want in expected.items():
        if key not in actual:
            problems.append(f"{key}: missing")
            continue
        got = actual[key]
        if key not in TOLERANCES:
            if got != want:
                problems.append(f"{key}: {got!r} != expected {want!r}")
            continue
        wants = want if isinstance(want, list) else [want]
        gots = got if isinstance(got, list) else [got]
        if len(gots) != len(wants):
            problems.append(f"{key}: length {len(gots)} != expected {len(wants)}")
            continue
        for i, (g, w) in enumerate(zip(gots, wants)):
            if not _close(key, g, w):
                problems.append(f"{key}[{i}]: {g!r} not within "
                                f"{_width(key, w):.3g} of expected {w!r}")
                break
    for key in actual.keys() - expected.keys():
        problems.append(f"{key}: unexpected field")
    return problems


def perturb(record: dict) -> dict:
    """A copy of ``record`` with one field pushed past its tolerance, used
    to prove that ``compare`` counts a wrong output as failed."""
    out = dict(record)
    for key, value in record.items():
        if key in TOLERANCES:
            first = value[0] if isinstance(value, list) else value
            bump = 10 * _width(key, first)
            if isinstance(value, list):
                out[key] = [value[0] + bump] + value[1:]
            else:
                out[key] = value + bump
            return out
    key = sorted(record)[0]
    value = record[key]
    if isinstance(value, str):
        out[key] = ("0" if value[:1] != "0" else "1") + value[1:]
    elif isinstance(value, list):
        out[key] = value[:-1] + [value[-1] + 1] if value else [0]
    else:
        out[key] = value + 1
    return out


def rw_mase_oracle(values: np.ndarray, fraction: float) -> float:
    """Brute-force one-step random-walk h-MASE (h=1) over the rolling test
    segment: predictions are the previous observation."""
    n = int(np.floor(fraction * values.size))
    return mase_oracle(values[n - 1:-1], values[n:], values[:n])


def mase_oracle(pred: np.ndarray, truth: np.ndarray, train: np.ndarray) -> float:
    """h-MASE at h=1 written out directly: mean absolute error over the
    mean absolute first difference of the training signal."""
    num = float(np.mean(np.abs(pred - truth)))
    den = float(np.mean(np.abs(np.diff(train))))
    return num / den
