"""Scalar series container, delay-coordinate reconstruction, splitting,
and the toolkit's one input policy.

Everything downstream of this module works on 64-bit floats. A series is
immutable after construction; its reconstructions are read-only views of
its values. Series and point clouds hold only finite reals, and
counts (dimensions, delays, horizons, neighbour, landmark and step
counts) are integers: every entry point coerces its inputs through
``as_values``, ``as_points`` and ``as_count``, which raise
ValidationError naming what they reject. Thread pools take their thread
counts from the rule kept here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapacityError, SeriesFormatError, ValidationError

__all__ = [
    "ScalarSeries",
    "DelayReconstruction",
    "TrainTestSplit",
    "delay_reconstruct",
    "split",
    "load_series",
    "save_series",
]


@dataclass(frozen=True)
class ScalarSeries:
    """A uniformly sampled real-valued observation sequence.

    ``sample_interval`` is metadata only; all delays in the toolkit are
    expressed in samples, not time units.
    """

    values: np.ndarray
    sample_interval: float = 1.0

    def __post_init__(self):
        # copy before freezing so the caller's buffer is never touched
        values = np.array(as_values(self.values), copy=True)
        if values.size < 1:
            raise ValidationError("series must contain at least one value")
        if not self.sample_interval > 0:
            raise ValidationError("sample_interval must be positive")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class DelayReconstruction:
    """An m-dimensional, tau-lagged point cloud built from a scalar series.

    Point ``i`` is ``[x_{j}, x_{j-tau}, ..., x_{j-(m-1)tau}]`` anchored at
    ``j = i + (m-1)*tau``, so every coordinate is observed data (no padding).
    Column 0 holds the most recent sample. From ``delay_reconstruct``, ``points``
    is a read-only view of the series values, not C-contiguous, that keeps them alive.
    """

    m: int
    tau: int
    points: np.ndarray
    source_length: int

    def __post_init__(self):
        expected = self.source_length - (self.m - 1) * self.tau
        if self.points.shape != (expected, self.m):
            raise ValidationError(
                f"reconstruction shape {self.points.shape} does not match "
                f"(source_length - (m-1)*tau, m) = ({expected}, {self.m})"
            )

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class TrainTestSplit:
    """Contiguous prefix/suffix split of a series; no shuffling."""

    train: ScalarSeries
    test: ScalarSeries
    fraction: float


def delay_reconstruct(series, m: int, tau: int) -> DelayReconstruction:
    """Build the delay-coordinate reconstruction of ``series``.

    Parameters
    ----------
    series : ScalarSeries or array-like
        Source observations; any other input than a ScalarSeries is copied.
    m : int
        Reconstruction dimension, >= 1. With ``m=1`` the result is the
        series itself as 1-vectors and ``tau`` is ignored.
    tau : int
        Delay in samples, >= 1.

    Raises
    ------
    CapacityError
        If ``(m-1)*tau >= len(series)`` so no complete vector exists.
    """
    values = as_values(series)
    if not isinstance(series, ScalarSeries):  # the points never alias the caller's array
        values = values.copy()
    m, tau = as_count(m, "m"), as_count(tau, "tau")
    n = values.size
    span = (m - 1) * tau
    if span >= n:
        raise CapacityError(span + 1, n)
    return DelayReconstruction(
        m=m, tau=tau, points=delay_matrix(values, m, tau), source_length=n
    )


def delay_matrix(values: np.ndarray, m: int, tau: int) -> np.ndarray:
    """Delay vectors of a raw value array as an (n - (m-1)*tau, m) matrix,
    for ``(m-1)*tau < n``.

    Column c is the series lagged by c*tau; rows are anchored so that
    row i, column 0 is ``values[i + (m-1)*tau]``. The matrix is a
    read-only view of ``values``, not C-contiguous, that keeps the array
    alive: row i is window i of length ``(m-1)*tau + 1`` read backwards in
    steps of tau, so no memory grows with n.
    """
    return sliding_window_view(values, (m - 1) * tau + 1)[:, ::-tau]


def split(series, fraction: float) -> TrainTestSplit:
    """Split into a training prefix of ``floor(fraction * N)`` samples.

    Both parts must be nonempty; a degenerate split raises. An input that
    is not a ScalarSeries is wrapped in one.
    """
    if not isinstance(series, ScalarSeries):
        series = ScalarSeries(series)
    if not 0.0 < fraction < 1.0:
        raise ValidationError("split fraction must lie strictly between 0 and 1")
    n = len(series)
    n_train = int(np.floor(fraction * n))
    if n_train < 1 or n - n_train < 1:
        raise ValidationError(
            f"fraction {fraction} produces an empty part for length {n}"
        )
    return TrainTestSplit(
        train=ScalarSeries(series.values[:n_train], series.sample_interval),
        test=ScalarSeries(series.values[n_train:], series.sample_interval),
        fraction=fraction,
    )


def _finite_array(data, what: str) -> np.ndarray:
    try:
        array = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must hold real numbers") from None
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{what} must hold only finite values")
    return array


def as_values(series, name: str = "series") -> np.ndarray:
    """The float64 samples of a ScalarSeries, unchanged, or of any other
    input, which must be a one-dimensional array of finite reals; errors
    name the input as ``name``."""
    if isinstance(series, ScalarSeries):
        return series.values
    values = _finite_array(series, name)
    if values.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    return values


def as_points(points) -> np.ndarray:
    """A finite float64 (n, d) point array; a flat input is n
    one-dimensional points."""
    points = _finite_array(points, "point cloud")
    if points.ndim == 1:
        return points[:, None]
    if points.ndim != 2:
        raise ValidationError("point cloud must be a one- or two-dimensional array")
    return points


def as_count(value, name: str, low: int | None = 1) -> int:
    """``value`` as a Python int, for a Python or numpy integer >= ``low``
    (any integer if ``low`` is None). Anything else, ``bool`` and integral
    floats such as 2.0 included, raises ValidationError naming ``name``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low is None or value >= low:
            return int(value)
    bound = "" if low is None else f" >= {low}"
    raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")


def _usable_cores() -> int:
    """Cores this process may run on: the thread count of a grid's cell
    pool and whether the witness pass takes a helper thread."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Characters of text the reader takes at a time (the ``readlines`` hint):
# about 1 MB once held as line strings, less than the array of a
# 2*10^5-line file, so reading peaks near twice the array.
_CHUNK_CHARS = 1 << 18


def read_rows(path, width: int | None = None) -> np.ndarray:
    """Read a text file of comma-separated reals as a (rows, width) float64
    array; blank lines and ``#`` lines are skipped.

    Without ``width`` the first data row sets it. A row with an
    unparseable token, the wrong number of values or a non-finite value
    raises SeriesFormatError carrying its 1-based line number; so does a
    file with no data rows (line 0).

    A token is whatever Python's ``float()`` accepts, surrounding
    whitespace included: ``1_000``, ``+.5``, ``5.``, exponents, and
    full-width or other Unicode decimal digits. ``nan`` and ``inf``
    (``infinity``) parse but are refused as non-finite. Hexadecimal
    (``0x10``), a bare exponent (``1e``), an empty token and an embedded
    NUL are refused.

    The file is read in chunks of about 1 MB of line strings, each
    converted at once; a chunk that fails goes through the line parser,
    which names the first bad line. Memory stays near twice the array.
    """
    parts = []
    lineno = 0
    # undecodable bytes become U+FFFD, which fails to parse with a line number
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        while lines := fh.readlines(_CHUNK_CHARS):
            data = [line for line in lines if line.lstrip()[:1] not in ("", "#")]
            if data:
                block = _convert_chunk(data, width or data[0].count(",") + 1)
                if block is None:
                    block = _parse_lines(lines, lineno + 1, width)
                width = block.shape[1]
                parts.append(block)
            lineno += len(lines)
            # free this chunk's strings before the next chunk is read
            del lines, data
    if not parts:
        raise SeriesFormatError(0, "file contains no data lines")
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _convert_chunk(data: list[str], width: int) -> np.ndarray | None:
    """The data lines of a chunk as a (rows, width) array in one
    conversion, or None if any of them is malformed, ragged or
    non-finite."""
    tokens = data if width == 1 else [line.split(",") for line in data]
    try:
        block = _finite_array(tokens, "chunk")
    except ValidationError:
        return None
    if block.size != len(data) * width:
        return None  # rows of another width
    return block.reshape(len(data), width)


def _parse_lines(lines: list[str], first: int, width: int | None) -> np.ndarray:
    """The rows of ``lines``, numbered from ``first``, parsed one line at a
    time; the first bad line raises SeriesFormatError. Without ``width``
    the first row sets it."""
    rows = []
    for lineno, raw in enumerate(lines, start=first):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            raise SeriesFormatError(
                lineno, f"cannot parse {line!r} as real numbers") from None
        width = width or len(row)
        if len(row) != width:
            raise SeriesFormatError(
                lineno, f"expected {width} values, got {len(row)}")
        if not all(map(math.isfinite, row)):
            raise SeriesFormatError(lineno, f"non-finite value in {line!r}")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def load_series(path) -> ScalarSeries:
    """Read a series file: one decimal value per line, ``#`` lines ignored.

    Parse failures report the 1-based line number; an empty file is an error.
    """
    return ScalarSeries(read_rows(path, width=1)[:, 0])


def write_lines(path, header_lines, rows) -> None:
    """Write a ``#``-headed text file: each header line behind ``# ``,
    then each row on a line of its own. Series files, CSV files and
    ``key=value`` records all take this form."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(f"{row}\n")


# Samples formatted at a time, as Python floats (faster than numpy scalars,
# same text): a list of a whole 10^6-sample series held about 32 MB.
_WRITE_BLOCK = 2**14


def save_series(series: ScalarSeries, path, header_lines: list[str] | None = None) -> None:
    """Write a series file; 17 significant digits so a round trip is exact."""
    values = series.values
    write_lines(path, header_lines or [],
                (f"{x:.17g}" for start in range(0, values.size, _WRITE_BLOCK)
                 for x in values[start : start + _WRITE_BLOCK].tolist()))
