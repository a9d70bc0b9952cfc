"""Scalar series container, delay-coordinate reconstruction, and splitting.

Everything downstream of this module works on 64-bit floats. A series is
immutable after construction; reconstructions are read-only views where
numpy allows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 1:
            raise ValidationError("series values must be one-dimensional")
        if values.size < 1:
            raise ValidationError("series must contain at least one value")
        if not np.all(np.isfinite(values)):
            raise ValidationError("series values must all be finite")
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
    Column 0 holds the most recent sample.
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


def delay_reconstruct(series: ScalarSeries, m: int, tau: int) -> DelayReconstruction:
    """Build the delay-coordinate reconstruction of ``series``.

    Parameters
    ----------
    series : ScalarSeries
        Source observations.
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
    if m < 1:
        raise ValidationError("embedding dimension m must be >= 1")
    if tau < 1:
        raise ValidationError("delay tau must be >= 1")
    n = len(series)
    span = (m - 1) * tau
    if span >= n:
        raise CapacityError(span + 1, n)
    return DelayReconstruction(
        m=m, tau=tau, points=delay_matrix(series.values, m, tau), source_length=n
    )


def delay_matrix(values: np.ndarray, m: int, tau: int) -> np.ndarray:
    """Delay vectors of a raw value array as an (n - (m-1)*tau, m) matrix.

    Column c is the series lagged by c*tau; rows are anchored so that
    row i, column 0 is ``values[i + (m-1)*tau]``.
    """
    n = values.shape[0]
    count = n - (m - 1) * tau
    cols = [values[(m - 1 - c) * tau : (m - 1 - c) * tau + count] for c in range(m)]
    out = np.column_stack(cols)
    out.flags.writeable = False
    return out


def split(series: ScalarSeries, fraction: float) -> TrainTestSplit:
    """Split into a training prefix of ``floor(fraction * N)`` samples.

    Both parts must be nonempty; a degenerate split raises.
    """
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


def as_values(series) -> np.ndarray:
    """The float64 samples of a ScalarSeries or of any array-like."""
    if isinstance(series, ScalarSeries):
        return series.values
    return np.asarray(series, dtype=np.float64)


def as_points(points) -> np.ndarray:
    """A float64 (n, d) point array; a flat input is n one-dimensional points."""
    points = np.asarray(points, dtype=np.float64)
    return points[:, None] if points.ndim == 1 else points


def read_rows(path, width: int | None = None) -> np.ndarray:
    """Read a text file of comma-separated reals as a (rows, width) float64
    array; blank lines and ``#`` lines are skipped.

    Without ``width`` the first data row sets it. A row with an
    unparseable token, the wrong number of values or a non-finite value
    raises SeriesFormatError carrying its 1-based line number; so does a
    file with no data rows (line 0).
    """
    rows = []
    # undecodable bytes become U+FFFD, which fails to parse with a line number
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    if not rows:
        raise SeriesFormatError(0, "file contains no data lines")
    return np.array(rows, dtype=np.float64)


def load_series(path) -> ScalarSeries:
    """Read a series file: one decimal value per line, ``#`` lines ignored.

    Parse failures report the 1-based line number; an empty file is an error.
    """
    return ScalarSeries(read_rows(path, width=1)[:, 0])


def save_series(series: ScalarSeries, path, header_lines: list[str] | None = None) -> None:
    """Write a series file; 17 significant digits so a round trip is exact."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        for x in series.values:
            fh.write(f"{x:.17g}\n")
