"""Loading, splitting and synthesizing motor sensor recordings.

A recording is a set of measurement sessions ("profiles"), each a contiguous
run of the test bench sampled at 2 Hz.  Sessions are independent: nothing may
smooth, window or standardize across a profile boundary, which is why the
whole package passes lists of ProfileFrame around instead of one big table.
"""

from __future__ import annotations

import csv
import io
import numbers
import re
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import chain
from math import isfinite

import numpy as np

__all__ = [
    "ATTRIBUTES",
    "PROFILE_COLUMN",
    "DEFAULT_SAMPLE_PERIOD",
    "ProfileFrame",
    "DatasetSplit",
    "SchemaError",
    "CsvParseError",
    "ConfigError",
    "load_csv",
    "save_csv",
    "write_csv",
    "split",
    "synthesize",
    "one_pole",
]

# Measured attributes, in canonical column order.
ATTRIBUTES = (
    "ambient",
    "coolant",
    "u_d",
    "u_q",
    "motor_speed",
    "torque",
    "i_d",
    "i_q",
    "pm",
    "stator_yoke",
    "stator_tooth",
    "stator_winding",
)

PROFILE_COLUMN = "profile_id"

# Bench recordings are sampled at 2 Hz.
DEFAULT_SAMPLE_PERIOD = 0.5


class SchemaError(ValueError):
    """A required column is missing from the input file."""


class CsvParseError(ValueError):
    """A cell could not be parsed as a number."""


class ConfigError(ValueError):
    """A configuration value is inconsistent with the data at hand."""


@dataclass
class ProfileFrame:
    """One measurement session: equal-length float64 series per attribute."""

    profile_id: int
    columns: dict[str, np.ndarray]
    sample_period: float = DEFAULT_SAMPLE_PERIOD

    def __post_init__(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if not lengths:
            raise ValueError("ProfileFrame needs at least one column")
        n = next(iter(lengths.values()))
        if any(m != n for m in lengths.values()):
            raise ValueError(
                f"profile {self.profile_id}: column lengths differ: {lengths}"
            )
        if n < 1:
            raise ValueError(f"profile {self.profile_id} is empty")
        self.columns = {
            name: np.asarray(col, dtype=np.float64)
            for name, col in self.columns.items()
        }

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.columns.values())))

    def __len__(self) -> int:
        return self.n_samples

    def require(self, names) -> None:
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise SchemaError(
                f"profile {self.profile_id} lacks attributes: {', '.join(missing)}"
            )


@dataclass
class DatasetSplit:
    train: list[ProfileFrame] = field(default_factory=list)
    test: list[ProfileFrame] = field(default_factory=list)


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _profile_id(cell: str) -> int:
    """``int(cell)``; float text such as "4.0" or "1e3" only when it is a
    whole number that a float holds exactly.  Anything else is ValueError.
    ``cell`` is ASCII without '_', which ``load_csv`` checks first."""
    try:
        return int(cell)
    except ValueError:
        value = float(cell)
    if not (value.is_integer() and abs(value) <= 2 ** 53):
        raise ValueError(cell)
    return int(value)


def load_csv(path) -> list[ProfileFrame]:
    """Read a combined recording CSV into one ProfileFrame per session.

    The file is UTF-8, optionally after a byte order mark, and is read in
    one pass: each profile's columns grow as float64 buffers, and each cell
    is checked where it is parsed, so the first fault in file order is the
    one reported.  The header names ``profile_id``, every attribute in
    ``ATTRIBUTES`` and no column twice; other columns are ignored with a
    warning.  Frames come back in order of first appearance, rows in file
    order.  Faults raise CsvParseError naming the file.  A byte that is not
    UTF-8, in any column or in the header, raises it naming the column and
    the row.  A row not as wide as the header, a cell that is not a finite
    number, a profile_id that is not a whole number held exactly and a
    profile that resumes after another one started raise it naming the row
    as well.  Numbers
    are ASCII: a cell of ``profile_id`` or an attribute that holds
    an underscore or a non-ASCII character, which ``float`` and ``int``
    read ("1_5" as 15, "٣" as 3), raises it naming the row, the column and
    the cell before any other cell of its row is read.
    """
    suspect: list[str] = []
    # A byte that is not UTF-8 becomes a lone surrogate, which _foreign
    # flags, so the row check finds it where it reads the row.
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        lines = chain.from_iterable(_blocks(fh, suspect))
        return _read_csv(path, csv.reader(lines), suspect)


_UNDECODABLE = re.compile("[\udc80-\udcff]+")


def _refuse_undecodable(path, cell: str, where: str) -> None:
    """Raise CsvParseError if ``cell`` holds bytes that are not UTF-8."""
    bad = _UNDECODABLE.search(cell)
    if bad:
        raise CsvParseError(
            f"{path}: not UTF-8 text: "
            f"{bad.group().encode('utf-8', 'surrogateescape')!r} in {where}"
        )


def _foreign(text: str) -> bool:
    """Whether ``text`` holds an underscore or a non-ASCII character: what
    ``float`` and ``int`` read as part of a number ("1_5" as 15, "٣" as 3)
    but a number in a recording never holds."""
    return "_" in text or not text.isascii()


def _blocks(fh, suspect: list):
    """The lines of ``fh`` in blocks of about the size the file decodes at
    once.  A ``_foreign`` block hands on its lines one by one, appending
    each ``_foreign`` line to ``suspect`` as it goes, so that only those
    rows' cells need a look of their own."""
    for block in iter(lambda: fh.readlines(io.DEFAULT_BUFFER_SIZE), []):
        yield _flag(block, suspect) if _foreign("".join(block)) else block


def _flag(lines, suspect: list):
    for line in lines:
        if _foreign(line):
            suspect.append(line)
        yield line


def _read_csv(path, reader, suspect: list) -> list[ProfileFrame]:
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise SchemaError(f"{path}: file is empty")
    suspect.clear()  # "profile_id" itself holds an underscore
    for at, cell in enumerate(header, start=1):
        _refuse_undecodable(path, cell, f"column {at} of the header")
    missing = [c for c in (PROFILE_COLUMN, *ATTRIBUTES) if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing columns: {', '.join(missing)}")
    twice = sorted({h for h in header if header.count(h) > 1})
    if twice:
        raise SchemaError(f"{path}: columns named twice: {', '.join(twice)}")
    extra = [c for c in header if c != PROFILE_COLUMN and c not in ATTRIBUTES]
    if extra:
        warnings.warn(f"{path}: ignoring unrecognized columns: "
                      f"{', '.join(extra)}", stacklevel=3)
    pid_at = header.index(PROFILE_COLUMN)
    attributes = [(header.index(name), name) for name in ATTRIBUTES]
    numeric = [(pid_at, PROFILE_COLUMN), *attributes]

    # Per profile, in order of first appearance: its columns and its last row.
    columns: dict[int, list[array]] = {}
    ended: dict[int, int] = {}
    pid = None
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            if not row:
                continue
            if len(row) > len(header):
                raise CsvParseError(
                    f"{path}: row {row_no} has {len(row)} cells, but the "
                    f"header has {len(header)}"
                )
            raise CsvParseError(
                f"{path}: row {row_no} has {len(row)} cells, so column "
                f"{header[len(row)]!r} is missing"
            )
        if suspect:
            # The reader has taken only this row's lines from the file.
            suspect.clear()
            _refuse_foreign(path, row_no, row, header, numeric)
        cell = row[pid_at]
        try:
            row_pid = _profile_id(cell)
        except ValueError:
            raise CsvParseError(
                f"{path}: bad profile_id at row {row_no}: {cell!r} is not an "
                f"integer, nor a whole number of at most 2**53 in magnitude"
            )
        if row_pid != pid:
            if row_pid in columns:
                raise CsvParseError(
                    f"{path}: profile {row_pid} resumes at row {row_no} after "
                    f"its rows ended at row {ended[row_pid]}; profile "
                    f"{pid} started in between"
                )
            pid = row_pid
            columns[pid] = [array("d") for _ in ATTRIBUTES]
        ended[pid] = row_no
        for buffer, (at, name) in zip(columns[pid], attributes):
            cell = row[at]
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"{path}: non-numeric value {cell!r} in column "
                    f"{name!r} at row {row_no}"
                )
            if not isfinite(value):
                raise CsvParseError(
                    f"{path}: non-finite value {value} in column "
                    f"{name!r} at row {row_no} (profile {pid})"
                )
            buffer.append(value)
    return [ProfileFrame(pid, {name: np.frombuffer(buffer) for name, buffer
                               in zip(ATTRIBUTES, buffers)})
            for pid, buffers in columns.items()]


def _refuse_foreign(path, row_no, row, header, numeric) -> None:
    """Raise CsvParseError at the first cell of ``row`` that is not UTF-8,
    else at the first ``_foreign`` cell of its ``numeric`` (index, name)
    columns."""
    for cell, name in zip(row, header):
        _refuse_undecodable(path, cell, f"column {name!r} at row {row_no}")
    for at, name in numeric:
        if _foreign(row[at]):
            raise CsvParseError(
                f"{path}: non-numeric value {row[at]!r} in column {name!r} "
                f"at row {row_no}: numbers are ASCII, without '_'"
            )


def save_csv(frames, path) -> None:
    """Write frames back to the combined CSV layout load_csv reads.

    Floats are serialized with repr so a round trip is exact.
    """
    frames = list(frames)
    for frame in frames:
        frame.require(ATTRIBUTES)
    pids = np.repeat([f.profile_id for f in frames], [f.n_samples for f in frames])
    write_csv(path, [PROFILE_COLUMN, *ATTRIBUTES], [pids, *(
        np.concatenate([np.empty(0), *(f.columns[name] for f in frames)])
        for name in ATTRIBUTES)])


_CSV_CHUNK = 1 << 16  # rows per pass: bounds the Python objects alive at once


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D ``columns`` under ``header``: the package's one
    CSV writer.  Floats are written with repr, so they parse back exactly,
    integers in decimal and strings as given; every line ends with ``\\n``.
    Raises ValueError before opening the file when the lengths differ."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns differ in length: {lengths}")
    n = lengths[0] if lengths else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for at in range(0, n, _CSV_CHUNK):
            cells = [map(repr if c.dtype.kind == "f" else str,
                         c[at:at + _CSV_CHUNK].tolist()) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def split(frames, test_ids) -> DatasetSplit:
    """Partition frames into train and held-out sets by profile id."""
    test_ids = list(test_ids)
    for t in test_ids:
        if not _is_int(t):
            raise ConfigError(f"test profile id {t!r} is not an integer")
    test_ids = {int(t) for t in test_ids}
    known = {f.profile_id for f in frames}
    unknown = sorted(test_ids - known)
    if unknown:
        raise ConfigError(
            f"test profile ids not present in data: {', '.join(map(str, unknown))}"
        )
    out = DatasetSplit()
    for f in frames:
        (out.test if f.profile_id in test_ids else out.train).append(f)
    return out


_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


# Rows per block of the one-pole scan.  A block costs log2(block) doubling
# passes and the carry between blocks one more scan over n / block rows; 512
# was the fastest of 64-512 on (20k, 13) and (200k, 13) inputs.
_SCAN_BLOCK = 512


def one_pole(x, pole: float, gain: float = 1.0, init=0.0) -> np.ndarray:
    """The first-order recurrence y[t] = pole * y[t-1] + gain * x[t] along axis 0.

    ``init`` is the state before the first sample, so y[0] = pole * init +
    gain * x[0]; it broadcasts against one row of ``x``.  Trailing axes are
    independent series scanned together.  Rows are split into fixed blocks;
    within each block ~log2(block) recursive-doubling passes
    ``y[k:] += pole**k * y[:-k]`` build the zero-state response, then the
    block-end states are carried across blocks by the same recurrence with
    pole**block and added back as ``pole**(j+1) * carry`` at row j.  Every
    weight is a power of ``pole``, so nothing grows for |pole| <= 1.
    """
    y = gain * np.asarray(x, dtype=np.float64)
    n = len(y)
    if n == 0:
        return y
    y[0] += pole * init
    if pole == 0.0:
        return y
    block = min(n, _SCAN_BLOCK)
    n_blocks = -(-n // block)
    pad = n_blocks * block - n
    if pad:
        y = np.concatenate([y, np.zeros((pad,) + y.shape[1:])])
    blocks = y.reshape((n_blocks, block) + y.shape[1:])
    k = 1
    while k < block:
        weight = pole ** k
        if weight == 0.0:
            break
        blocks[:, k:] += weight * blocks[:, :-k]
        k *= 2
    if n_blocks > 1:
        carry = one_pole(blocks[:-1, -1], pole ** block)
        powers = pole ** np.arange(1, block + 1)
        blocks[1:] += powers.reshape((block,) + (1,) * (y.ndim - 1)) * carry[:, None]
    return y[:n]


def _lag(x: np.ndarray, tau: float) -> np.ndarray:
    """First-order response y[t] = y[t-1] + (x[t] - y[t-1]) / tau, y[0] = x[0]."""
    a = 1.0 / float(tau)
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = one_pole(x[1:], 1.0 - a, a, init=x[0])
    return y


def _smooth(rng: np.random.Generator, n: int, pole: float) -> np.ndarray:
    """Low-pass filtered white noise with roughly unit spread."""
    raw = one_pole(rng.standard_normal(n), pole, 1.0 - pole)
    stat = np.sqrt((1.0 - pole) / (1.0 + pole))  # stationary std of the filter
    return raw / stat


def synthesize(seed: int, profiles: int, length: int) -> list[ProfileFrame]:
    """Generate a small, physically plausible stand-in recording.

    Each profile gets its own substream (splitmix64 of the master seed), so
    the set is reproducible and individual profiles do not share noise.  The
    electrical signals wander smoothly; the four temperatures follow
    first-order lags of an ohmic-loss drive, with the magnet temperature a
    further lag of the winding so that it trails the stator in
    cross-correlation.  Every profile is sampled every
    ``DEFAULT_SAMPLE_PERIOD`` seconds.  Identical arguments give bitwise
    identical output.
    """
    if profiles < 1:
        raise ConfigError("synthesize: need at least one profile")
    if length < 2:
        raise ConfigError("synthesize: need at least two samples per profile")

    frames = []
    state = int(seed) & _M64
    for pid in range(1, profiles + 1):
        state = _splitmix64(state)
        rng = np.random.default_rng(state)
        n = int(length)

        ambient = 22.0 + 1.5 * _smooth(rng, n, 0.995)
        coolant = np.clip(
            45.0
            + 12.0 * _smooth(rng, n, 0.99)
            + 6.0 * np.sin(2 * np.pi * (np.arange(n) / n + rng.uniform())),
            15.0,
            None,
        )
        motor_speed = np.clip(2500.0 + 1500.0 * _smooth(rng, n, 0.97), 0.0, None)
        i_d = -60.0 + 35.0 * _smooth(rng, n, 0.95)
        i_q = 110.0 * _smooth(rng, n, 0.95)
        u_d = 25.0 * _smooth(rng, n, 0.96) - 0.004 * motor_speed
        u_q = 0.035 * motor_speed + 12.0 * _smooth(rng, n, 0.96)
        torque = 0.6 * _smooth(rng, n, 0.9)

        current = np.hypot(i_d, i_q)
        voltage = np.hypot(u_d, u_q)
        apparent = voltage * current

        # Ohmic-loss drive, normalized to O(1).
        drive = 0.7 * (current / 130.0) ** 2 + 0.3 * (apparent / 20000.0)

        winding = 0.55 * coolant + 12.0 + 55.0 * _lag(drive, 25.0) \
            + 0.12 * rng.standard_normal(n)
        tooth = 0.65 * coolant + 9.0 + 42.0 * _lag(drive, 55.0) \
            + 0.10 * rng.standard_normal(n)
        yoke = 0.75 * coolant + 6.0 + 30.0 * _lag(drive, 90.0) \
            + 0.10 * rng.standard_normal(n)
        pm = 14.0 + 0.78 * _lag(winding, 120.0) + 0.08 * rng.standard_normal(n)

        frames.append(ProfileFrame(
            pid,
            {
                "ambient": ambient,
                "coolant": coolant,
                "u_d": u_d,
                "u_q": u_q,
                "motor_speed": motor_speed,
                "torque": torque,
                "i_d": i_d,
                "i_q": i_q,
                "pm": pm,
                "stator_yoke": yoke,
                "stator_tooth": tooth,
                "stator_winding": winding,
            },
        ))
    return frames
