"""Loading, splitting and synthesizing motor sensor recordings.

A recording is a set of measurement sessions ("profiles"), each a contiguous
run of the test bench sampled at 2 Hz.  Sessions are independent: nothing may
smooth, window or standardize across a profile boundary, which is why the
whole package passes lists of ProfileFrame around instead of one big table.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

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


def _profile_id(cell: str) -> int:
    """``int(cell)``; float text such as "4.0" or "1e3" only when it is a
    whole number that a float holds exactly.  Anything else is ValueError."""
    try:
        return int(cell)
    except ValueError:
        value = float(cell)
    if not (value.is_integer() and abs(value) <= 2 ** 53):
        raise ValueError(cell)
    return int(value)


def load_csv(path) -> list[ProfileFrame]:
    """Read a combined recording CSV into one ProfileFrame per session.

    The file must carry a ``profile_id`` column plus every attribute in
    ``ATTRIBUTES``.  Extra columns are ignored with a warning.  Frames come
    back in order of first appearance, rows in file order.  Each profile's
    rows must be one contiguous run.  A cell that is not a finite number, a
    profile_id that is not a whole number held exactly, a row too short to
    hold every column and a profile that resumes after another one started
    raise CsvParseError with the rows at fault.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        missing = [c for c in (PROFILE_COLUMN, *ATTRIBUTES) if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns: {', '.join(missing)}")
        extra = [c for c in header if c != PROFILE_COLUMN and c not in ATTRIBUTES]
        if extra:
            warnings.warn(
                f"{path}: ignoring unrecognized columns: {', '.join(extra)}",
                stacklevel=2,
            )
        col_idx = {c: header.index(c) for c in (PROFILE_COLUMN, *ATTRIBUTES)}
        needed = max(col_idx.values()) + 1

        buckets: dict[int, dict[str, list[float]]] = {}
        row_numbers: dict[int, list[int]] = {}
        order: list[int] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < needed:
                first = min(i for i in col_idx.values() if i >= len(row))
                raise CsvParseError(
                    f"{path}: row {row_no} has {len(row)} cells, so column "
                    f"{header[first]!r} is missing"
                )
            cell = row[col_idx[PROFILE_COLUMN]]
            try:
                pid = _profile_id(cell)
            except ValueError:
                raise CsvParseError(
                    f"{path}: bad profile_id at row {row_no}: {cell!r} is not an "
                    f"integer, nor a whole number of at most 2**53 in magnitude"
                )
            if pid in buckets and pid != order[-1]:
                raise CsvParseError(
                    f"{path}: profile {pid} resumes at row {row_no} after "
                    f"its rows ended at row {row_numbers[pid][-1]}; profile "
                    f"{order[-1]} started in between"
                )
            if pid not in buckets:
                buckets[pid] = {name: [] for name in ATTRIBUTES}
                row_numbers[pid] = []
                order.append(pid)
            row_numbers[pid].append(row_no)
            bucket = buckets[pid]
            for name in ATTRIBUTES:
                cell = row[col_idx[name]]
                try:
                    bucket[name].append(float(cell))
                except ValueError:
                    raise CsvParseError(
                        f"{path}: non-numeric value {cell!r} in column "
                        f"{name!r} at row {row_no}"
                    )

    frames = []
    for pid in order:
        columns = {n: np.array(v) for n, v in buckets[pid].items()}
        for name, col in columns.items():
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                i = bad[0]
                raise CsvParseError(
                    f"{path}: non-finite value {float(col[i])} in column "
                    f"{name!r} at row {row_numbers[pid][i]} (profile {pid})"
                )
        frames.append(ProfileFrame(pid, columns))
    return frames


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
    test_ids = set(int(t) for t in test_ids)
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


def synthesize(seed: int, profiles: int, length: int,
               sample_period: float = DEFAULT_SAMPLE_PERIOD) -> list[ProfileFrame]:
    """Generate a small, physically plausible stand-in recording.

    Each profile gets its own substream (splitmix64 of the master seed), so
    the set is reproducible and individual profiles do not share noise.  The
    electrical signals wander smoothly; the four temperatures follow
    first-order lags of an ohmic-loss drive, with the magnet temperature a
    further lag of the winding so that it trails the stator in
    cross-correlation.  Identical arguments give bitwise identical output.
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
            sample_period=sample_period,
        ))
    return frames
