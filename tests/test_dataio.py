"""CSV ingestion, splitting, and the synthetic recording generator."""

import tracemalloc

import numpy as np
import pytest

from motortemp.dataio import (
    ATTRIBUTES,
    ConfigError,
    CsvParseError,
    ProfileFrame,
    SchemaError,
    _lag,
    _smooth,
    load_csv,
    one_pole,
    save_csv,
    split,
    synthesize,
    write_csv,
)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _rows(pid, count, base=1.0):
    return [[pid] + [base + 0.1 * (i + j) for j in range(len(ATTRIBUTES))]
            for i in range(count)]


def recurrence_loop(x, pole, gain=1.0, init=0.0):
    """y[t] = pole * y[t-1] + gain * x[t] with y[-1] = init, one row at a time."""
    y = np.empty(np.shape(x))
    state = init
    for t in range(len(x)):
        state = pole * state + gain * x[t]
        y[t] = state
    return y


class TestOnePole:
    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025, 3000])
    @pytest.mark.parametrize("pole", [0.0, 1.0 / 3.0, 0.97, 0.9995])
    def test_matches_loop(self, n, pole):
        rng = np.random.default_rng(n)
        x = 80.0 * rng.standard_normal((n, 3))
        init = np.array([0.0, 2.5, -40.0])
        np.testing.assert_allclose(
            one_pole(x, pole, 0.3, init=init),
            recurrence_loop(x, pole, 0.3, init=init),
            rtol=0, atol=1e-10,
        )


class TestSynthesizerFilters:
    @pytest.mark.parametrize("n", [1, 2, 513, 1500])
    @pytest.mark.parametrize("tau", [25.0, 120.0])
    def test_lag_matches_loop(self, n, tau):
        x = 30.0 * np.random.default_rng(n).standard_normal(n) + 50.0
        y = _lag(x, tau)
        assert y[0] == x[0]
        want = np.empty(n)
        want[0] = x[0]
        for t in range(1, n):
            want[t] = want[t - 1] + (x[t] - want[t - 1]) / tau
        np.testing.assert_allclose(y, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 513, 1500])
    @pytest.mark.parametrize("pole", [0.9, 0.995])
    def test_smooth_matches_loop(self, n, pole):
        y = _smooth(np.random.default_rng(4), n, pole)
        noise = np.random.default_rng(4).standard_normal(n)
        stat = np.sqrt((1.0 - pole) / (1.0 + pole))
        assert y[0] == (1.0 - pole) * noise[0] / stat
        np.testing.assert_allclose(
            y, recurrence_loop(noise, pole, 1.0 - pole) / stat,
            rtol=0, atol=1e-10,
        )


class TestLoadCsv:
    def test_groups_rows_by_profile(self, tmp_path):
        path = tmp_path / "rec.csv"
        _write_csv(path, ["profile_id", *ATTRIBUTES],
                   _rows(1, 4) + _rows(65, 2, base=5.0))
        frames = load_csv(path)
        assert [f.profile_id for f in frames] == [1, 65]
        assert [len(f) for f in frames] == [4, 2]
        assert frames[0].columns["ambient"][0] == pytest.approx(1.0)
        assert frames[1].columns["ambient"][0] == pytest.approx(5.0)

    def test_extra_column_warns_but_loads(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = [[r[0], 99.0] + r[1:] for r in _rows(1, 3)]
        _write_csv(path, ["profile_id", "bogus", *ATTRIBUTES], rows)
        with pytest.warns(UserWarning, match="bogus"):
            frames = load_csv(path)
        assert len(frames) == 1
        assert "bogus" not in frames[0].columns

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "rec.csv"
        partial = [a for a in ATTRIBUTES if a != "torque"]
        _write_csv(path, ["profile_id", *partial],
                   [[1] + [0.0] * len(partial)])
        with pytest.raises(SchemaError, match="torque"):
            load_csv(path)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = _rows(1, 3)
        rows[1][3] = "oops"
        _write_csv(path, ["profile_id", *ATTRIBUTES], rows)
        with pytest.raises(CsvParseError, match="row 3"):
            load_csv(path)

    # float() and int() read digit group underscores and any Unicode digit.
    @pytest.mark.parametrize("column,cell", [
        ("stator_yoke", "1_5"),
        ("profile_id", "1_5"),
        ("torque", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("i_q", "\uff11"),     # FULLWIDTH DIGIT ONE
    ])
    def test_underscore_or_non_ascii_number_names_row_column_and_cell(
            self, tmp_path, column, cell):
        path = tmp_path / "rec.csv"
        header = ["profile_id", *ATTRIBUTES]
        rows = _rows(1, 4)
        rows[2][header.index(column)] = cell
        _write_csv(path, header, rows)
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert (f"{path}: non-numeric value {cell!r} in column {column!r} "
                f"at row 4") in str(info.value)

    def test_whitespace_exponents_and_non_ascii_names_still_read(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = [[r[0], "\u00b0C"] + r[1:] for r in _rows(1, 3)]
        rows[1][2] = " 2.5e1 "
        rows[2][0] = "\t1E0"
        _write_csv(path, ["profile_id", "unit_\u00e9", *ATTRIBUTES], rows)
        with pytest.warns(UserWarning, match="unit_"):
            frames = load_csv(path)
        assert [f.profile_id for f in frames] == [1]
        assert frames[0].columns["ambient"].tolist() == [1.0, 25.0, 1.2]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_column_row_and_profile(self, tmp_path, cell):
        path = tmp_path / "rec.csv"
        rows = _rows(1, 3) + _rows(7, 3, base=5.0)
        rows[4][1 + ATTRIBUTES.index("motor_speed")] = cell
        _write_csv(path, ["profile_id", *ATTRIBUTES], rows)
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        msg = str(info.value)
        assert f"non-finite value {float(cell)}" in msg
        assert "column 'motor_speed' at row 6 (profile 7)" in msg

    def test_infinite_profile_id_reports_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = _rows(1, 3)
        rows[2][0] = "inf"
        _write_csv(path, ["profile_id", *ATTRIBUTES], rows)
        with pytest.raises(CsvParseError, match="profile_id at row 4"):
            load_csv(path)

    @pytest.mark.parametrize("cells,ids", [
        (["4.0", "5"], [4, 5]),
        (["1e3", "5"], [1000, 5]),
        (["9007199254740993", "9007199254740992"],
         [9007199254740993, 9007199254740992]),
    ])
    def test_profile_ids_read_exactly(self, tmp_path, cells, ids):
        path = tmp_path / "rec.csv"
        rows = _rows(cells[0], 5) + _rows(cells[1], 5, base=5.0)
        _write_csv(path, ["profile_id", *ATTRIBUTES], rows)
        frames = load_csv(path)
        assert [f.profile_id for f in frames] == ids
        assert [len(f) for f in frames] == [5, 5]

    @pytest.mark.parametrize("cell", ["4.7", "1e20"])
    def test_inexact_profile_id_names_path_row_and_cell(self, tmp_path, cell):
        path = tmp_path / "rec.csv"
        _write_csv(path, ["profile_id", *ATTRIBUTES], _rows(cell, 2) + _rows(5, 2))
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert f"{path}: bad profile_id at row 2: {cell!r}" in str(info.value)

    def test_short_row_names_row_and_missing_column(self, tmp_path):
        path = tmp_path / "rec.csv"
        header = ["profile_id", *ATTRIBUTES]
        assert len(header) == 13
        _write_csv(path, header, [[1, 1, 2, 3]])
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        msg = str(info.value)
        assert str(path) in msg
        assert "row 2" in msg
        assert f"column {ATTRIBUTES[3]!r} is missing" in msg

    def test_long_row_names_row_and_both_cell_counts(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = _rows(1, 3)
        rows[1].append(0.5)
        _write_csv(path, ["profile_id", *ATTRIBUTES], rows)
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert f"{path}: row 3 has 14 cells, but the header has 13" in str(info.value)

    def test_column_named_twice_is_schema_error(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = [r + [r[1]] for r in _rows(1, 3)]
        _write_csv(path, ["profile_id", *ATTRIBUTES, "ambient"], rows)
        with pytest.raises(SchemaError, match="columns named twice: ambient"):
            load_csv(path)

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = _rows(1, 10)
        rows[1][1 + ATTRIBUTES.index("pm")] = "nan"
        rows[7][1 + ATTRIBUTES.index("torque")] = "oops"
        _write_csv(path, ["profile_id", *ATTRIBUTES], rows)
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert "non-finite value nan in column 'pm' at row 3" in str(info.value)

    def test_byte_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "rec.csv"
        save_csv(synthesize(seed=0, profiles=1, length=40), path)
        data = bytearray(path.read_bytes())
        data[-5] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert f"{path}: not UTF-8 text" in str(info.value)

    def test_byte_that_is_not_utf8_comes_after_an_earlier_fault(self, tmp_path):
        # The bad byte sits in the last row, a NaN at row 4: the NaN is the
        # first fault in file order.
        path = tmp_path / "rec.csv"
        save_csv(synthesize(seed=0, profiles=1, length=40), path)
        lines = path.read_bytes().split(b"\n")
        cells = lines[3].split(b",")
        cells[1 + ATTRIBUTES.index("coolant")] = b"nan"
        lines[3] = b",".join(cells)
        data = bytearray(b"\n".join(lines))
        data[-6] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert str(info.value) == (f"{path}: non-finite value nan in column "
                                   "'coolant' at row 4 (profile 1)")

    def test_byte_that_is_not_utf8_names_column_and_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        _write_csv(path, ["profile_id", *ATTRIBUTES], _rows(1, 4))
        lines = path.read_bytes().split(b"\n")
        cells = lines[3].split(b",")
        cells[1 + ATTRIBUTES.index("torque")] = b"1.\xe2\x825"
        lines[3] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert str(info.value) == (f"{path}: not UTF-8 text: b'\\xe2\\x82' in "
                                   "column 'torque' at row 4")

    def test_byte_that_is_not_utf8_in_the_header_is_refused(self, tmp_path):
        # In the name of an extra column, which is otherwise ignored.
        path = tmp_path / "rec.csv"
        _write_csv(path, ["profile_id", *ATTRIBUTES, "note"], [
            r + [0.0] for r in _rows(1, 3)])
        path.write_bytes(path.read_bytes().replace(b"note", b"n\xffte", 1))
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert str(info.value) == (f"{path}: not UTF-8 text: b'\\xff' in "
                                   "column 14 of the header")

    def test_byte_that_is_not_utf8_in_an_extra_column_is_refused(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = [r + ["ok"] for r in _rows(1, 5)]
        rows[2][-1] = "\N{LATIN SMALL LETTER E WITH ACUTE}"
        _write_csv(path, ["profile_id", *ATTRIBUTES, "note"], rows)
        path.write_bytes(path.read_bytes().replace(
            "\N{LATIN SMALL LETTER E WITH ACUTE}".encode("utf-8"), b"\xe9"))
        with pytest.raises(CsvParseError) as info:
            with pytest.warns(UserWarning, match="note"):
                load_csv(path)
        assert str(info.value) == (f"{path}: not UTF-8 text: b'\\xe9' in "
                                   "column 'note' at row 4")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_csv(synthesize(seed=2, profiles=2, length=30), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for a, b in zip(load_csv(plain), load_csv(marked), strict=True):
            assert a.profile_id == b.profile_id
            for name in ATTRIBUTES:
                assert a.columns[name].tobytes() == b.columns[name].tobytes()

    def test_peak_memory_is_near_the_float64_payload(self, tmp_path):
        path = tmp_path / "rec.csv"
        save_csv(synthesize(seed=0, profiles=5, length=4000), path)
        tracemalloc.start()
        try:
            frames = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = sum(c.nbytes for f in frames for c in f.columns.values())
        assert payload == 5 * 4000 * len(ATTRIBUTES) * 8
        assert peak <= 2 * payload, f"peak {peak / payload:.2f}x the payload"

    def test_interleaved_profile_is_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = _rows(1, 3) + _rows(2, 2, base=5.0) + _rows(1, 1)
        _write_csv(path, ["profile_id", *ATTRIBUTES], rows)
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        msg = str(info.value)
        assert "profile 1 resumes at row 7" in msg
        assert "ended at row 4" in msg
        assert "profile 2 started in between" in msg

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_roundtrip_is_exact(self, tmp_path):
        frames = synthesize(seed=4, profiles=2, length=50)
        path = tmp_path / "out.csv"
        save_csv(frames, path)
        reloaded = load_csv(path)
        assert len(reloaded) == 2
        for orig, back in zip(frames, reloaded):
            assert orig.profile_id == back.profile_id
            for name in ATTRIBUTES:
                np.testing.assert_array_equal(
                    orig.columns[name], back.columns[name]
                )


class TestWriteCsv:
    EDGE = [0.1 + 0.2, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-310]

    def test_floats_parse_back_bitwise(self, tmp_path):
        path = tmp_path / "f.csv"
        values = np.array(self.EDGE)
        write_csv(path, ["x"], [values])
        lines = path.read_text().splitlines()
        assert lines[0] == "x"
        back = np.array([float(v) for v in lines[1:]])
        assert back.tobytes() == values.tobytes()  # -0.0 keeps its sign
        assert lines[1] == "0.30000000000000004"

    def test_integer_and_string_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["id", "tag", "v"],
                  [np.array([3, -12], dtype=np.int64), np.array(["a:1", "b:2"]),
                   [1.5, 2.0]])
        assert path.read_bytes() == b"id,tag,v\n3,a:1,1.5\n-12,b:2,2.0\n"

    def test_unequal_lengths_raise_before_writing(self, tmp_path):
        path = tmp_path / "u.csv"
        with pytest.raises(ValueError, match=r"columns differ in length: \[2, 3\]"):
            write_csv(path, ["a", "b"], [np.zeros(2), np.zeros(3)])
        assert not path.exists()

    def test_chunking_does_not_change_bytes(self, tmp_path, monkeypatch):
        frames = synthesize(seed=2, profiles=2, length=7)
        save_csv(frames, tmp_path / "one.csv")
        monkeypatch.setattr("motortemp.dataio._CSV_CHUNK", 3)
        save_csv(frames, tmp_path / "chunked.csv")
        text = (tmp_path / "one.csv").read_bytes()
        assert (tmp_path / "chunked.csv").read_bytes() == text
        assert b"\r" not in text and text.count(b"\n") == 15


class TestProfileFrame:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="lengths differ"):
            ProfileFrame(1, {"a": np.zeros(3), "b": np.zeros(2)})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProfileFrame(1, {"a": np.zeros(0)})

    def test_require_names_missing(self):
        f = ProfileFrame(7, {"a": np.zeros(2)})
        with pytest.raises(SchemaError, match="coolant"):
            f.require(["a", "coolant"])


class TestSplit:
    def test_partitions_by_id(self):
        frames = synthesize(seed=1, profiles=5, length=10)
        out = split(frames, [2, 5])
        assert [f.profile_id for f in out.train] == [1, 3, 4]
        assert [f.profile_id for f in out.test] == [2, 5]

    def test_empty_test_set_allowed(self):
        frames = synthesize(seed=1, profiles=3, length=10)
        out = split(frames, [])
        assert len(out.train) == 3 and out.test == []

    def test_unknown_id_is_config_error(self):
        frames = synthesize(seed=1, profiles=3, length=10)
        with pytest.raises(ConfigError, match="65"):
            split(frames, [65])

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", None],
                             ids=["float", "whole_float", "bool", "str", "none"])
    def test_id_that_is_not_an_integer_is_config_error(self, bad):
        # int() would turn 2.7 into profile 2 and True into profile 1.
        frames = synthesize(seed=1, profiles=3, length=10)
        with pytest.raises(ConfigError) as info:
            split(frames, [3, bad])
        assert str(info.value) == f"test profile id {bad!r} is not an integer"

    def test_numpy_integer_ids_are_accepted(self):
        frames = synthesize(seed=1, profiles=3, length=10)
        out = split(frames, np.array([2], dtype=np.int64))
        assert [f.profile_id for f in out.test] == [2]


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize(seed=9, profiles=2, length=1300)
        b = synthesize(seed=9, profiles=2, length=1300)
        for fa, fb in zip(a, b):
            for name in ATTRIBUTES:
                np.testing.assert_array_equal(
                    fa.columns[name], fb.columns[name]
                )

    def test_seed_changes_output(self):
        a = synthesize(seed=9, profiles=1, length=100)[0]
        b = synthesize(seed=10, profiles=1, length=100)[0]
        assert not np.array_equal(a.columns["pm"], b.columns["pm"])

    def test_profiles_are_independent_streams(self):
        one = synthesize(seed=9, profiles=1, length=100)[0]
        two = synthesize(seed=9, profiles=2, length=100)
        np.testing.assert_array_equal(
            one.columns["i_q"], two[0].columns["i_q"]
        )
        assert not np.array_equal(
            two[0].columns["i_q"], two[1].columns["i_q"]
        )

    def test_schema_and_shapes(self):
        frames = synthesize(seed=0, profiles=3, length=42)
        assert [f.profile_id for f in frames] == [1, 2, 3]
        for f in frames:
            assert set(f.columns) == set(ATTRIBUTES)
            assert all(len(col) == 42 for col in f.columns.values())
            assert all(np.isfinite(col).all() for col in f.columns.values())

    def test_magnet_lags_winding(self):
        frame = synthesize(seed=3, profiles=1, length=4000)[0]
        pm = frame.columns["pm"]
        winding = frame.columns["stator_winding"]

        def corr_at(tau):
            # correlation of pm[t] against winding[t - tau]
            if tau > 0:
                return np.corrcoef(pm[tau:], winding[:-tau])[0, 1]
            if tau < 0:
                return np.corrcoef(pm[:tau], winding[-tau:])[0, 1]
            return np.corrcoef(pm, winding)[0, 1]

        lags = range(-300, 301, 5)
        best = max(lags, key=corr_at)
        assert best > 0, f"peak cross-correlation at lag {best}"

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            synthesize(seed=0, profiles=0, length=10)
        with pytest.raises(ConfigError):
            synthesize(seed=0, profiles=1, length=1)
