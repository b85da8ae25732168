"""The trace reader, ``read_trace_records``, against the row-by-row
oracle ``read_trace_rows``: where the reader accepts a file, its records are
the oracle's; where it refuses one, it names a line of the file and the rule
the line breaks."""

import functools
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import uwbcal.sim as sim
from oracles import read_trace_rows
from uwbcal.errors import FLOAT_FORMAT, CsvFormatError
from uwbcal.sim import (ScenarioConfig, StepTable, read_trace_records,
                        run_scenario, summarize, write_trace_csv)

# simulate's default scenario, a 3-anchor one whose tag fixes partly fail
# (their est_x, est_y and error_m fields are empty) and the long_drift
# benchmark shape (500 steps of 5 anchors, over several blocks)
SHAPES = [{}, {"n_anchors": 3},
          {"n_anchors": 5, "n_tags": 0, "n_steps": 500,
           "calibration_period": 250}]


def simulated(shape, path):
    """The trace of ``shape``, written to ``path``."""
    trace = run_scenario(ScenarioConfig.from_dict(shape))
    write_trace_csv(trace, path)
    return trace


@functools.cache
def simulated_bytes(k: int) -> bytes:
    """The trace of ``SHAPES[k]``, as written."""
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "trace.csv"
        simulated(SHAPES[k], path)
        return path.read_bytes()


def read_or_refuse(path) -> str:
    """The reader's records of ``path`` after checking them against the
    oracle's, as ``repr``, or the message of the one error it refuses the
    file with, after checking that the message names a line of the file
    (or the line after the last, where a step is cut short); only a trace
    without data rows names none."""
    try:
        table = read_trace_records(path)
    except CsvFormatError as exc:
        assert type(exc) is CsvFormatError
        message = str(exc)
        if message == "trace has no data rows":
            return message
        with open(path, newline="", encoding="utf-8",
                  errors="surrogateescape") as f:
            lines = sum(1 for _ in f)
        named = re.match(r"line (\d+): ", message)
        assert named and int(named[1]) == exc.line, message
        assert 1 <= exc.line <= lines + 1, message
        return message
    records = repr(table.records)
    assert records == repr(read_trace_rows(path))
    return records


@pytest.mark.parametrize("ending", [b"\r\n", b"\n"])
@pytest.mark.parametrize("k", range(len(SHAPES)))
def test_simulated_traces_are_read_in_blocks(tmp_path, monkeypatch, k,
                                             ending):
    # simulate writes CRLF; a copy in LF reads the same, and both are read
    # in blocks of as many whole steps as TRACE_BLOCK_ROWS holds, the last
    # block maybe fewer
    path = tmp_path / "trace.csv"
    path.write_bytes(simulated_bytes(k).replace(b"\r\n", ending))
    blocks = []
    steps_of = sim._steps_of

    def counted(lines, n, width):
        blocks.append((len(lines), width))
        return steps_of(lines, n, width)

    monkeypatch.setattr(sim, "_steps_of", counted)
    assert read_or_refuse(path).startswith("[TraceRecord(")
    (width,) = {width for _, width in blocks}
    sizes = [size for size, _ in blocks]
    full = sim.TRACE_BLOCK_ROWS // width * width
    assert sum(sizes) == simulated_bytes(k).count(b"\r\n") - 1
    assert set(sizes[:-1]) <= {full} and 0 < sizes[-1] <= full
    assert sizes[-1] % width == 0


def as_written(table: StepTable) -> StepTable:
    """``table`` with every error and rotation rounded to the 9 digits a
    trace CSV holds."""
    def rounded(values):
        return np.array([float(FLOAT_FORMAT % v)
                         for v in values.ravel().tolist()]).reshape(
                             values.shape)

    return StepTable(table.steps, table.n_anchors, rounded(table.errors),
                     rounded(table.rotations), table.calibrated)


@pytest.mark.parametrize("k", range(len(SHAPES)))
def test_summarize_is_the_same_from_every_source(tmp_path, k):
    # the trace and its records, and the written trace, as written and in LF
    trace = run_scenario(ScenarioConfig.from_dict(SHAPES[k]))
    assert repr(summarize(trace)) == repr(summarize(trace.records))
    expected = repr(summarize(as_written(trace.table)))
    assert repr(summarize(as_written(StepTable.of(trace.records)))) == expected
    for ending in (b"\r\n", b"\n"):
        path = tmp_path / "trace.csv"
        path.write_bytes(simulated_bytes(k).replace(b"\r\n", ending))
        assert repr(summarize(read_trace_records(path))) == expected


def test_the_3_anchor_trace_has_failed_fixes():
    assert simulated_bytes(1).count(b",tag,") > simulated_bytes(1).count(
        b",,,") > 0


@pytest.mark.parametrize("shape", SHAPES)
def test_round_trip_is_exact(tmp_path, shape):
    # every value comes back as the 9 digits it was written with
    path = tmp_path / "trace.csv"
    trace = simulated(shape, path)
    records = read_trace_records(path).records
    assert len(records) == len(trace.records)

    def written(values):
        return [float(FLOAT_FORMAT % v) for v in values]

    for got, r in zip(records, trace.records):
        assert (got.step, got.calibrated) == (r.step, r.calibrated)
        assert list(got.anchor_errors) == written(r.anchor_errors)
        assert got.rotation_error == float(FLOAT_FORMAT % r.rotation_error)
        assert [e for e in got.tag_errors if not math.isnan(e)] == written(
            e for e in r.tag_errors if not math.isnan(e))
        assert [math.isnan(e) for e in got.tag_errors] == \
            [math.isnan(e) for e in r.tag_errors]


def test_peak_memory_is_at_most_the_row_readers(tmp_path):
    # 50,000 rows: 10,000 steps of 5 anchors; the whole text is not held
    path = tmp_path / "trace.csv"
    simulated({"n_anchors": 5, "n_tags": 0, "n_steps": 10_000,
               "calibration_period": 250}, path)

    def peak(read):
        tracemalloc.start()
        try:
            records = read(path)
            return tracemalloc.get_traced_memory()[1], records
        finally:
            tracemalloc.stop()

    row_peak, expected = peak(read_trace_rows)
    block_peak, table = peak(read_trace_records)
    assert table.records == expected
    assert block_peak <= row_peak


def swap_steps(lines, a, b, width=5):
    """Swap steps ``a`` and ``b`` of the trace ``lines``, in place."""
    a, b = 1 + a * width, 1 + b * width
    lines[a:a + width], lines[b:b + width] = \
        lines[b:b + width], lines[a:a + width]


def set_field(lines, i, k, value: bytes):
    """Set field ``k`` of line ``i`` of ``lines`` to ``value``, in place."""
    body = lines[i].rstrip(b"\r\n")
    fields = body.split(b",")
    fields[k] = value
    lines[i] = b",".join(fields) + lines[i][len(body):]


# edits of the long_drift trace: all but three break a rule of the layout
EDITS = {
    "steps 0 and 1 swapped": lambda lines: swap_steps(lines, 0, 1),
    "the steps around the first block boundary swapped":
        lambda lines: swap_steps(lines, sim.TRACE_BLOCK_ROWS // 5 - 1,
                                 sim.TRACE_BLOCK_ROWS // 5),
    "steps 2 and 300 swapped": lambda lines: swap_steps(lines, 2, 300),
    "two rows of a step swapped": lambda lines: lines.__setitem__(
        slice(2, 4), lines[3:1:-1]),
    "a row's kind changed": lambda lines: set_field(lines, 10, 1, b"tag"),
    "a row's step changed": lambda lines: set_field(lines, 8, 0, b"2"),
    "a step's flags all 7": lambda lines: [
        set_field(lines, i, 9, b"7") for i in range(6, 11)],
    "a step's rotations all nan": lambda lines: [
        set_field(lines, i, 8, b"nan") for i in range(6, 11)],
    "a row's rotation differs": lambda lines: set_field(lines, 7, 8, b"0.5"),
    "a row's rotation respelled": lambda lines: set_field(
        lines, 7, 8, lines[7].split(b",")[8] + b" "),
    "a row's step respelled": lambda lines: set_field(lines, 8, 0, b"+1"),
    "a row's flag respelled": lambda lines: set_field(lines, 8, 9, b"00"),
    "a row's flag differs": lambda lines: set_field(lines, 8, 9, b"1"),
    "two fields quoted as one": lambda lines: (
        set_field(lines, 9, 3, b'"' + lines[9].split(b",")[3]),
        set_field(lines, 9, 4, lines[9].split(b",")[4] + b'"')),
    "an error respelled, still in the layout":
        lambda lines: set_field(lines, 9, 7, b"5e-1"),
    "an overflowing error": lambda lines: set_field(lines, 9, 7, b"1e400"),
    "a step's rows cut short": lambda lines: lines.pop(700),
    "the last step cut short": lambda lines: lines.pop(),
    "one line ends in LF": lambda lines: lines.__setitem__(
        9, lines[9].replace(b"\r\n", b"\n")),
    "the last line has no ending": lambda lines: lines.__setitem__(
        -1, lines[-1].rstrip(b"\r\n")),
    # a field of 100,000 characters, of which a message quotes 100
    "a long error not a number": lambda lines: set_field(
        lines, 9, 7, b"x" * 100_000),
    "a long overflowing error": lambda lines: set_field(
        lines, 9, 7, b"1" * 100_000),
    "a long overflowing rotation": lambda lines: set_field(
        lines, 9, 8, b"1" * 100_000),
    "a long differing rotation": lambda lines: set_field(
        lines, 9, 8, b"0.5" + b"0" * 99_997),
    "a long flag": lambda lines: set_field(
        lines, 9, 9, b"0" + b" " * 99_999),
    "a long step": lambda lines: set_field(
        lines, 9, 0, b" " * 99_999 + b"1"),
    "a long kind": lambda lines: set_field(
        lines, 9, 1, b"anchor" + b"x" * 99_994),
}


# how the reader refuses each edit that breaks a rule (the start of its
# message); the others read to the oracle's records
REFUSALS = {
    "steps 0 and 1 swapped":
        "line 7: step 0 follows step 1; steps must increase",
    "the steps around the first block boundary swapped":
        "line 257: step 50 follows step 51; steps must increase",
    "steps 2 and 300 swapped":
        "line 17: step 3 follows step 300; steps must increase",
    "two rows of a step swapped":
        "line 3: step 0: expected anchor 1, got anchor 2",
    "a row's kind changed": "line 11: step 1: expected anchor 4, got tag 4",
    "a row's step changed":
        "line 9: step 1: step 2 differs from the step's first row",
    "a step's flags all 7": "line 7: calibrated must be 0 or 1, got '7'",
    "a step's rotations all nan":
        "line 7: rotation_error_rad must be a finite number, got 'nan'",
    "a row's rotation differs":
        "line 8: step 1: rotation_error_rad,calibrated 0.5,0 differ from",
    "a row's rotation respelled":
        "line 8: step 1: rotation_error_rad,calibrated 0.0266972051 ,0 "
        "differ from the step's first row, 0.0266972051,0",
    "a row's step respelled":
        "line 9: step 1: step +1 differs from the step's first row",
    "a row's flag respelled": "line 9: calibrated must be 0 or 1, got '00'",
    "a row's flag differs":
        "line 9: step 1: rotation_error_rad,calibrated 0.0266972051,1 "
        "differ from the step's first row, 0.0266972051,0",
    "two fields quoted as one": "line 10: a field is quoted",
    "an overflowing error":
        "line 10: anchor 3: error_m must be a finite number, got '1e400'",
    "a step's rows cut short":
        "line 701: step 139 is cut short: it holds 4 of 5 rows",
    "the last step cut short": "line 2501: step 499 is cut short: the trace "
                               "ends after 4 of its 5 rows",
    "a long error not a number":
        "line 10: could not convert string to float: 'xxx",
    "a long overflowing error":
        "line 10: anchor 3: error_m must be a finite number, got '111",
    "a long overflowing rotation":
        "line 10: rotation_error_rad must be a finite number, got '111",
    "a long differing rotation":
        "line 10: step 1: rotation_error_rad,calibrated 0.5000",
    "a long flag": "line 10: calibrated must be 0 or 1, got '0 ",
    "a long step": "line 10: step 1: step    ",
    "a long kind": "line 10: step 1: expected anchor 3, got anchorxxx",
}


@pytest.mark.parametrize("edit", EDITS)
def test_an_edit_gives_the_row_readers_result(tmp_path, edit):
    lines = simulated_bytes(2).splitlines(keepends=True)
    EDITS[edit](lines)
    path = tmp_path / "trace.csv"
    path.write_bytes(b"".join(lines))
    message = read_or_refuse(path)
    assert message.startswith(REFUSALS.get(edit, "[TraceRecord("))
    if edit in REFUSALS:
        assert len(message) < 1024, message


# fields respelled to the same value, to another one, or to no number
SPELLINGS = ["1e-2", " 1", "+1", "00", "01", "-0", "1_0", "0.50", "nan",
             "inf", "-inf", "x", "", '"0"', "2", "7", "-1", "1e400"]


@st.composite
def mutated_traces(draw) -> bytes:
    """A trace ``simulate`` wrote, with up to three lines or fields changed,
    its line endings changed, or a byte that is not UTF-8 put in."""
    lines = simulated_bytes(draw(st.integers(0, len(SHAPES) - 1))) \
        .splitlines(keepends=True)

    def line():
        return draw(st.integers(0, len(lines) - 1))

    def data_line():
        return draw(st.integers(1, len(lines) - 1))

    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        # a respelled error keeps the layout when it is a finite number,
        # and so do two whole steps swapped
        how = draw(st.sampled_from([
            "swap", "swap steps", "delete", "duplicate", "blank", "quote",
            "respell", "respell step", "respell error", "respell error",
            "respell rotation", "kind", "column", "header", "ending"]))
        if how == "swap":
            # often two rows of one step
            i = data_line()
            j = min(i + draw(st.integers(1, 8)), len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        elif how == "swap steps":
            # often the two around the reader's first block boundary
            step = lines[1].split(b",")[0] + b","
            width = sum(1 for x in lines[1:] if x.startswith(step))
            last = (len(lines) - 1) // width - 1 if width else 0
            if last < 1:  # line 1 was changed before, or too many deleted
                continue
            a = draw(st.integers(0, last - 1)
                     | st.just(min(sim.TRACE_BLOCK_ROWS // width, last) - 1))
            b = draw(st.just(a + 1) | st.integers(a + 1, last))
            a, b = 1 + a * width, 1 + b * width
            lines[a:a + width], lines[b:b + width] = \
                lines[b:b + width], lines[a:a + width]
        elif how == "delete":
            del lines[line()]
        elif how == "duplicate":
            i = line()
            lines.insert(i, lines[i])
        elif how == "blank":
            lines.insert(line(), draw(st.sampled_from([b"\r\n", b"\n"])))
        elif how in ("quote", "respell", "respell step", "respell error",
                     "respell rotation", "kind", "column"):
            i = data_line()
            body = lines[i].rstrip(b"\r\n")
            fields = body.split(b",")
            k = {"respell step": 0, "kind": 1, "respell error": 7,
                 "respell rotation": 8}.get(how)
            if k is None:
                k = draw(st.integers(0, len(fields) - 1))
            if k >= len(fields):  # a blank line put in before
                continue
            if how == "quote" and k + 1 < len(fields) and draw(st.booleans()):
                # one quoted field over two: the csv module sees one column
                # fewer than the commas show
                fields[k] = b'"' + fields[k]
                fields[k + 1] += b'"'
            elif how == "quote":
                fields[k] = b'"' + fields[k] + b'"'
            elif how == "kind":
                fields[k] = b"tag" if fields[k] == b"anchor" else b"anchor"
            elif how == "column":
                fields.insert(k, b"0")
            else:
                fields[k] = draw(st.sampled_from(SPELLINGS)).encode()
            lines[i] = b",".join(fields) + lines[i][len(body):]
        elif how == "header":
            lines[0] = lines[0].replace(b"calibrated", b"calibrate")
        else:
            i = line()
            ending = draw(st.sampled_from([b"\n", b"\r", b""]))
            lines[i] = lines[i].rstrip(b"\r\n") + ending
    data = b"".join(lines)
    # as often as not, the file keeps its layout and the reader accepts it
    ending = draw(st.sampled_from([None, None, b"\n", b"\r"]))
    if ending is not None:
        data = data.replace(b"\r\n", ending)
    if draw(st.integers(0, 3)) == 0 and data:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + \
            data[at:]
    return data


@settings(max_examples=200, deadline=None)
@given(mutated_traces())
# a trace with an infinite error_m, one whose first number to parse is
# 100,000 x's, and a calibration input
@example(b"step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
         b"rotation_error_rad,calibrated\n0,anchor,0,0,0,0,0,0,0.01,0\n"
         b"0,anchor,1,9,0,9.2,0,inf,0.01,0\n")
@example(b"step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
         b"rotation_error_rad,calibrated\n0,anchor,0,0,0,0,0,"
         + b"x" * 100_000 + b",0.01,0\n")
@example(b"i,j,mean_m,std_m,count\n" + b"".join(
    b"%s,1e308,0,1\n" % pair for pair in (b"0,1", b"1,0", b"0,2", b"2,0",
                                           b"1,2", b"2,1")))
def test_block_reader_gives_the_row_readers_result(data):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "trace.csv"
        path.write_bytes(data)
        read_or_refuse(path)
