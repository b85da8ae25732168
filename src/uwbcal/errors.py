"""Exception types shared across the package, the input-number checks that
report bad scenario, model and prior values as :class:`ConfigError`, the
CSV reader that reports malformed files as :class:`CsvFormatError`, and the
one float format of every output file."""

import csv
import math
from numbers import Integral, Real

# Every float in an output file carries 9 significant digits (stable goldens).
FLOAT_FORMAT = "%.9g"


class UwbCalError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateGeometry(UwbCalError):
    """Geometric construction impossible (inconsistent or singular inputs)."""

    def __init__(self, message, anchor_id=None):
        super().__init__(message)
        self.anchor_id = anchor_id


class InvalidTiming(UwbCalError):
    """Two-way-ranging timings, or the burst statistics formed from them,
    are unusable: not finite, or violating causality or sign constraints."""


class InsufficientData(UwbCalError):
    """Not enough samples for the requested estimate."""


class DegenerateFit(UwbCalError):
    """Regression inputs carry no usable variation."""


class NotConverged(UwbCalError):
    """Iterative solver hit its iteration cap.

    The best iterate found so far is attached as ``result`` so callers can
    decide whether a non-converged answer is still usable.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class SingularUpdate(UwbCalError):
    """Normal equations rank-deficient beyond what damping can absorb."""


class CollinearAnchors(UwbCalError):
    """Anchor layout is (numerically) collinear; planar fix is ambiguous."""


class ProtocolViolation(UwbCalError):
    """A ranging round broke the protocol: a node got a message out of turn,
    or a pair was left unmeasured. Only the round's message-level model in
    ``tests/oracles.py`` raises it; the library's round measures every pair."""


class EmptyTrace(UwbCalError):
    """Summary requested for a trace containing no records."""


class ConfigError(UwbCalError):
    """Scenario configuration failed validation.

    ``violations`` lists every offending field, one message each.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def finite_number(key: str, value) -> float:
    """``value`` as a float; :class:`ConfigError` naming ``key`` for bools,
    strings and non-finite values."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ConfigError([f"{key}: not a finite number: {echo(repr(value))}"])


def integer(key: str, value) -> int:
    """``value`` as an int (integral floats allowed); :class:`ConfigError`
    naming ``key`` for bools, fractions, strings and non-finite values."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError([f"{key}: not an integer: {echo(repr(value))}"])
    return int(value)


def json_object(key: str, value, required=(), optional=()) -> dict:
    """``value`` if it is a JSON object holding every ``required`` key and
    no key outside ``required`` and ``optional``; :class:`ConfigError`
    naming ``key``, or ``key.<name>`` for each unknown or missing key."""
    if not isinstance(value, dict):
        raise ConfigError([f"{key}: not an object: {echo(repr(value))}"])
    allowed = set(required) | set(optional)
    # a name is echoed as repr escapes it, on one line, without its quotes
    problems = [f"{key}.{echo(repr(name)[1:-1])}: unknown key"
                for name in sorted(set(value) - allowed)]
    problems += [f"{key}.{name}: missing" for name in required
                 if name not in value]
    if problems:
        raise ConfigError(problems)
    return value


def out_of_range(rows, values, where: str = "") -> dict[str, str]:
    """For each value outside the inclusive range of its ``(key, parser,
    low, high)`` row, its key and a message naming ``<where>.<key>`` (the
    bare key when ``where`` is empty), in row order."""
    problems = {}
    for (key, _, low, high), value in zip(rows, values):
        if not low <= value <= high:
            name = f"{where}.{key}" if where else key
            # an above-bound value is not echoed: it may run to 309 digits
            problems[key] = (f"{name}: need <= {high}" if low <= value
                             else f"{name}: need >= {low}, got {echo(value)}")
    return problems


def parse_rows(where: str, raw, rows) -> list:
    """The values of the JSON object ``raw``, one per ``(key, parser, low,
    high)`` row in row order: every row's key present and no other, each
    value read by its row's parser and within its inclusive range.
    :class:`ConfigError` names ``where`` or ``<where>.<key>``, and lists
    every value out of range."""
    json_object(where, raw, required=[key for key, *_ in rows])
    values = [parse(f"{where}.{key}", raw[key]) for key, parse, _, _ in rows]
    problems = out_of_range(rows, values, where)
    if problems:
        raise ConfigError(problems.values())
    return values


def xy_pair(key: str, entry) -> tuple[float, float]:
    """An ``[x, y]`` entry as two floats, through :func:`finite_number`."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise ConfigError([f"{key}: not an [x, y] pair: {echo(repr(entry))}"])
    return finite_number(key, entry[0]), finite_number(key, entry[1])


class CsvFormatError(UwbCalError):
    """A CSV input file does not match its documented schema."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


ECHO_CHARS = 100  # the most characters of an input line a message quotes


def echo(value) -> str:
    """``str(value)``, cut after ECHO_CHARS characters naming how many more."""
    text, cut = str(value), len(str(value)) - ECHO_CHARS
    return text if cut <= 0 else f"{text[:ECHO_CHARS]}... ({cut} more characters)"


def _utf8_lines(f):
    """The lines of the text file ``f``, opened with ``newline=""`` and
    ``errors="surrogateescape"``, as the csv module reads them.

    Each undecodable byte reads as a lone surrogate, which no UTF-8 text
    holds. The first line holding one raises :class:`CsvFormatError`, after
    the lines before it, naming its line, the byte and the byte's offset in
    the file; the other lines are ASCII or take one encode each.
    """
    offset = 0
    for line, text in enumerate(f, start=1):
        try:
            offset += len(text) if text.isascii() else len(text.encode())
        except UnicodeEncodeError as exc:
            head, rest = (text[:exc.start].encode("utf-8"),
                          text[exc.start:].encode("utf-8", "surrogateescape"))
            try:  # the strict decoder's reason for the byte
                rest.decode("utf-8")
            except UnicodeDecodeError as why:
                reason = why.reason
            raise CsvFormatError(
                f"not UTF-8 text: can't decode byte 0x{rest[0]:02x} at byte "
                f"offset {offset + len(head)}: {reason}", line=line) from None
        yield text


def csv_rows(path, header: list[str]):
    """``(line, row)`` for every non-blank data row of the UTF-8 CSV file at
    ``path``, ``line`` being the line the row starts on, the header's line 1.

    A first row other than ``header``, a row whose column count differs from
    the header's, bytes that are not UTF-8 and lines the csv module cannot
    split raise :class:`CsvFormatError`. The rows before the first byte that
    is not UTF-8 come first, so that the caller's checks of them run first.
    """
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as f:
        try:
            reader = csv.reader(_utf8_lines(f))
            first = next(reader, None)
            if first != header:
                raise CsvFormatError(f"expected header {','.join(header)!r}, "
                                     f"got {echo(first)}", line=1)
            # a quoted field may span lines: a row is named by its first
            start = reader.line_num + 1
            for row in reader:
                line, start = start, reader.line_num + 1
                if len(row) != len(header):
                    if not row:
                        continue
                    raise CsvFormatError(f"expected {len(header)} columns, "
                                         f"got {len(row)}", line=line)
                yield line, row
        except csv.Error as exc:
            raise CsvFormatError(f"unreadable CSV: {exc}") from exc
