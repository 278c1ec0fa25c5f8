"""Exception types shared across the package, and the text-file read
that turns undecodable bytes into one of them.

The CLI maps these onto exit codes: DataError subclasses exit with 2,
NumericalError with 3.
"""

import codecs
import dataclasses
import io
import math
from pathlib import Path


class SpoofNetError(Exception):
    """Base class for all package errors."""


class DataError(SpoofNetError):
    """Problems with input data (audio, manifests, annotations, scores)."""


class InvalidAudio(DataError):
    """Audio input that cannot be ingested (empty, unsupported format)."""


class SilentAudio(DataError):
    """Audio with no content above the silence threshold."""


class ParseError(DataError):
    """Malformed manifest or config row; carries the offending line number,
    and for a config record's field error the field's name."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line, self.field = line, field


def field_error(record, name: str, problem: str) -> ParseError:
    """The error for one field of a config record, as
    ``<Record>.<field> = <value> <problem>``."""
    return ParseError(f"{type(record).__name__}.{name} = {getattr(record, name)} {problem}",
                      field=name)


def check_least(record, least: dict) -> None:
    """Raise field_error for the config record's first float field that is
    not finite, then for its first field below its least usable value in
    ``least`` (field name -> least value)."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise field_error(record, f.name, "is not a finite number")
    for name, low in least.items():
        if getattr(record, name) < low:
            raise field_error(record, name, "is negative" if low == 0 else
                              f"is below its least usable value {low:g}")


def read_utf8(path, newline: str | None = None) -> io.StringIO:
    """A UTF-8 text file as a line iterator, read like ``open(path,
    newline=newline)``, without a leading byte-order mark; bytes that are
    not UTF-8 raise a ParseError naming their line instead of a
    UnicodeDecodeError."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})",
                         line=data.count(b"\n", 0, exc.start) + 1) from exc


class DuplicateId(DataError):
    """Manifest contains the same utt_id more than once."""


class InsufficientData(DataError):
    """Not enough entries to perform the requested split."""


class ClassMissing(DataError):
    """An operation requiring both real and fake items got only one class."""


class DegenerateData(DataError):
    """Statistics cannot be fitted (e.g. zero variance, no voiced frames)."""


class AlignmentError(DataError):
    """Model output and ground-truth annotation disagree on frame count."""


class InvalidWeights(DataError):
    """Frame attention weights do not form a probability simplex."""


class ShapeError(SpoofNetError):
    """Tensor operands with incompatible shapes; message names both."""


class NotScalar(SpoofNetError):
    """backward() called on a tensor that is not a scalar."""


class NumericalError(SpoofNetError):
    """Non-finite values encountered during optimization."""
