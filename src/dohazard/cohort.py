"""Cohort datasets and their CSV round trip.

A cohort is saved as CSV (``save_dataset``) with a column cache beside
it: ``<path>.cols``, one flat file of the CSV's sha256, a CRC-32 and the
columns' bytes. ``load_dataset`` reads the columns from the cache only
while the CSV's bytes still have that digest and the cache's size and CRC
fit the CSV's header; otherwise numpy's parser reads the CSV, quoted
fields and every line end included, and a csv scan runs only to name the
line of a record numpy refuses. Parsing a float64 from its 17 significant
digits is most of a CSV read, so the cache makes each read of a saved
cohort a hash and a copy.

The CSV holds each float as Python's ``'%.17g' %`` writes it, byte for
byte, but ``save_dataset`` formats them in numpy (``_format_floats``):
Dekker's exact two-product of |v| and a power of ten gives the 17 digits
of every finite normal value from 1e-4 up to 1e17. A value below 10 is
then written as whole words looked up in tables (a lead word, four 4-digit
chunks, the separator), with NULs for the zeros %.17g strips, and a value
from 10 up is laid out byte by byte by a lookup table; the few other
values (zeros, subnormals, smaller or larger magnitudes) go to Python's
own formatter. One call formats a block's floats of every column. Most
times of a rare-outcome cohort are the horizon, bit for bit, so each
column's maximum is formatted once and its text copied into the rows that
hold it (``_csv_rows``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import os
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ParseError, ValidationError
from .stats import _BLOCK

# Bytes per read when load_dataset hashes a cohort CSV or reads its column
# cache, and per write into the cache: below glibc's 128 KiB mmap threshold,
# so no buffer is mapped and faulted in afresh.
_CACHE_CHUNK = 1 << 16

# The first 8 bytes of a column cache, naming its layout: this magic, the
# CSV's sha256, the payload's CRC-32 (little-endian), then the payload.
_CACHE_MAGIC = b"DOHCOLS1"


@dataclass
class Dataset:
    """Column-oriented cohort with named covariates.

    The covariates are stored column-major (order "F"), so each covariate
    is one contiguous column: an input already laid out so, as generate
    and load_dataset return, is not copied, and any other layout is copied
    once.

    ``u_latent`` holds the hidden confounder of the mediated DAG. It is kept
    outside the covariate matrix, so estimators that select covariates by
    name can never see it; only save_dataset and load_dataset read it.
    """

    time: np.ndarray
    event: np.ndarray
    covariates: np.ndarray
    covariate_names: list[str]
    u_latent: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.time = np.asarray(self.time, dtype=np.float64)
        event = np.asarray(self.event)
        if event.dtype != bool and not np.all((event == 0) | (event == 1)):
            raise ValidationError("event must hold only 0 and 1 (or booleans)")
        self.event = event.astype(bool, copy=False)
        self.covariates = np.asarray(self.covariates, dtype=np.float64, order="F")
        if self.covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-d matrix")
        n = self.time.shape[0]
        if n == 0:
            raise ValidationError("dataset is empty")
        if self.event.shape[0] != n or self.covariates.shape[0] != n:
            raise ValidationError("time, event and covariates must have equal length")
        if len(self.covariate_names) != self.covariates.shape[1]:
            raise ValidationError("covariate_names must match the covariate columns")
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise ValidationError("covariate_names must be unique")
        for name in ("time", "event", "u_latent"):
            if name in self.covariate_names:
                raise ValidationError(f"covariate_names must not hold {name!r}, a column the cohort CSV already has")
        if not np.all(np.isfinite(self.time)) or not np.all(np.isfinite(self.covariates)):
            raise ValidationError("dataset contains non-finite values")
        if np.any(self.time <= 0):
            raise ValidationError("all times must be positive")
        if self.u_latent is not None:
            self.u_latent = np.asarray(self.u_latent, dtype=np.float64)
            if self.u_latent.shape[0] != n or not np.all(np.isfinite(self.u_latent)):
                raise ValidationError("u_latent must be finite and match the cohort size")

    @property
    def n(self) -> int:
        return int(self.time.shape[0])

    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self.event))

    def column_index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise InvalidArgumentError(f"unknown covariate {name!r}; dataset has {self.covariate_names}") from None

    def column(self, name: str) -> np.ndarray:
        return self.covariates[:, self.column_index(name)]


# Bytes per float field of a saved row: the longest %.17g text,
# "-2.2250738585072014e-308", and a CRLF.
_FIELD = 26

# Tables of _format_floats, built at import.
#
# A value below 10 (decimal exponent x in -4..0) is written as words, the
# field's bytes in memory order (_WORDS): the 8-byte lead word
# _LEAD8[((sign * 5 + x + 4) * 10 + d0) * 2 + fraction], which holds "-"
# for a negative value, "0." and -x - 1 zeros when x < 0, the leading digit
# d0 and, when x == 0 and any later digit is not zero, the point; then one
# word per chunk of four digits; then the separator, one 2-byte word
# (_COMMA or _CRLF). _DIGITS4[c] is the four digits of c in 0..9999 as one
# word, and _DIGITS4[10000 + c] the same word with c's trailing zero digits
# as NULs, which a chunk takes once every later chunk is zero, so that
# %.17g's stripped zeros are NULs.
#
# A value from 10 up is laid out byte by byte from a row of the digits
# buffer, _DIGIT_WORDS uint32 words, 24 bytes in memory order: two NULs,
# "-", the 17 digits of D, ".", the two separator bytes (the second NUL
# after a comma) and NUL. _LEAD[d] is the first word for leading digit d;
# _ZEROS4[c] the number of trailing zero digits of c's four; _POINT_SEP
# the last word after a comma and after a CRLF.
_WORDS = np.dtype(
    {"names": ["lead", "chunks", "sep"], "formats": [np.uint64, (np.uint32, 4), np.uint16],
     "offsets": [0, 8, 24], "itemsize": _FIELD}
)
_DIGIT_WORDS = 6
_NUL, _MINUS, _DIGIT, _POINT, _SEP = 0, 2, 3, 20, 21
_COMMA, _CRLF = np.frombuffer(b",\0\r\n", dtype=np.uint16)
_POINT_SEP = np.frombuffer(b".,\0\0.\r\n\0", dtype=np.uint32)
_C = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row c: the four digits of c
_ZEROS4 = np.logical_and.accumulate(_C[:, ::-1] == 0, axis=1).sum(axis=1, dtype=np.uint8)
_DIGITS4 = np.concatenate([_C + ord("0"), np.where(np.arange(4) < 4 - _ZEROS4[:, None], _C + ord("0"), 0)])
_DIGITS4 = np.ascontiguousarray(_DIGITS4, dtype=np.uint8).view(np.uint32).ravel()
_LEAD = np.zeros((10, 4), dtype=np.uint8)
_LEAD[:, _MINUS], _LEAD[:, _DIGIT] = ord("-"), ord("0") + np.arange(10)
_LEAD = _LEAD.view(np.uint32).ravel()
_LEAD8 = np.frombuffer(
    b"".join(
        ("-" * sign + ("0." + "0" * (-x - 1) if x < 0 else "") + str(d0) + "." * (x == 0 and fraction))
        .encode()
        .ljust(8, b"\0")
        for sign, x, d0, fraction in itertools.product(range(2), range(-4, 1), range(10), range(2))
    ),
    dtype=np.uint64,
)
del _C


def _split(a):
    """Veltkamp's split of each a into hi + lo == a, each of at most 26
    significant bits, so that a product of two halves is exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_TENS = np.array([float(10**q) for q in range(21)])  # exact in binary64 up to 10**22
_TENS_HI, _TENS_LO = _split(_TENS)


def _float_layouts() -> np.ndarray:
    """The rows of _LAYOUT: row (sign * 16 + x - 1) * 17 + k - 1 lists, for
    each byte of a _FIELD-byte field, the byte of a digits row that goes
    there, for a value with that sign (1 when negative), decimal exponent x
    in 1..16 and k significant digits once trailing zeros are stripped
    (1..17): %.17g's fixed notation, then the separator and NUL padding.

    The text is the first x + 1 digits, then, when any of the k digits is
    left, the point and those digits; a negative value has "-" in front."""
    sign = np.arange(2)[:, None, None, None]
    x = np.arange(1, 17)[None, :, None, None]
    k = np.arange(1, 18)[None, None, :, None]
    j = np.arange(_FIELD) - sign  # the byte's place in the unsigned text
    whole = x + 1  # digits before the point
    fixed = np.where(k > whole, k + 1, whole)  # the text's length
    table = np.select(
        [j < 0, j < whole, (j == whole) & (j < fixed), j < fixed, j == fixed, j == fixed + 1],
        [_MINUS, _DIGIT + j, _POINT, _DIGIT + j - 1, _SEP, _SEP + 1],
        _NUL,
    )
    return table.reshape(-1, _FIELD).astype(np.uint8)


_LAYOUT = _float_layouts()


def save_dataset(dataset: Dataset, path) -> None:
    """Write the cohort as CSV: time, event, the covariates, then u_latent
    when present. Floats are written as %.17g writes them, so load_dataset
    reads back the same float64 bits; events are 0 or 1; rows end in CRLF,
    as the csv.writer header does. The rows are formatted in numpy,
    _BLOCK at a time (_csv_rows): no Python loop runs per value,
    except for the rare values _format_floats hands to Python's own
    '%.17g' %, and no list of the whole cohort is built.

    The CSV's bytes are hashed with sha256 as they are written, and the
    columns then go to the column cache <path>.cols with that digest
    (_write_cache), from which load_dataset reads them back for as long as
    the CSV keeps those bytes."""
    header = ["time", "event"] + list(dataset.covariate_names)
    columns = [dataset.time, dataset.event] + list(dataset.covariates.T)
    if dataset.u_latent is not None:
        header.append("u_latent")
        columns.append(dataset.u_latent)
    head = io.StringIO()
    csv.writer(head).writerow(header)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in itertools.chain([head.getvalue().encode("utf-8")], _csv_rows(columns)):
            digest.update(data)
            fh.write(data)
    _write_cache(columns, path, digest.digest())


def _csv_rows(columns):
    """The CSV rows of the columns, _BLOCK rows at a time, each block as
    its bytes. columns[1] is the event column (bool), written as 0 or 1
    (%d); every other column is float64, written as %.17g; fields are
    joined by commas and rows end in CRLF.

    Each field, with the separator after it, is written into a fixed slot
    of the block's row buffer (_FIELD bytes for a float, 3 for an event:
    its digit and up to two separator bytes, written once), with NULs
    wherever it has no text: after the text, and, for a float below 10,
    which _format_floats writes as whole words, between its words. No text
    holds a NUL, so dropping every NUL byte of the buffer (bytes.translate)
    leaves the block's CSV bytes. One _format_floats call formats a block's
    floats, column after column, and each text is copied into its slot as
    one _FIELD-byte record. The buffers, for every float column of a block,
    are allocated once and reused for every block, _fixed_texts' on the
    first block that has a value from 10 up to lay out.

    A cohort of a rare outcome has most of its times at the horizon, where
    follow-up ends, bit for bit. So each float column's maximum is formatted
    once, by Python's '%.17g' %, and in a block where more than half the
    values have its bits (bits, not value: -0.0 == 0.0, but %.17g writes
    "-0" and "0"), its field is copied into every row and only the other
    values are formatted."""
    n = len(columns[0])
    last = len(columns) - 1
    floats = [k for k in range(len(columns)) if k != 1]
    slots = np.cumsum([0] + [3 if k == 1 else _FIELD for k in range(len(columns))])
    rows = np.zeros((min(n, _BLOCK), slots[-1]), dtype=np.uint8)
    rows[:, slots[1] + 1:slots[2]] = np.frombuffer(b"\r\n" if last == 1 else b",\0", dtype=np.uint8)
    record = np.dtype(f"V{_FIELD}")  # a float's field, copied whole
    fields = [rows[:, slots[k]:slots[k + 1]].view(record)[:, 0] for k in floats]
    pool = np.empty(len(floats) * len(rows))  # a block's values to format, column after column
    texts = np.empty((len(pool), _FIELD), dtype=np.uint8)
    scratch = []  # _fixed_texts' buffers, once a block needs them
    tops = []  # per float column: the bits of its maximum and that value's field
    for k in floats:
        top = columns[k].max(keepdims=True)
        tops.append((top.view(np.uint64)[0], _python_formatted(top, int(k != last)).view(record)[0]))
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        rows[:m, slots[1]] = columns[1][start:start + m].view(np.uint8) + ord("0")
        parts, end = [], 0  # per float column: its rows to format and their place in pool
        for k, slot, (top_bits, top) in zip(floats, fields, tops):
            values = columns[k][start:start + m]
            tied = values.view(np.uint64) == top_bits
            rest = slice(m)
            if 2 * np.count_nonzero(tied) > m:
                rest = np.flatnonzero(~tied)
                slot[:m] = top
            values = values[rest]
            parts.append((rest, end, end + len(values)))
            pool[end:end + len(values)] = values
            end += len(values)
        crlf = parts[-1][1] if floats[-1] == last else end
        done = _format_floats(pool[:end], crlf, texts, scratch).view(record)[:, 0]
        for slot, (rest, begin, stop) in zip(fields, parts):
            slot[rest] = done[begin:stop]
        yield rows[:m].tobytes().translate(None, b"\0")


def _format_floats(values, crlf: int, field, scratch: list):
    """The %.17g text of each value followed by its separator, a comma for
    values[:crlf] and a CRLF after, as the rows of field[:len(values)]:
    _FIELD bytes each, with NULs where there is no text. field is a buffer
    of at least len(values) rows, and scratch the list of _fixed_texts'
    buffers, both reused by the caller.

    A value takes the exact path below when it is a finite normal double
    with decimal exponent x in -4..16, so that %.17g writes it in fixed
    notation: from 1e-4 up to 1e17. Its digit string is D = round(|v| *
    10**(16 - x)), rounded half to even as Python's correctly rounded
    conversion does, from a two-product (_digits). x is floor(log10|v|) in
    float arithmetic, which may be off by one next to a power of ten; the
    path therefore also requires 10**16 <= D < 10**17, which holds only
    when x is the exponent of the value rounded to 17 digits. D is split
    into its leading digit d0 and four chunks of four digits by intp
    division.

    Below 10 (x <= 0) the field is written as words: a lead word from
    _LEAD8 (sign, "0." and zeros, d0, point), a word per chunk from
    _DIGITS4 (its trailing zeros as NULs once every later chunk is zero)
    and the separator; the NULs in between are dropped with the padding.
    From 10 up (1 <= x <= 16) the point falls among the chunks, and
    _fixed_texts lays the text out byte by byte. Every other value (zeros,
    subnormals, |v| < 1e-4 or >= 1e17, a failed check, inf, nan) is written
    by Python's own '%.17g' %, so no value is ever approximated."""
    n = len(values)
    bits = values.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    normal = (biased != 0) & (biased != 0x7FF)
    magnitudes = np.abs(values)
    x = _decimal_exponents(np.where(normal, magnitudes, 1.0))
    exact = normal & (x >= -4) & (x <= 16)  # before x indexes a table
    x = np.where(exact, x, 0)
    d = _digits(np.where(exact, magnitudes, 1.0), 16 - x)
    exact &= (d >= 10**16) & (d < 10**17)
    # D = d0 c1 c2 c3 c4: a leading digit and four chunks of four digits
    d = np.where(exact, d, 10**16).astype(np.intp, copy=False)
    d0 = d // 10**16
    fraction = d - d0 * 10**16
    top = fraction // 10**8
    bottom = fraction - top * 10**8
    c1 = top // 10**4
    c3 = bottom // 10**4
    c2 = top - c1 * 10**4
    c4 = bottom - c3 * 10**4
    sign = (bits >> 63).astype(np.intp)
    words = field[:n].view(_WORDS)[:, 0]
    words["lead"] = _LEAD8[((sign * 5 + np.minimum(x, 0) + 4) * 10 + d0) * 2 + (fraction != 0)]
    chunks = words["chunks"]
    chunks[:, 0] = _DIGITS4[c1 + 10**4 * ((c2 == 0) & (bottom == 0))]
    chunks[:, 1] = _DIGITS4[c2 + 10**4 * (bottom == 0)]
    chunks[:, 2] = _DIGITS4[c3 + 10**4 * (c4 == 0)]
    chunks[:, 3] = _DIGITS4[c4 + 10**4]
    words["sep"][:crlf] = _COMMA
    words["sep"][crlf:] = _CRLF
    above = np.flatnonzero(exact & (x > 0))
    if len(above):
        field[above] = _fixed_texts(
            sign[above], x[above], d0[above], (c1[above], c2[above], c3[above], c4[above]),
            np.searchsorted(above, crlf), scratch,
        )
    other = np.flatnonzero(~exact)
    if len(other):
        field[other] = _python_formatted(values[other], np.searchsorted(other, crlf))
    return field[:n]


def _digits(magnitudes, q) -> np.ndarray:
    """round(a * 10**q), half to even, as int64, of each a >= 1e-4 and q in
    0..20 with a * 10**q < 1e18: exact wherever it is in [10**16, 10**17),
    and elsewhere outside that range. Dekker's two-product of a and 10**q,
    from their halves (_split), gives p + err == a * 10**q exactly. Such a
    result has p >= 10**16 > 2**53, an even integer, so p + rint(err) rounds
    half to even; where p < 2**53, the sum stays below 10**16."""
    p = magnitudes * _TENS[q]
    hi, lo = _split(magnitudes)
    ten_hi, ten_lo = _TENS_HI[q], _TENS_LO[q]
    err = ((hi * ten_hi - p) + hi * ten_lo + lo * ten_hi) + lo * ten_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _fixed_texts(sign, x, d0, chunks, crlf: int, scratch: list):
    """The texts of _format_floats' exact-path values with x in 1..16, each
    followed by a comma, or by a CRLF from row crlf on, as the rows of
    texts[:len(x)], left-aligned and NUL-padded: each digit row is laid out
    by _LAYOUT, keyed by the sign, x and the number of digits left once
    trailing zeros are stripped. scratch holds the buffers texts, index,
    digits and each digit row's byte offset, of at least len(x) rows, or
    is allocated into here, for the caller to pass again."""
    m = len(x)
    if not scratch or len(scratch[0]) < m:
        rows = max(m, _BLOCK)
        scratch[:] = [np.empty((rows, _FIELD), dtype=np.uint8), np.empty((rows, _FIELD), dtype=np.intp),
                      np.empty((rows, _DIGIT_WORDS), dtype=np.uint32), np.arange(rows)[:, None] * 4 * _DIGIT_WORDS]
    texts, index, digits, offsets = scratch
    c1, c2, c3, c4 = chunks
    digits = digits[:m]
    digits[:, 0] = _LEAD[d0]
    for word, chunk in enumerate(chunks, start=1):
        digits[:, word] = _DIGITS4[chunk]
    digits[:crlf, 5], digits[crlf:, 5] = _POINT_SEP
    zeros = _ZEROS4[c4] + (c4 == 0) * (_ZEROS4[c3] + (c3 == 0) * (_ZEROS4[c2] + (c2 == 0) * _ZEROS4[c1]))
    key = (sign * 16 + x - 1) * 17 + 16 - zeros
    # byte j of row i of the text is byte _LAYOUT[key[i], j] of digits row
    # i; every index is in range, and mode="clip" spares take's buffering
    texts = texts[:m]
    np.take(_LAYOUT, key, axis=0, out=texts, mode="clip")
    index = np.add(texts, offsets[:m], out=index[:m])
    np.take(digits.view(np.uint8).ravel(), index, out=texts, mode="clip")
    return texts


def _decimal_exponents(magnitudes) -> np.ndarray:
    """floor(log10(a)) of each positive normal a, in float arithmetic: the
    decimal exponent, though one off next to a power of ten, where log10
    rounds to the integer. _format_floats checks its digit count and so
    never relies on the estimate."""
    return np.floor(np.log10(magnitudes)).astype(np.intp)


def _python_formatted(values, crlf: int) -> np.ndarray:
    """Python's own '%.17g' % of each value followed by a comma, or by a
    CRLF from values[crlf] on, as the rows of a uint8 array, left-aligned
    and NUL-padded to _FIELD bytes: the values _format_floats does not take
    on its exact path."""
    seps = [b","] * crlf + [b"\r\n"] * (len(values) - crlf)
    texts = [("%.17g" % v).encode() + sep for v, sep in zip(values.tolist(), seps)]
    return np.array(texts, dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)


def _cache_path(path) -> str:
    return f"{os.fsdecode(path)}.cols"


def _write_cache(columns, path, digest: bytes) -> None:
    """Write the column cache of the cohort CSV at path: <path>.cols, the
    magic, the CSV's sha256 (digest), the CRC-32 of the payload and the
    payload, the little-endian bytes of each of the CSV's columns in turn,
    in chunks. It goes to a temporary name first and os.replace moves it
    into place, so a reader finds the old cache or the new one, never part
    of one."""
    cache = _cache_path(path)
    tmp = f"{cache}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fc:
            fc.write(_CACHE_MAGIC + digest + bytes(4))  # the CRC goes in once the payload is written
            crc = 0
            for column in columns:
                rows = _CACHE_CHUNK // column.itemsize
                little = column.dtype.newbyteorder("<")
                for start in range(0, len(column), rows):
                    # read in place by crc32 and write, copied only when strided or big-endian
                    data = memoryview(np.ascontiguousarray(column[start:start + rows], dtype=little))
                    crc = zlib.crc32(data, crc)
                    fc.write(data)
            fc.seek(40)
            fc.write(crc.to_bytes(4, "little"))
        os.replace(tmp, cache)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_dataset(path) -> Dataset:
    """Read a cohort CSV; raises ParseError with the offending line number,
    or ValidationError when values break the dataset invariants.

    When the column cache save_dataset wrote beside the CSV is sound and
    holds the sha256 of the CSV's current bytes, the columns are read from
    it and the body is not parsed (_cached_columns). Otherwise a binary
    scan counts the body's lines (_count_lines), the columns are
    preallocated for that many rows, and numpy's C parser fills them in
    chunks of _BLOCK rows (_read_chunks), so no table of the whole
    cohort is built. numpy reads quoted fields, LF, CRLF and lone CR line
    ends, and skips blank lines; a row takes at least one line, so the
    columns always hold the rows, and they are cut to the rows read. When
    numpy refuses the body, one csv scan from its start names the line of
    the first bad record (_first_bad_record).

    Bytes that are not UTF-8, in the header or the body, raise ParseError
    naming the line they are on (_not_utf8).

    Every column of the returned Dataset owns its memory.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            # readline, not iteration over fh, so that tell() still works
            reader = csv.reader(iter(fh.readline, ""))
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: file is empty") from None
            for name in header:
                if header.count(name) > 1:
                    raise ValidationError(f"{path}: column '{name}' appears more than once")
            for required in ("time", "event"):
                if required not in header:
                    raise ValidationError(f"{path}: missing required column '{required}'")
            names = [c for c in header if c not in ("time", "event", "u_latent")]
            has_u = "u_latent" in header
            # the header column of each Dataset column, in _columns order
            sources = [header.index(c) for c in ["time", "event", *names] + ["u_latent"] * has_u]
            body = fh.tell()
            # the cache holds the CSV's columns in header order, which must be the order of _columns
            columns = _cached_columns(path, fh.buffer, len(names), has_u) if sources == sorted(sources) else None
            if columns is None:
                fh.seek(body)  # the cache check may have read on
                columns = _columns(max(_count_lines(path) - reader.line_num, 0), len(names), has_u)
                try:
                    rows = _read_chunks(fh, columns, sources, len(header))
                except UnicodeDecodeError:
                    raise
                except ValueError as exc:
                    fh.seek(body)
                    bad = _first_bad_record(path, csv.reader(fh), len(header), sources[1], reader.line_num, exc)
                    raise bad from None
                if not rows:
                    raise ValidationError(f"{path}: no data rows")
                if rows < len(columns[0]):
                    columns = [None if c is None else c[:rows].copy(order="K") for c in columns]
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    time, event, covariates, u_latent = columns
    return Dataset(time, event, covariates, names, u_latent)


def _not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for a cohort CSV whose text did not decode as UTF-8,
    naming the line of the first bad byte and its position in that line.
    exc, raised by the text layer, places the byte only within the chunk it
    decoded, so the file is scanned again line by line. LF, CRLF and a lone
    CR each end a line, as for the csv reader, and no byte of a multi-byte
    UTF-8 sequence is a CR or an LF, so the first line that fails to decode
    on its own is the one that holds the byte."""
    line_no = 0
    with open(path, "rb") as fb:
        for chunk in fb:  # each ends at an LF
            for line in chunk.splitlines():
                line_no += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as error:
                    return ParseError(f"{path}:{line_no}: not UTF-8: {error}")
    return ParseError(f"{path}: not UTF-8: {exc}")  # the file changed since it was read


def _cached_columns(path, fb, p: int, has_u: bool) -> tuple | None:
    """(time, event, covariates, u_latent) from the column cache of the CSV
    at path, whose header gives p covariates and has_u; fb is the CSV's
    binary handle. None, so that the CSV is parsed, unless the cache has the
    magic, the sha256 of the CSV's bytes, a payload of at least one whole
    row, the recorded CRC-32 and only 0 or 1 in its event bytes, and the
    host is little-endian, as the payload is. The cache records no names or
    sizes: the CSV's header, which the digest covers, gives them."""
    try:
        with open(_cache_path(path), "rb") as fc:
            head = fc.read(44)  # magic, sha256, CRC-32
            if not np.little_endian or head[:8] != _CACHE_MAGIC or head[8:40] != _sha256(fb):
                return None
            n, rest = divmod(os.fstat(fc.fileno()).st_size - 44, 8 * (1 + p + has_u) + 1)
            if rest or n < 1:
                return None
            columns = time, event, covariates, u_latent = _columns(n, p, has_u)
            crc = 0
            for column in [time, event, *covariates.T] + [u_latent] * has_u:
                data = memoryview(column).cast("B")
                for start in range(0, data.nbytes, _CACHE_CHUNK):
                    chunk = data[start:start + _CACHE_CHUNK]
                    if fc.readinto(chunk) != chunk.nbytes:
                        return None
                    crc = zlib.crc32(chunk, crc)
    except OSError:
        return None
    if crc != int.from_bytes(head[40:], "little") or event.view(np.uint8).max() > 1:
        return None
    return columns


def _sha256(fb) -> bytes:
    """The sha256 of the whole file behind the binary handle fb."""
    digest = hashlib.sha256()
    buf = bytearray(_CACHE_CHUNK)
    fb.seek(0)
    while size := fb.readinto(buf):
        digest.update(memoryview(buf)[:size])
    return digest.digest()


def _count_lines(path) -> int:
    """The file's line count as the text layer splits its lines, which is
    len(data.splitlines()) of its bytes: each LF, each CR that no LF
    follows, and a last line that has no line end. A binary scan in blocks
    of 1 MiB; a CRLF may straddle two blocks. The vectorized numpy compares
    count 2.5 times as fast as bytes.count does."""
    lines = 0
    last = 10
    buf = np.empty(1 << 20, dtype=np.uint8)
    with open(path, "rb") as fb:
        while size := fb.readinto(buf):
            block = buf[:size]
            lf, cr = block == 10, block == 13
            crlf = np.count_nonzero(cr[:-1] & lf[1:]) + (last == 13 and lf[0])
            lines += int(np.count_nonzero(lf) + np.count_nonzero(cr) - crlf)
            last = block[-1]
    return lines + (last not in (10, 13))


def _columns(n: int, p: int, has_u: bool) -> tuple:
    """Empty (time, event, covariates, u_latent) for n rows. The covariates
    are column-major, so each covariate is one contiguous column."""
    return np.empty(n), np.empty(n, dtype=bool), np.empty((n, p), order="F"), np.empty(n) if has_u else None


def _fill(columns, sources, start: int, table) -> None:
    """Copy the rows of a parsed table into the columns from row start on;
    sources[k] is the table column of the k-th Dataset column."""
    time, event, covariates, u_latent = columns
    rows = slice(start, start + len(table))
    for target, source in zip([time, event, *covariates.T, u_latent], sources):
        target[rows] = table[:, source]


def _read_chunks(fh, columns, sources, width: int) -> int:
    """Fill the columns from the body by np.loadtxt, _BLOCK rows per call,
    and return the number of rows read. Raises ValueError when a chunk
    fails to parse, has the wrong width or an event other than 0 or 1, or
    holds more rows than the columns (the file changed since its lines
    were counted)."""
    n = len(columns[0])
    filled = 0
    with warnings.catch_warnings():
        # blank lines, which numpy skips, and an empty body, which has no rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data", UserWarning)
        while True:
            chunk = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar='"', dtype=np.float64, ndmin=2, max_rows=_BLOCK
            )
            if not len(chunk):
                break
            if chunk.shape[1] != width or not np.all(np.isin(chunk[:, sources[1]], (0.0, 1.0))):
                raise ValueError(f"a row with other than {width} fields or an event other than 0 or 1")
            if filled + len(chunk) > n:
                raise ValueError("more rows than lines: the file changed while it was read")
            _fill(columns, sources, filled, chunk)
            filled += len(chunk)
            if len(chunk) < _BLOCK:  # only the last chunk is short
                break
    return filled


def _first_bad_record(path, reader, width: int, event: int, header_lines: int, refusal: ValueError) -> Exception:
    """The error for the first bad record of the body, which reader reads
    from its start: ParseError for a record with other than width fields or
    a field that is not a number (_float), ValidationError for an event
    (field event) other than 0 or 1. It names the line the record starts
    on: the header takes lines 1 to header_lines, and a quoted field may
    span lines, so this is the reader's line count, not a count of records.
    When every record passes (the file changed since numpy read it), it is
    ParseError with numpy's refusal."""
    read = 0  # the body's lines before the record
    for row in reader:
        line_no, read = header_lines + read + 1, reader.line_num
        if not row:
            continue
        if len(row) != width:
            return ParseError(f"{path}:{line_no}: expected {width} fields, got {len(row)}")
        try:
            values = [_float(field) for field in row]
        except ValueError as exc:
            return ParseError(f"{path}:{line_no}: {exc}")
        if values[event] not in (0.0, 1.0):
            return ValidationError(f"{path}:{line_no}: event must be 0 or 1")
    return ParseError(f"{path}: {refusal}")


def _float(field: str) -> float:
    """float(field), refusing as numpy's parser does digit groups (2_5) and
    non-ASCII digits or signs, though not non-ASCII spaces about a number."""
    if "_" in field or not field.strip().isascii():
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)
