"""Columnar event tables: the one record format behind every run dir.

Worker feeds (``shard-<pid>.cols``), the merged run (``merged.cols``) and
every fold over them share one in-memory layout, :class:`EventTable`.
This module is the only code that knows that layout; everything else
reads tables through the accessors below.

A table row is one span, instant or counter.  Its fixed columns:

==========  =======  ====================================================
``kind``    int8     :data:`SPAN`, :data:`INSTANT` or :data:`COUNTER`
``name``    int32    index into the table's string list
``track``   int32    index into the string list
``cat``     int32    index into the string list
``ts_ms``   float64  span start or event timestamp
``dur_ms``  float64  span duration (0 otherwise)
``value``   float64  counter sample (0 otherwise)
``id``      int64    span id (-1 otherwise)
``parent``  int64    enclosing span's id (-1 when none)
``seq``     int64    cell sequence number (the merge's primary key)
``n``       int64    per-feed emission counter
==========  =======  ====================================================

Args are stored per ``(key, type)`` pair: one bool, int64, float64 or
string-index column with a presence mask, so a key whose value type
changes between records simply owns two columns.  A value that is none
of those scalars (``None``, lists, dicts, out-of-range ints, ...) goes to
a small JSON overflow, encoded when it is recorded exactly as the JSONL
schema encoded it (sorted keys, numpy scalars unwrapped).  Materialized
args dicts therefore equal what a JSON round trip gave.  A table built in
memory also keeps each row's key order (:attr:`EventTable.key_order`),
so its args dicts come back in the order they were recorded; files do
not store it, so a loaded table's args dicts have their keys sorted.

On disk a file is a sequence of self-contained *blocks*::

    magic (8 bytes) | header length (u32) | payload length (u64)
    | header JSON | payload: the block's arrays, one np.save each

Appending a block never rewrites an earlier one, so a feed torn mid-block
by a crashed worker still yields every block before the tear.  Arrays are
read with ``allow_pickle=False`` and checked against the layout; a block
holding an object array (or anything else off-layout) is refused.
"""

from __future__ import annotations

import io
import json
import os
import struct
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

__all__ = [
    "SPAN",
    "INSTANT",
    "COUNTER",
    "MISSING",
    "EventTable",
    "RowBatch",
    "TableWriter",
    "block_rows",
    "encode_block",
    "json_default",
    "read_blocks",
    "split_args",
    "write_table",
]

SPAN, INSTANT, COUNTER = 0, 1, 2
_KINDS = {"span": SPAN, "instant": INSTANT, "counter": COUNTER}

#: Bump when the block layout changes incompatibly.
SCHEMA = 1
_MAGIC = b"RAMSISEV"
_PREFIX = struct.Struct("<8sIQ")

_FIXED: Tuple[Tuple[str, Any], ...] = (
    ("kind", np.int8),
    ("name", np.int32),
    ("track", np.int32),
    ("cat", np.int32),
    ("ts_ms", np.float64),
    ("dur_ms", np.float64),
    ("value", np.float64),
    ("id", np.int64),
    ("parent", np.int64),
    ("seq", np.int64),
    ("n", np.int64),
)
_STRING_COLUMNS = ("name", "track", "cat")

_BOOL, _INT, _FLOAT, _STR = "b", "i", "f", "s"
_ARG_DTYPES = {_BOOL: np.bool_, _INT: np.int64, _FLOAT: np.float64, _STR: np.int32}
_FAST_TAGS = {bool: _BOOL, int: _INT, float: _FLOAT, str: _STR}
_KIND_DTYPES = {bool: np.bool_, int: np.int64, float: np.float64}
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

#: What :meth:`EventTable.arg` returns for a row without the key.
MISSING: Any = type("Missing", (), {"__repr__": lambda self: "MISSING"})()

ArgKey = Tuple[str, str]
#: Args key tuples, and the index of each row's tuple (a row without args
#: has the empty tuple).
KeyOrder = Tuple[List[Tuple[str, ...]], np.ndarray]


def json_default(value: Any) -> Any:
    """Make numpy scalars (and other exotic leaves) JSON-serializable."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def _tag_of(kind: type) -> Optional[str]:
    """The column tag of a value type (``None``: not a scalar, so JSON)."""
    tag = _FAST_TAGS.get(kind)
    if tag is not None:
        return tag
    if issubclass(kind, (bool, np.bool_)):
        return _BOOL
    if issubclass(kind, (int, np.integer)):
        return _INT
    if issubclass(kind, (float, np.floating)):
        return _FLOAT
    if issubclass(kind, str):
        return _STR
    return None


def _json_key(key: Any) -> str:
    """The key a JSON round trip gives a non-string dict key."""
    return next(iter(json.loads(json.dumps({key: 0}, default=json_default))))


def _int64_only(
    key: str, at: np.ndarray, values: List[Any], overflow: List[Tuple[int, str, str]]
) -> Tuple[np.ndarray, Sequence[int]]:
    """An int column's rows and values, with the values int64 cannot hold
    spilled to ``overflow``."""
    if set(map(type, values)) <= {int}:
        try:
            return at, np.array(values, np.int64)
        except OverflowError:
            pass
    else:
        values = [int(v) for v in values]
    fits = [_I64_MIN <= v <= _I64_MAX for v in values]
    overflow.extend(
        (row, key, json.dumps(v))
        for row, v, ok in zip(at.tolist(), values, fits)
        if not ok
    )
    return at[fits], [v for v, ok in zip(values, fits) if ok]


class _Codes(dict):
    """String -> index, numbering each new string in order of first use."""

    def __missing__(self, string: str) -> int:
        code = self[string] = len(self)
        return code


#: A string column held as ``(codes, labels)``: row ``i`` holds
#: ``labels[codes[i]]``.
Coded = Tuple[np.ndarray, Sequence[Any]]
#: One args keys tuple of a :class:`RowBatch`: the rows that carry it
#: (ascending) and one value column per key.
Shape = Tuple[Tuple[Any, ...], np.ndarray, List[Any]]

#: Value columns stored as they are, by dtype.
_TYPED = {
    np.dtype(np.bool_): _BOOL,
    np.dtype(np.int64): _INT,
    np.dtype(np.float64): _FLOAT,
}


def _column_tag(values: Any) -> Optional[str]:
    """The tag a value column is stored under as it is (``None``: its
    values are typed one by one)."""
    if isinstance(values, tuple):
        return _STR
    if isinstance(values, np.ndarray):
        return _TYPED.get(values.dtype)
    return None


def _python(values: Any) -> List[Any]:
    """A value column's values as Python values."""
    if isinstance(values, tuple):
        codes, labels = values
        return [labels[i] for i in codes.tolist()]
    if isinstance(values, np.ndarray):
        return values.tolist()
    return list(values)


def _part(values: Any, at: Any) -> Any:
    """The values of a value column at ``at`` (a slice or a mask)."""
    if isinstance(values, tuple):
        return values[0][at], values[1]
    if isinstance(values, np.ndarray):
        return values[at]
    if isinstance(at, slice):
        return values[at]
    return [v for v, keep in zip(values, at.tolist()) if keep]


def _coded(values: Sequence[Any]) -> Coded:
    """Recorded strings as a ``(codes, labels)`` column."""
    local = _Codes()
    codes = np.fromiter(map(local.__getitem__, values), np.int64, count=len(values))
    return codes, list(local)


class RowBatch:
    """Table rows held in columns, their strings not yet numbered: what a
    :class:`TableWriter` buffers, and what a recorder adopts in bulk
    (:meth:`repro.obs.trace.Tracer.record_batch`).

    ``columns`` holds the fixed columns (those a recorder stamps --
    ``id``, ``parent``, ``seq`` and ``n`` -- may be missing until it
    does): arrays, except ``name``, ``track`` and ``cat``, which are
    ``(codes, labels)`` string columns.  ``shapes`` lists each args keys
    tuple with the ascending rows that carry it and one value column per
    key: a bool, int64 or float64 array is stored as it is, a ``(codes,
    labels)`` pair is a string column, and any other sequence holds
    Python values, typed one by one as recorded values are.
    :meth:`TableWriter.take` numbers the strings of every batch it holds
    in order of first use, so a table taken from batches equals the one
    taken from the same rows appended one by one.
    """

    def __init__(self, columns: Dict[str, Any], shapes: Iterable[Shape]) -> None:
        self.columns = columns
        #: In order of each keys tuple's first row, as a table numbers them.
        self.shapes: List[Shape] = sorted(
            (shape for shape in shapes if len(shape[1])), key=lambda s: int(s[1][0])
        )

    @classmethod
    def of_rows(cls, rows: Sequence[tuple]) -> "RowBatch":
        """Rows appended by :meth:`TableWriter.append`, as a batch."""
        count = len(rows)
        # The fixed columns and the keys tuples (zip is lazy, so the
        # values are not transposed here).
        fields = (
            list(islice(zip(*rows), len(_FIXED) + 1)) if rows
            else [()] * (len(_FIXED) + 1)
        )
        columns = {
            name: _coded(values) if name in _STRING_COLUMNS
            else np.array(values, dtype=dtype).reshape(-1)
            for (name, dtype), values in zip(_FIXED, fields)
        }
        # Rows sharing a keys tuple become one shape.  Equal tuples are
        # found through their identities first: a caller passing constant
        # key tuples shares one object per shape.
        shapes = fields[len(_FIXED)]
        ids = list(map(id, shapes))
        shape_index: Dict[Tuple[Any, ...], int] = {}
        id_index = {
            ident: shape_index.setdefault(shape, len(shape_index))
            for ident, shape in dict(zip(ids, shapes)).items()
        }
        shape_of = np.fromiter(map(id_index.__getitem__, ids), np.int64, count=count)
        batch = []
        for keys, index in shape_index.items():
            at = np.flatnonzero(shape_of == index)
            picked = list(map(rows.__getitem__, at.tolist())) if keys else []
            batch.append((
                keys, at,
                [list(map(itemgetter(pos), picked))
                 for pos in range(len(_FIXED) + 1, len(_FIXED) + 1 + len(keys))],
            ))
        return cls(columns, batch)

    def __len__(self) -> int:
        return int(self.columns["kind"].shape[0])

    def stamped(self, **columns: np.ndarray) -> "RowBatch":
        """The batch with ``columns`` set."""
        return RowBatch({**self.columns, **columns}, self.shapes)

    def slice(self, start: int, stop: int) -> "RowBatch":
        """Rows ``start`` to ``stop``."""
        window = slice(start, stop)
        shapes = []
        for keys, rows, values in self.shapes:
            lo, hi = np.searchsorted(rows, (start, stop)).tolist()
            at = slice(lo, hi)
            shapes.append((keys, rows[at] - start, [_part(v, at) for v in values]))
        return RowBatch(
            {name: _part(column, window) for name, column in self.columns.items()},
            shapes,
        )

    def select(self, mask: np.ndarray) -> "RowBatch":
        """The rows where ``mask`` is set, in order."""
        index = np.cumsum(mask) - 1
        shapes = []
        for keys, rows, values in self.shapes:
            keep = mask[rows]
            shapes.append((keys, index[rows[keep]], [_part(v, keep) for v in values]))
        return RowBatch(
            {name: _part(column, mask) for name, column in self.columns.items()},
            shapes,
        )

    def records(self) -> Iterator[tuple]:
        """``(kind, name, track, cat, ts_ms, dur_ms, value, keys, values)``
        per row, in row order, as Python values (a row without args has
        empty ``keys`` and ``values``)."""
        count = len(self)
        keys_of: List[Tuple[Any, ...]] = [()] * count
        values_of: List[Tuple[Any, ...]] = [()] * count
        for keys, rows, values in self.shapes:
            if keys:
                for row, row_values in zip(rows.tolist(), zip(*map(_python, values))):
                    keys_of[row] = keys
                    values_of[row] = row_values
        c = self.columns
        return zip(
            c["kind"].tolist(), _python(c["name"]), _python(c["track"]),
            _python(c["cat"]), c["ts_ms"].tolist(), c["dur_ms"].tolist(),
            c["value"].tolist(), keys_of, values_of,
        )


def _table(batches: Sequence[RowBatch]) -> "EventTable":
    """One table of ``batches``' rows, in order.

    Strings are numbered in order of first use: the ``name`` column's,
    then ``track``'s and ``cat``'s, then the string args, keys tuple by
    keys tuple.  Args are typed in bulk, one key of one keys tuple at a
    time; a value column of Python values splits by value type.
    """
    count = sum(map(len, batches))
    strings = _Codes()

    def number(values: Any) -> np.ndarray:
        """A string column's codes in the table's string list."""
        if not isinstance(values, tuple):
            return np.fromiter(
                map(strings.__getitem__, values), np.int32, count=len(values)
            )
        codes, labels = values
        lut = np.zeros(len(labels), np.int32)
        used, first = np.unique(codes, return_index=True)
        for code in used[np.argsort(first)].tolist():
            lut[code] = strings[labels[code]]
        return lut[codes]

    columns = {}
    for name, dtype in _FIXED:
        parts = [batch.columns[name] for batch in batches]
        if name in _STRING_COLUMNS:
            parts = list(map(number, parts))
        columns[name] = (
            np.concatenate(parts).astype(dtype, copy=False) if parts
            else np.zeros(0, dtype)
        )

    # Each keys tuple's rows and value columns, across the batches.
    gathered: Dict[Tuple[Any, ...], Tuple[List[np.ndarray], List[List[Any]]]] = {}
    offset = 0
    for batch in batches:
        for keys, rows, values in batch.shapes:
            at, columns_of = gathered.setdefault(keys, ([], []))
            at.append(rows + offset)
            columns_of.append(values)
        offset += len(batch)
    shape_of = np.zeros(count, np.int64)
    built: Dict[ArgKey, List[Tuple[np.ndarray, Any]]] = {}
    overflow: List[Tuple[int, str, str]] = []
    for index, (keys, (parts, columns_of)) in enumerate(gathered.items()):
        at = np.concatenate(parts)
        shape_of[at] = index
        for pos, key in enumerate(keys):
            name = key if type(key) is str else _json_key(key)
            pieces = [values[pos] for values in columns_of]
            tags = set(map(_column_tag, pieces))
            if len(tags) == 1 and None not in tags:
                tag = tags.pop()
                built.setdefault((name, tag), []).append(
                    (at, pieces if tag == _STR else np.concatenate(pieces))
                )
                continue
            values = list(chain.from_iterable(map(_python, pieces)))
            kinds = set(map(type, values))
            if len(kinds) == 1:
                split = [(kinds.pop(), at, values)]
            else:
                types = list(map(type, values))
                split = [
                    (kind, at[[t is kind for t in types]],
                     [v for v, t in zip(values, types) if t is kind])
                    for kind in kinds
                ]
            for kind, kind_rows, kind_values in split:
                tag = _tag_of(kind)
                if tag is None:
                    overflow.extend(
                        (row, name, json.dumps(
                            item, sort_keys=True, default=json_default
                        ))
                        for row, item in zip(kind_rows.tolist(), kind_values)
                    )
                else:
                    built.setdefault((name, tag), []).append(
                        (kind_rows, [kind_values] if tag == _STR else kind_values)
                    )

    args = {}
    for (key, tag), chunks in built.items():
        mask = np.zeros(count, np.bool_)
        data = np.zeros(count, _ARG_DTYPES[tag])
        for at, values in chunks:
            if tag == _STR:
                values = np.concatenate(list(map(number, values)))
            elif tag == _INT and not isinstance(values, np.ndarray):
                at, values = _int64_only(key, at, values, overflow)
            mask[at] = True
            data[at] = values
        args[(key, tag)] = (data, mask)
    key_order = (
        [tuple(k if type(k) is str else _json_key(k) for k in keys)
         for keys in gathered],
        shape_of,
    )
    return EventTable(
        [str(s) for s in strings], columns, args, sorted(overflow), key_order
    )


class TableWriter:
    """Append-only row buffer; :meth:`take` turns the rows into a table.

    The row buffer behind :class:`~repro.obs.trace.RecordingTracer` (and
    so every run-dir feed) and the encoder of JSONL records.  Rows come
    one at a time (:meth:`append`) or in columns (:meth:`extend`).  A
    row's args are its keys tuple and their values (:func:`split_args`
    makes both from a dict); every appended row is one flat tuple, the
    fixed columns then the keys tuple then the values.  A row whose
    values are scalars and whose keys tuple is a constant holds no
    tracked object, so the garbage collector untracks it the first time
    it looks.  The typing and column building happen in bulk in
    :meth:`take`, which groups rows by their keys tuple.  No JSON is
    built unless an args value is not a scalar.
    """

    def __init__(self) -> None:
        self._batches: List[RowBatch] = []
        self._batched = 0
        self._rows: List[tuple] = []

    def __len__(self) -> int:
        return self._batched + len(self._rows)

    def append(
        self,
        kind: int,
        name: str,
        track: str,
        cat: str,
        ts_ms: float,
        dur_ms: float,
        value: float,
        span_id: int,
        parent: int,
        seq: int,
        n: int,
        keys: Tuple[Any, ...] = (),
        values: Tuple[Any, ...] = (),
    ) -> None:
        """Buffer one row whose args are ``keys`` with ``values``."""
        self._rows.append(
            (kind, name, track, cat, ts_ms, dur_ms, value, span_id, parent,
             seq, n, keys) + values
        )

    def extend(self, batch: RowBatch) -> None:
        """Buffer ``batch``'s rows (every fixed column set) after the
        rows buffered so far."""
        if self._rows:
            self._batches.append(RowBatch.of_rows(self._rows))
            self._rows = []
        self._batches.append(batch)
        self._batched = len(self)

    def take(self) -> "EventTable":
        """The buffered rows as a table; the buffer starts over empty."""
        batches = self._batches
        if self._rows or not batches:
            batches.append(RowBatch.of_rows(self._rows))
        self._batches, self._batched, self._rows = [], 0, []
        return _table(batches)


def split_args(
    args: Optional[Mapping[Any, Any]]
) -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
    """An args dict as the ``(keys, values)`` tuples of a table row."""
    if not args:
        return (), ()
    return tuple(args), tuple(args.values())


class EventTable:
    """Rows of spans, instants and counters in columns (module docstring).

    Tables are immutable in use: every transformation returns a new one.
    """

    def __init__(
        self,
        strings: List[str],
        columns: Dict[str, np.ndarray],
        args: Optional[Dict[ArgKey, Tuple[np.ndarray, np.ndarray]]] = None,
        overflow: Optional[List[Tuple[int, str, str]]] = None,
        key_order: Optional[KeyOrder] = None,
    ) -> None:
        self.strings = strings
        self.columns = columns
        self.args = args if args is not None else {}
        #: ``(row, key, JSON text)`` for args values that are not scalars.
        self.overflow = overflow if overflow is not None else []
        #: Each row's args keys in recorded order (:data:`KeyOrder`);
        #: ``None`` (keys sorted) for a table read from a file.
        self.key_order = key_order
        self._codes: Optional[Dict[str, int]] = None

    @classmethod
    def empty(cls) -> "EventTable":
        """A table with no rows."""
        return TableWriter().take()

    def __len__(self) -> int:
        return int(self.columns["kind"].shape[0])

    # ------------------------------------------------------------------
    # Encoders
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "EventTable":
        """Encode ``events_jsonl``-schema record dicts, in the given order.

        Records of any other ``type`` (e.g. foreign headers) are skipped.
        """
        writer = TableWriter()
        for i, record in enumerate(records):
            kind = _KINDS.get(record.get("type"))
            if kind is None:
                continue
            span_id = record.get("id")
            parent = record.get("parent")
            writer.append(
                kind,
                record.get("name", ""),
                record.get("track", ""),
                record.get("cat", "sim"),
                float(record.get("ts_ms", 0.0)),
                float(record.get("dur_ms", 0.0)),
                float(record.get("value") or 0.0),
                -1 if span_id is None else int(span_id),
                -1 if parent is None else int(parent),
                int(record.get("seq", 0)),
                int(record.get("n", i)),
                *split_args(record.get("args")),
            )
        return writer.take()

    # ------------------------------------------------------------------
    # Accessors (what the folds read)
    # ------------------------------------------------------------------
    def code(self, string: str) -> int:
        """The string-list index of ``string`` (-1 when absent)."""
        if self._codes is None:
            self._codes = {s: i for i, s in enumerate(self.strings)}
        return self._codes.get(string, -1)

    def rows(self, kind: int, name: str) -> np.ndarray:
        """Row indices (ascending) of the ``kind`` records named ``name``."""
        code = self.code(name)
        if code < 0:
            return np.zeros(0, np.int64)
        return np.flatnonzero(
            (self.columns["kind"] == kind) & (self.columns["name"] == code)
        )

    def strings_at(self, column: str, rows: np.ndarray) -> List[str]:
        """The ``name``/``track``/``cat`` strings of ``rows``."""
        strings = self.strings
        return [strings[i] for i in self.columns[column][rows].tolist()]

    def present(self, key: str) -> np.ndarray:
        """Mask of rows whose args carry ``key`` (any value type)."""
        mask = np.zeros(len(self), np.bool_)
        for (k, _tag), (_data, present) in self.args.items():
            if k == key:
                mask |= present
        for row, k, _text in self.overflow:
            if k == key:
                mask[row] = True
        return mask

    def has_args(self) -> np.ndarray:
        """Mask of rows with a non-empty args dict."""
        mask = np.zeros(len(self), np.bool_)
        for _data, present in self.args.values():
            mask |= present
        for row, _key, _text in self.overflow:
            mask[row] = True
        return mask

    def arg(self, key: str, rows: np.ndarray) -> List[Any]:
        """``args[key]`` of each of ``rows`` as Python values, or
        :data:`MISSING` where the row has no such key."""
        out: List[Any] = [MISSING] * len(rows)
        for (k, tag), (data, present) in self.args.items():
            if k != key:
                continue
            at = np.flatnonzero(present[rows])
            if not at.size:
                continue
            values = data[rows[at]].tolist()
            if tag == _STR:
                strings = self.strings
                values = [strings[i] for i in values]
            for i, value in zip(at.tolist(), values):
                out[i] = value
        for i, value in self._spilled(key, rows):
            out[i] = value
        return out

    def arg_array(
        self, key: str, rows: np.ndarray, kind: type, default: Any
    ) -> np.ndarray:
        """``kind(args[key])`` of each of ``rows`` as one array, ``kind``
        being ``bool``, ``int`` or ``float``; ``default`` (a scalar or one
        value per row) where the row has no such key.

        A column already of ``kind`` is read as it is; values of any
        other type go through ``kind`` one by one, so they convert (or
        raise) exactly as the Python call does.  An ``int`` that int64
        cannot hold raises ``OverflowError``.
        """
        out = np.array(
            np.broadcast_to(default, (len(rows),)), _KIND_DTYPES[kind]
        )
        native = _FAST_TAGS[kind]
        for (k, tag), (data, present) in self.args.items():
            if k != key:
                continue
            at = np.flatnonzero(present[rows])
            if not at.size:
                continue
            values = data[rows[at]]
            if tag != native:
                values = list(map(kind, self._python(tag, values)))
            out[at] = values
        for i, value in self._spilled(key, rows):
            out[i] = kind(value)
        return out

    def arg_strings(
        self, key: str, rows: np.ndarray, default: str = ""
    ) -> Tuple[np.ndarray, List[str]]:
        """``str(args[key])`` of each of ``rows`` (``default`` where the
        row has no such key) as ``(codes, names)``: ``names[codes[i]]``
        is row ``i``'s string, and ``names`` lists each string once."""
        extra: Dict[str, int] = {}

        def code(string: str) -> int:
            found = self.code(string)
            if found < 0:
                found = extra.setdefault(string, len(self.strings) + len(extra))
            return found

        out = np.full(len(rows), code(default), np.int64)
        for (k, tag), (data, present) in self.args.items():
            if k != key:
                continue
            at = np.flatnonzero(present[rows])
            if not at.size:
                continue
            values = data[rows[at]]
            if tag == _STR:
                used, inverse = np.unique(values, return_inverse=True)
                canonical = [code(self.strings[i]) for i in used.tolist()]
                out[at] = np.array(canonical, np.int64)[inverse]
            else:
                out[at] = [code(str(v)) for v in self._python(tag, values)]
        for i, value in self._spilled(key, rows):
            out[i] = code(str(value))
        used, codes = np.unique(out, return_inverse=True)
        every = self.strings + list(extra)
        return codes.reshape(-1), [every[i] for i in used.tolist()]

    def _python(self, tag: str, values: np.ndarray) -> List[Any]:
        """A typed column's values as the Python values they store."""
        if tag == _STR:
            strings = self.strings
            return [strings[i] for i in values.tolist()]
        return values.tolist()

    def _spilled(self, key: str, rows: np.ndarray) -> List[Tuple[int, Any]]:
        """``(position in rows, value)`` of the overflow ``key`` values of
        ``rows``."""
        extra = [(row, text) for row, k, text in self.overflow if k == key]
        if not extra:
            return []
        where = {row: i for i, row in enumerate(rows.tolist())}
        return [
            (where[row], json.loads(text)) for row, text in extra if row in where
        ]

    def _arg_dicts(self) -> List[Optional[Dict[str, Any]]]:
        """Every row's args dict (``None`` when empty), keys in recorded
        order (:attr:`key_order`), else sorted."""
        dicts: List[Optional[Dict[str, Any]]] = [None] * len(self)
        by_key: Dict[str, List[Tuple[str, np.ndarray, np.ndarray]]] = {}
        for (key, tag), (data, present) in self.args.items():
            by_key.setdefault(key, []).append((tag, data, present))
        spilled: Dict[str, List[Tuple[int, str]]] = {}
        for row, key, text in self.overflow:
            spilled.setdefault(key, []).append((row, text))
        strings = self.strings
        for key in sorted(set(by_key) | set(spilled)):
            pairs: List[Tuple[int, Any]] = []
            for tag, data, present in by_key.get(key, ()):
                at = np.flatnonzero(present)
                values = data[at].tolist()
                if tag == _STR:
                    values = [strings[i] for i in values]
                pairs.extend(zip(at.tolist(), values))
            pairs.extend((row, json.loads(text)) for row, text in spilled.get(key, ()))
            for row, value in pairs:
                args = dicts[row]
                if args is None:
                    dicts[row] = {key: value}
                else:
                    args[key] = value
        if self.key_order is not None:
            shapes, shape_of = self.key_order
            for index, keys in enumerate(shapes):
                if list(keys) != sorted(set(keys)):
                    for row in np.flatnonzero(shape_of == index).tolist():
                        args = dicts[row]
                        dicts[row] = {key: args[key] for key in keys}
        return dicts

    def records(self) -> Iterator[tuple]:
        """``(kind, name, track, cat, ts_ms, dur_ms, value, id, parent,
        args)`` per row, in row order, as Python values (``args`` is
        ``None`` when empty)."""
        c = self.columns
        strings = self.strings
        return zip(
            c["kind"].tolist(),
            [strings[i] for i in c["name"].tolist()],
            [strings[i] for i in c["track"].tolist()],
            [strings[i] for i in c["cat"].tolist()],
            c["ts_ms"].tolist(),
            c["dur_ms"].tolist(),
            c["value"].tolist(),
            c["id"].tolist(),
            c["parent"].tolist(),
            self._arg_dicts(),
        )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, *tracers: Any) -> None:
        """Feed every row, in row order, to each of ``tracers``."""
        for kind, name, track, cat, ts, dur, value, _id, _parent, args in (
            self.records()
        ):
            for tracer in tracers:
                if kind == SPAN:
                    tracer.complete(name, track, ts, dur, cat, args)
                elif kind == INSTANT:
                    tracer.instant(name, track, ts, cat, args)
                else:
                    tracer.counter(name, track, ts, value)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    @classmethod
    def concat(cls, tables: Sequence["EventTable"]) -> "EventTable":
        """``tables`` one after another, rows and ids untouched."""
        if len(tables) == 1:
            return tables[0]
        return _stack([(t, "", None) for t in tables])[0]

    @classmethod
    def merge(cls, parts: Sequence[Tuple["EventTable", str, float]]) -> "EventTable":
        """One table from ``(table, track prefix, offset)`` parts.

        Part ``i``'s tracks are renamed ``prefix + track`` and the
        timestamps of its wall-clock (``offline``) rows move by its offset;
        rows are then stable-sorted on ``(seq, i, n)`` and spans numbered
        ``1, 2, ...`` in the merged order with no parent links -- exactly
        what replaying the sorted records into a fresh recorder gives.
        """
        stacked, part = _stack(parts)
        c = stacked.columns
        merged = stacked.take(np.lexsort((c["n"], part, c["seq"])))
        spans = merged.columns["kind"] == SPAN
        ids = np.full(len(merged), -1, np.int64)
        ids[spans] = np.arange(1, int(spans.sum()) + 1)
        merged.columns["id"] = ids
        merged.columns["parent"] = np.full(len(merged), -1, np.int64)
        return merged

    def take(self, order: np.ndarray) -> "EventTable":
        """The rows at ``order``, in that order."""
        columns = {name: column[order] for name, column in self.columns.items()}
        args = {
            key: (data[order], present[order])
            for key, (data, present) in self.args.items()
        }
        overflow: List[Tuple[int, str, str]] = []
        if self.overflow:
            position = np.full(len(self), -1, np.int64)
            position[order] = np.arange(len(order))
            overflow = [
                (int(position[row]), key, text)
                for row, key, text in self.overflow
                if position[row] >= 0
            ]
        key_order = self.key_order
        if key_order is not None:
            key_order = (key_order[0], key_order[1][order])
        return EventTable(self.strings, columns, args, overflow, key_order)

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        logger: str = "obs.columns",
        warning: str = "skipping unparseable block (truncated write?)",
    ) -> Tuple["EventTable", Dict[str, Any]]:
        """Every readable block of ``path`` as one table, plus the first
        block's header (``{}`` when none was readable)."""
        blocks = list(read_blocks(path, logger, warning))
        if not blocks:
            return cls.empty(), {}
        return cls.concat([table for _, table in blocks]), blocks[0][0]


def _stack(
    parts: Sequence[Tuple[EventTable, str, Optional[float]]]
) -> Tuple[EventTable, np.ndarray]:
    """Concatenate ``(table, track prefix, offset)`` parts into one string
    list; ``offset`` (``None``: untouched) moves the part's ``offline``
    timestamps.  Also returns each row's part index.  The key order is
    kept when every part has one."""
    strings: Dict[str, int] = {}

    def remap(names: Iterable[str]) -> np.ndarray:
        return np.array(
            [strings.setdefault(s, len(strings)) for s in names], np.int32
        ).reshape(-1)

    fixed: Dict[str, List[np.ndarray]] = {name: [] for name, _ in _FIXED}
    local_codes: List[np.ndarray] = []
    overflow: List[Tuple[int, str, str]] = []
    rows = 0
    for table, prefix, offset in parts:
        c = table.columns
        local = remap(table.strings)
        local_codes.append(local)
        tracks = local
        if prefix:
            tracks = np.zeros(len(table.strings), np.int32)
            used = np.unique(c["track"])
            tracks[used] = remap(prefix + table.strings[i] for i in used.tolist())
        for name, _dtype in _FIXED:
            column = c[name]
            if name == "track":
                column = tracks[column]
            elif name in _STRING_COLUMNS:
                column = local[column]
            elif name == "ts_ms" and offset is not None:
                column = column.copy()
                column[c["cat"] == table.code("offline")] += offset
            fixed[name].append(column)
        overflow.extend((row + rows, key, text) for row, key, text in table.overflow)
        rows += len(table)

    columns = {
        name: np.concatenate(fixed[name] or [np.zeros(0, dtype)]).astype(
            dtype, copy=False
        )
        for name, dtype in _FIXED
    }
    keys: Dict[ArgKey, None] = {}
    for table, _prefix, _offset in parts:
        keys.update(dict.fromkeys(table.args))
    args = {}
    for key in keys:
        datas, masks = [], []
        for (table, _prefix, _offset), local in zip(parts, local_codes):
            column = table.args.get(key)
            if column is None:
                datas.append(np.zeros(len(table), _ARG_DTYPES[key[1]]))
                masks.append(np.zeros(len(table), np.bool_))
            else:
                data, present = column
                datas.append(local[data] if key[1] == _STR else data)
                masks.append(present)
        args[key] = (np.concatenate(datas), np.concatenate(masks))
    part = np.concatenate(
        [np.full(len(t), i, np.int64) for i, (t, _p, _o) in enumerate(parts)]
        or [np.zeros(0, np.int64)]
    )
    key_order: Optional[KeyOrder] = None
    if parts and all(t.key_order is not None for t, _p, _o in parts):
        shapes: List[Tuple[str, ...]] = []
        indices = []
        for table, _prefix, _offset in parts:
            indices.append(table.key_order[1] + len(shapes))
            shapes.extend(table.key_order[0])
        key_order = (shapes, np.concatenate(indices))
    return EventTable(list(strings), columns, args, overflow, key_order), part


# ----------------------------------------------------------------------
# Blocks on disk
# ----------------------------------------------------------------------
def write_block(fh: BinaryIO, table: EventTable, **meta: Any) -> None:
    """Write one self-contained block holding ``table`` (``meta`` joins
    the header) at ``fh``'s position, a seekable binary file.  The arrays
    go straight to ``fh``, so the payload is never held in memory."""
    keys = list(table.args)
    arrays = [table.columns[name] for name, _ in _FIXED]
    for key in keys:
        arrays.extend(table.args[key])
    header = dict(
        meta,
        schema=SCHEMA,
        rows=len(table),
        strings=table.strings,
        args=[list(key) for key in keys],
        overflow=[list(entry) for entry in table.overflow],
    )
    head = json.dumps(header, sort_keys=True, default=json_default).encode("utf-8")
    start = fh.tell()
    fh.seek(start + _PREFIX.size)
    fh.write(head)
    for array in arrays:
        np.save(fh, array, allow_pickle=False)
    end = fh.tell()
    fh.seek(start)
    fh.write(_PREFIX.pack(_MAGIC, len(head), end - start - _PREFIX.size - len(head)))
    fh.seek(end)


def encode_block(table: EventTable, **meta: Any) -> bytes:
    """One self-contained block holding ``table`` (``meta`` joins the
    header)."""
    buffer = io.BytesIO()
    write_block(buffer, table, **meta)
    return buffer.getvalue()


def write_table(path: Union[str, Path], table: EventTable, **meta: Any) -> Path:
    """Write ``table`` to ``path`` as a one-block file and return the path."""
    path = Path(path)
    with path.open("wb") as fh:
        write_block(fh, table, **meta)
    return path


def _load_array(buffer: BinaryIO, rows: int, dtype: Any) -> np.ndarray:
    array = np.load(buffer, allow_pickle=False)
    if array.dtype != np.dtype(dtype) or array.shape != (rows,):
        raise ValueError(
            f"array {array.dtype}{array.shape} is not {np.dtype(dtype)}[{rows}]"
        )
    return array


def _decode(header: Mapping[str, Any], body: bytes) -> EventTable:
    rows = int(header["rows"])
    strings = [str(s) for s in header["strings"]]
    buffer = io.BytesIO(body)
    columns = {name: _load_array(buffer, rows, dtype) for name, dtype in _FIXED}
    args = {}
    for key, tag in header["args"]:
        data = _load_array(buffer, rows, _ARG_DTYPES[tag])
        args[(str(key), tag)] = (data, _load_array(buffer, rows, np.bool_))
    indexed = [columns[name] for name in _STRING_COLUMNS]
    indexed += [data for (_key, tag), (data, _p) in args.items() if tag == _STR]
    for codes in indexed:
        if rows and (codes.min() < 0 or codes.max() >= len(strings)):
            raise ValueError("a string index points past the string list")
    overflow = [(int(row), str(key), str(text)) for row, key, text in header["overflow"]]
    return EventTable(strings, columns, args, overflow)


def _next_header(fh: BinaryIO, size: int) -> Optional[Tuple[Dict[str, Any], int]]:
    """The next block's header and payload length, the file positioned at
    its payload; ``None`` at a clean end of file.  Raises ``EOFError`` on
    a torn block and ``ValueError`` on one that is not a block."""
    offset = fh.tell()
    prefix = fh.read(_PREFIX.size)
    if not prefix:
        return None
    if len(prefix) < _PREFIX.size:
        raise EOFError
    magic, head_len, body_len = _PREFIX.unpack(prefix)
    if magic != _MAGIC:
        raise ValueError("bad block magic")
    if offset + _PREFIX.size + head_len + body_len > size:
        raise EOFError
    header = json.loads(fh.read(head_len).decode("utf-8"))
    if header.get("schema") != SCHEMA:
        raise ValueError(f"unknown block schema {header.get('schema')!r}")
    return header, body_len


def read_blocks(
    path: Union[str, Path], logger: str, warning: str
) -> Iterator[Tuple[Dict[str, Any], EventTable]]:
    """Stream ``(header, table)`` per block of ``path``.

    A torn block (a worker crashed mid-write) ends the stream with
    ``warning`` logged as ``<path>@<offset>: <warning>`` on the
    ``logger`` channel; every block before it is still yielded.  A block
    whose arrays are off-layout -- an object array included, which is
    never unpickled -- is refused the same way.
    """
    from repro.obs.log import get_logger

    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while True:
            offset = fh.tell()
            problem = warning
            try:
                block = _next_header(fh, size)
                if block is None:
                    return
                header, body_len = block
                problem = "refusing block"
                table = _decode(header, fh.read(body_len))
            except (EOFError, ValueError, KeyError, TypeError) as exc:
                detail = f" ({exc})" if str(exc) else ""
                get_logger(logger).warning(
                    "%s@%d: %s%s", path, offset, problem, detail
                )
                return
            yield header, table


def block_rows(path: Union[str, Path]) -> int:
    """Rows across ``path``'s complete blocks, read from headers alone."""
    total = 0
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while True:
            try:
                block = _next_header(fh, size)
            except (EOFError, ValueError):
                return total
            if block is None:
                return total
            header, body_len = block
            total += int(header.get("rows", 0))
            fh.seek(body_len, os.SEEK_CUR)
