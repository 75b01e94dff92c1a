"""Auction bid logs in columns, their CSV round trip, and per-auction summaries.

A log is one row per bid: ``slot_id, auction_id, timestamp, bid_cpm``, held
as four columns by :class:`BidLog`. Grouping rows by ``auction_id`` yields an
:class:`AuctionTable`: each auction's bids, ranked, and its hour, from which
the observed competition (number of bids) and the winning bid are read.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import operator
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

__all__ = [
    "AuctionTable",
    "BidLog",
    "read_log_csv",
    "write_log_csv",
    "summarize_auctions",
]

LOG_HEADER = ("slot_id", "auction_id", "timestamp", "bid_cpm")
_CHUNK = 256  # rows per pass of the reader, the writer and the ranking, bounding their memory
_US = timedelta(microseconds=1)
_HOUR = 3_600_000_000  # microseconds
_EPOCH, _UTC_EPOCH = datetime(1970, 1, 1), datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE = np.iinfo(np.int64).min  # the offset of a naive stamp, or of none
_NEEDS_QUOTES = re.compile('[,"\r\n]')  # fields the csv module quotes


class BidLog:
    """Bid rows stored by run: a block of consecutive rows whose slot id and auction id
    are the same objects and whose stamps (None when the source has no clock) are the
    same instant at the same offset. A log holds the float64 ``bid_cpm`` per row and,
    per run, its first row, one slot id and auction id, and its stamp as two int64
    numbers: ``_instant``, microseconds since 1970-01-01 (UTC for an offset-aware stamp,
    the wall clock for a naive one, ``AuctionTable.UNSTAMPED`` for none), and
    ``_offset``, the stamp's ``utcoffset()`` in microseconds (``_NAIVE`` for a naive or
    missing stamp). ``slot_id``, ``auction_id`` and ``timestamp`` are per-row lists,
    expanded from the runs on every access: O(rows). ``timestamp`` rebuilds one
    ``datetime`` per run, at its offset as a ``datetime.timezone``: equal to the stamp
    passed in, with its offset and naivety, but a new object. Logs compare row by row,
    whatever their runs. Auction ids must be orderable among themselves, as strings
    are: the auctions are counted and summarized by sorting them.
    """

    def __init__(self, slot_id, auction_id, timestamp, bid_cpm):
        slots, auctions = list(slot_id), list(auction_id)
        stamps = list(map(_stamp_numbers, timestamp))
        self.bid_cpm = np.asarray(bid_cpm, dtype=float)
        if len({len(self.bid_cpm), len(slots), len(auctions), len(stamps)}) > 1:
            raise ValueError("bid log columns must have equal lengths")
        # a run starts where an id is another object or the stamp another number
        keys = list(zip(map(id, slots), map(id, auctions), stamps))
        starts = [i for i, key in enumerate(keys) if not i or key != keys[i - 1]]
        self._starts = np.array(starts, dtype=np.int64)
        self._slots, self._auctions = ([c[i] for i in starts] for c in (slots, auctions))
        self._instant, self._offset = np.array([stamps[i] for i in starts],
                                               dtype=np.int64).reshape(-1, 2).T.copy()

    @classmethod
    def _of_runs(cls, starts, slots, auctions, instant, offset, bid_cpm):
        """A log over these columns themselves, uncopied: the runs' first rows (int64,
        ascending from 0), lists of their slot ids and auction ids, their stamps'
        int64 ``_instant`` and ``_offset`` numbers, and the float64 bids. Neighbouring
        runs may share all their fields; they then only cost a run more."""
        if (len({len(starts), len(slots), len(auctions), len(instant), len(offset)}) > 1
                or starts[:1].tolist() != [0] * bool(len(bid_cpm))
                or (np.diff(starts, append=len(bid_cpm)) <= 0).any()):
            raise ValueError("runs must start at row 0, ascend, and have one field of each")
        log = cls.__new__(cls)
        log._starts, log._slots, log._auctions, log._instant, log._offset, log.bid_cpm = (
            starts, slots, auctions, instant, offset, bid_cpm)
        return log

    def _per_row(self, column):
        """A per-run column repeated over each run's rows."""
        lengths = np.diff(self._starts, append=len(self)).tolist()
        return list(itertools.chain.from_iterable(map(itertools.repeat, column, lengths)))

    slot_id = property(lambda self: self._per_row(self._slots))
    auction_id = property(lambda self: self._per_row(self._auctions))
    timestamp = property(lambda self: self._per_row(
        map(_stamp_of, self._instant.tolist(), self._offset.tolist())))

    def __len__(self):
        return len(self.bid_cpm)

    def count_auctions(self):
        """The number of distinct auction ids, by one sort of the runs'."""
        ids = sorted(self._auctions)
        return sum(map(operator.ne, ids[1:], ids)) + bool(ids)

    def __eq__(self, other):
        return isinstance(other, BidLog) and np.array_equal(self.bid_cpm, other.bid_cpm) and all(
            getattr(self, name) == getattr(other, name) for name in LOG_HEADER[:3])


def _stamp_numbers(stamp):
    """A stamp's ``(instant, offset)`` as :class:`BidLog` stores them."""
    offset = None if stamp is None else stamp.utcoffset()
    if offset is None:
        return (AuctionTable.UNSTAMPED if stamp is None else (stamp - _EPOCH) // _US), _NAIVE
    return (stamp - _UTC_EPOCH) // _US, offset // _US


def _stamp_of(instant, offset):
    """The stamp that :func:`_stamp_numbers` gives these numbers, at its wall clock."""
    if instant == AuctionTable.UNSTAMPED:
        return None
    if offset == _NAIVE:
        return _EPOCH + timedelta(microseconds=instant)
    return (_EPOCH + timedelta(microseconds=instant + offset)).replace(
        tzinfo=timezone(timedelta(microseconds=offset)))


@dataclass(eq=False)
class AuctionTable:
    """Per-auction summaries as numeric columns, one entry per auction in
    first-seen order, which names an auction, as the table keeps no ids.

    Auction ``i``'s bids, descending (ties in row order), are
    ``bids[offsets[i]:offsets[i + 1]]``; ``xi_observed`` counts them and
    ``winning_bid`` is the first, both read off ``offsets`` on each access.
    ``hour`` is the auction's earliest stamp's wall-clock hour in that
    stamp's own offset as int64 microseconds since the epoch (naive stamps
    count as UTC), or ``UNSTAMPED``.
    """

    hour: np.ndarray
    bids: np.ndarray
    offsets: np.ndarray

    UNSTAMPED = np.iinfo(np.int64).max  # sorts after every stamp

    xi_observed = property(lambda self: np.diff(self.offsets))
    winning_bid = property(lambda self: self.bids[self.offsets[:-1]])

    def __len__(self):
        return len(self.hour)

    def take(self, index):
        """The auctions picked by an index array or a boolean mask, in that
        order (a mask keeps the table's), each with its bids in order."""
        index = np.arange(len(self))[index]
        rows, offsets = self._rows(index)
        return AuctionTable(self.hour[index], self.bids[rows], offsets)

    def _rows(self, index):
        """The bid rows of the auctions at an index array, in its order, and their
        offsets there: one int64 per row beside the bids, no more."""
        starts = self.offsets[index]
        counts = self.offsets[index + 1] - starts  # not xi_observed, which is O(len(self))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rows = np.repeat(starts - offsets[:-1], counts)
        rows += np.arange(len(rows))
        return rows, offsets


def _csv_field(value):
    """``value`` as the csv module's default dialect writes it."""
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _stamp_texts(instant, offset):
    """Runs' stamps as ``datetime.isoformat`` prints them, ``""`` for none: the wall
    clocks in one numpy call, each offset's suffix once."""
    naive = offset == _NAIVE
    local = instant + np.where(naive, 0, offset)
    texts = np.datetime_as_string(local.astype("M8[us]"), unit="us").tolist()
    suffixes = {o: _stamp_of(-o, o).isoformat()[19:] for o in set(offset[~naive].tolist())}
    suffixes[_NAIVE] = ""
    return ["" if i == AuctionTable.UNSTAMPED else
            (t[:-7] if t.endswith(".000000") else t) + suffixes[o]
            for t, i, o in zip(texts, instant.tolist(), offset.tolist())]


def write_log_csv(log, path):
    """Write a :class:`BidLog` to ``path``, each stamp as ``datetime.isoformat`` prints
    it and a None timestamp as an empty field, ``_CHUNK`` rows at a time."""
    starts = log._starts  # the rows of a run share the prefix its fields print
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LOG_HEADER) + "\r\n")
        for lo in range(0, len(log), _CHUNK):
            hi = min(lo + _CHUNK, len(log))
            first, last = int(np.searchsorted(starts, lo, "right")), int(np.searchsorted(starts, hi))
            ends = [lo, *starts[first:last].tolist(), hi]
            bids = list(map(repr, log.bid_cpm[lo:hi].tolist()))
            stamps = _stamp_texts(log._instant[first - 1:last], log._offset[first - 1:last])
            text = []
            for run, stamp, start, end in zip(range(first - 1, last), stamps, ends[:-1], ends[1:]):
                prefix = f"{_csv_field(log._slots[run])},{_csv_field(log._auctions[run])},{stamp},"
                text += (prefix, ("\r\n" + prefix).join(bids[start - lo:end - lo]), "\r\n")
            fh.write("".join(text))


def _run_head(head, ids, zones, last, naive):
    """A run's slot id, auction id and stamp numbers from the fields before its first
    row's bid, the stamp's text and numbers, and whether stamps are naive (None until
    one is read); or a ValueError naming the row's first failed check, where a stamp
    not of kind ``naive`` fails. The previous run's stamp (``last``: its text and
    numbers) serves the same text unparsed. ``ids`` interns the ids, and ``zones``
    holds each tzinfo's epoch and offset, so a stamp costs one subtraction."""
    if len(head) != len(LOG_HEADER) - 1:
        raise ValueError(f"expected {len(LOG_HEADER)} fields")
    slot, auction, text = map(str.strip, head)
    if not (slot and auction):
        raise ValueError("empty slot or auction id")
    if text != last[0]:
        try:  # datetime.fromisoformat on 3.10 rejects a trailing Z
            stamp = None if not text else datetime.fromisoformat(
                text[:-1] + "+00:00" if text.endswith("Z") else text)
        except ValueError:
            raise ValueError(f"bad timestamp {text!r}") from None
        if stamp is None:
            last = text, AuctionTable.UNSTAMPED, _NAIVE
        else:
            naive = stamp.tzinfo is None if naive is None else naive  # naive: no tzinfo
            if (stamp.tzinfo is None) != naive:
                raise ValueError(f"timestamp {text!r} is {('naive', 'offset-aware')[naive]}, "
                                 f"the first stamped row's is {('offset-aware', 'naive')[naive]}")
            epoch, offset = zones.get(stamp.tzinfo) or zones.setdefault(
                stamp.tzinfo, (_UTC_EPOCH, stamp.utcoffset() // _US))
            last = text, (stamp - epoch) // _US, offset
    return (ids.setdefault(slot, slot), ids.setdefault(auction, auction), last[1], last[2]), \
        last, naive


def _parse_bids(texts, line, path):
    """The bids of consecutive lines from ``line`` on; the first bad one raises as ``path:line``."""
    with contextlib.suppress(ValueError):
        bids = np.array(texts, dtype=float)  # each text as float() reads it
        if (np.isfinite(bids) & (bids >= 0)).all():
            return bids
    for i, text in enumerate(texts):
        try:
            bid = float(text)
        except ValueError:
            raise ValueError(f"{path}:{line + i}: bad bid {text.strip()!r}") from None
        if not (np.isfinite(bid) and bid >= 0):
            raise ValueError(f"{path}:{line + i}: bid must be finite and non-negative")


def _has_quotes(path):
    """Whether the file holds a ``"`` or a NUL: only the csv module reads those."""
    with open(path, "rb") as fh:
        return any(b'"' in block or b"\0" in block
                   for block in iter(functools.partial(fh.read, 1 << 16), b""))


def _split_lines(lines):
    """Unquoted lines' keys, the text before the last comma, and bid texts, the rest.
    The csv module would split a key at its commas."""
    parts = list(map(str.rpartition, lines, itertools.repeat(",")))
    return list(map(operator.itemgetter(0), parts)), list(map(operator.itemgetter(2), parts))


def _split_rows(rows):
    """csv rows' keys, the fields before the bid, and bid texts."""
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def _segments(source):
    """The items of ``source`` read ``_CHUNK`` at a time, as lists of consecutive ones
    that are not empty, each with its first item's index in ``source``."""
    for base in itertools.count(0, _CHUNK):
        items = list(itertools.islice(source, _CHUNK))
        if not items:
            return
        cuts = list(itertools.compress(itertools.count(), map(operator.not_, items)))
        for lo, hi in zip([0, *(c + 1 for c in cuts)], [*cuts, len(items)]):
            if lo < hi:
                yield items[lo:hi], base + lo


def read_log_csv(path):
    """Read a :class:`BidLog` from ``path``, validating the header and every
    field; the first bad row is reported as ``path:line``. A file without a
    ``"`` or a NUL is split at each line's last comma, and only a line whose
    text before it differs from the line before's has that text split into
    fields; a file with one goes through the csv module. Either way a run
    of rows with the same slot, auction and stamp fields is checked once,
    equal ids share one object, each run's stamp is kept as its two numbers
    (see :class:`BidLog`), and bids are converted ``_CHUNK`` lines at a time.
    A run goes on while its ids and its stamp's numbers do."""
    quoted = _has_quotes(path)
    starts, slots, auctions, instants, offsets = array("q"), [], [], array("q"), array("q")
    head, ids, zones = (None,) * 4, {}, {None: (_EPOCH, _NAIVE)}
    last, naive = ("", AuctionTable.UNSTAMPED, _NAIVE), None  # the previous run's stamp
    chunks, key, rows = [], None, 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)  # which reads one line a row from ``fh``
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != LOG_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(LOG_HEADER)}, got {header}")
        # a line without its line break; a blank one is empty, as a blank csv row is
        source, split = ((reader, _split_rows) if quoted else
                         (map(str.rstrip, fh, itertools.repeat("\r\n")), _split_lines))
        for items, offset in _segments(source):
            keys, bids = split(items)
            line = 2 + offset  # the header is line 1
            # a row whose key differs from the row before's starts a run or is malformed
            at = list(itertools.compress(itertools.count(),
                                         map(operator.ne, keys, itertools.chain([key], keys))))
            fields = map(keys.__getitem__, at)
            for i, head_fields in zip(at, fields if quoted else
                                      map(str.split, fields, itertools.repeat(","))):
                try:
                    new, last, naive = _run_head(head_fields, ids, zones, last, naive)
                except ValueError as exc:
                    _parse_bids(bids[:i], line, path)  # an earlier bad bid wins
                    raise ValueError(f"{path}:{line + i}: {exc}") from None
                if new != head:  # the ids are interned: equal is the same object
                    starts.append(rows + i)
                    slots.append(new[0])
                    auctions.append(new[1])
                    instants.append(new[2])
                    offsets.append(new[3])
                    head = new
            key = keys[-1]
            chunks.append(_parse_bids(bids, line, path))
            rows += len(bids)
    del ids  # before the bids are joined
    bids = np.concatenate(chunks) if chunks else np.empty(0)
    del chunks  # before the runs are checked
    starts, instants, offsets = (np.frombuffer(c, dtype=np.int64)
                                 for c in (starts, instants, offsets))
    return BidLog._of_runs(starts, slots, auctions, instants, offsets, bids)


def summarize_auctions(log):
    """Group a :class:`BidLog`'s rows into an :class:`AuctionTable`.

    Equal auction ids (which must be orderable) are one auction; its timestamp is
    its rows' earliest instant (the first row's of equal ones), read off the log's
    numbers, and its hour that stamp's wall-clock hour in its own offset. Naive and
    offset-aware stamps do not compare: a log that mixes them is refused with a
    ValueError. Rows already grouped by auction are not sorted.
    """
    heads, run_auction = np.unique(np.fromiter(log._auctions, object, len(log._auctions)),
                                   return_index=True, return_inverse=True)[1:]
    # each run's auction numbered by its first run's rank: in first-seen order
    run_auction = np.argsort(np.argsort(heads))[run_auction]
    del heads
    instant, offset = log._instant, log._offset
    if len(np.unique(offset[instant != AuctionTable.UNSTAMPED] == _NAIVE)) > 1:
        raise ValueError("the log mixes naive and offset-aware timestamps")
    # runs by auction, then instant: the stable sort keeps the first of equal
    # instants, and unstamped runs come last
    by_auction = np.lexsort((instant, run_auction))
    earliest = by_auction[np.flatnonzero(np.diff(run_auction[by_auction], prepend=-1))]
    del by_auction
    hour, local = instant[earliest], offset[earliest]
    local[local == _NAIVE] = 0  # naive stamps count as UTC
    local += hour
    local %= _HOUR  # the wall clock's time past its hour
    local[hour == AuctionTable.UNSTAMPED] = 0
    hour -= local
    lengths = np.diff(log._starts, append=len(log))
    xi = np.bincount(run_auction, lengths, len(hour)).astype(np.intp)
    offsets = np.concatenate([[0], np.cumsum(xi)])
    # each auction's runs, and so its rows, are consecutive: no row sort
    grouped = (np.diff(run_auction) >= 0).all()
    rows = None if grouped else np.argsort(np.repeat(run_auction, lengths), kind="stable")
    del run_auction, earliest, local, lengths
    bids = log.bid_cpm.copy() if grouped else log.bid_cpm[rows]  # grouped by auction
    del rows
    # each auction's bids descending, ties in row order: a stable sort of the negated
    # bids, _CHUNK at a time, of auctions of one count
    for k in (np.flatnonzero(np.bincount(xi)[2:]) + 2).tolist():
        at, per = offsets[:-1][xi == k], max(1, _CHUNK // k)
        for lo in range(0, at.size, per):
            block = at[lo:lo + per, None] + np.arange(k)
            ranked = np.negative(bids[block])
            ranked.sort(axis=1, kind="stable")
            bids[block] = np.negative(ranked, out=ranked)
    return AuctionTable(hour, bids, offsets)
