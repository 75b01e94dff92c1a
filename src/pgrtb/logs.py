"""Auction bid logs in columns, their CSV round trip, and per-auction summaries.

A log is one row per bid: ``slot_id, auction_id, timestamp, bid_cpm``, held
as four columns by :class:`BidLog`. Grouping rows by ``auction_id`` yields an
:class:`AuctionTable`: per-auction columns with the observed competition
(number of bids), the winning bid, and the second-price payment.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import re
from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone

import numpy as np

__all__ = [
    "LOG_HEADER",
    "AuctionTable",
    "BidLog",
    "read_log_csv",
    "write_log_csv",
    "summarize_auctions",
]

LOG_HEADER = ("slot_id", "auction_id", "timestamp", "bid_cpm")
_CHUNK = 1024  # rows per pass of the reader, the writers and ``_runs``, bounding their memory
_US = timedelta(microseconds=1)
_NEEDS_QUOTES = re.compile('[,"\r\n]')  # fields the csv module quotes


class BidLog:
    """Bid rows as columns: ``slot_id``, ``auction_id`` and ``timestamp``
    (None when the source has no clock) are lists, ``bid_cpm`` is a float64
    array. Logs compare column by column and concatenate with ``+``.
    """

    def __init__(self, slot_id, auction_id, timestamp, bid_cpm):
        self.slot_id, self.auction_id = list(slot_id), list(auction_id)
        self.timestamp, self.bid_cpm = list(timestamp), np.asarray(bid_cpm, dtype=float)
        if len(set(map(len, (self.slot_id, self.auction_id, self.timestamp, self.bid_cpm)))) > 1:
            raise ValueError("bid log columns must have equal lengths")

    @classmethod
    def _adopt(cls, *columns):
        """A log over these equal-length lists and float array themselves, uncopied."""
        log = cls.__new__(cls)
        log.slot_id, log.auction_id, log.timestamp, log.bid_cpm = columns
        return log

    def __len__(self):
        return len(self.bid_cpm)

    def __eq__(self, other):
        return (isinstance(other, BidLog) and self.slot_id == other.slot_id
                and self.auction_id == other.auction_id
                and self.timestamp == other.timestamp
                and np.array_equal(self.bid_cpm, other.bid_cpm))

    def __add__(self, other):
        return BidLog(self.slot_id + other.slot_id, self.auction_id + other.auction_id,
                      self.timestamp + other.timestamp,
                      np.concatenate([self.bid_cpm, other.bid_cpm]))


@dataclass(eq=False)
class AuctionTable:
    """Per-auction summaries as columns, one entry per auction in first-seen order.

    Auction ``i``'s bids, descending (ties in row order), are
    ``bids[offsets[i]:offsets[i + 1]]``; ``xi_observed`` counts them,
    ``winning_bid`` is the first and ``payment`` the second (the reserve for
    a lone bid). ``auction_id``, ``slot_id`` (its first row's) and
    ``timestamp`` (its earliest, or None) are object arrays. ``hour`` is that
    stamp's wall-clock hour in its own offset as int64 microseconds since
    the epoch (naive stamps count as UTC), or ``UNSTAMPED``.
    """

    auction_id: np.ndarray
    slot_id: np.ndarray
    timestamp: np.ndarray
    hour: np.ndarray
    xi_observed: np.ndarray
    winning_bid: np.ndarray
    payment: np.ndarray
    bids: np.ndarray
    offsets: np.ndarray

    UNSTAMPED = np.iinfo(np.int64).max  # sorts after every stamp

    def __len__(self):
        return len(self.xi_observed)

    def take(self, index):
        """The auctions picked by an index array or a boolean mask, in that
        order (a mask keeps the table's), each with its bids in order."""
        index = np.arange(len(self))[index]
        counts = self.xi_observed[index]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rows = np.arange(offsets[-1]) + np.repeat(self.offsets[index] - offsets[:-1], counts)
        per_auction = (getattr(self, f.name)[index] for f in fields(self)[:7])  # per-auction
        return AuctionTable(*per_auction, self.bids[rows], offsets)


def _csv_field(value):
    """``value`` as the csv module's default dialect writes it."""
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def write_log_csv(log, path):
    """Write a :class:`BidLog` to ``path``; a None timestamp becomes an empty field."""
    runs = _runs(log)  # the rows of a run share the prefix its first row prints
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LOG_HEADER) + "\r\n")
        for lo in range(0, len(log), _CHUNK):
            hi = min(lo + _CHUNK, len(log))
            ends = [lo, *runs[slice(*np.searchsorted(runs, [lo + 1, hi]))].tolist(), hi]
            bids = list(map(repr, log.bid_cpm[lo:hi].tolist()))
            text = []
            for start, end in zip(ends[:-1], ends[1:]):
                t = log.timestamp[start]
                row = log.slot_id[start], log.auction_id[start], "" if t is None else t.isoformat()
                prefix = ",".join(map(_csv_field, row)) + ","
                text += (prefix, ("\r\n" + prefix).join(bids[start - lo:end - lo]), "\r\n")
            fh.write("".join(text))


def _runs(log):
    """The first row of each run: consecutive rows that share one slot id, one auction id
    and one stamp object (equal instants at other offsets print otherwise), by chunks."""
    parts = [np.zeros(min(len(log), 1), dtype=np.intp)]
    for lo in range(0, len(log) - 1, _CHUNK):
        hi = min(lo + _CHUNK + 1, len(log))  # one row of overlap joins the chunks
        ids = [np.fromiter(map(id, column[lo:hi]), np.int64, hi - lo)
               for column in (log.slot_id, log.auction_id, log.timestamp)]
        parts.append(lo + 1 + np.flatnonzero(np.any([c[1:] != c[:-1] for c in ids], axis=0)))
    return np.concatenate(parts)


def _run_head(row, texts, stamps):
    """A run's first row's slot id, auction id and stamp, interned (one string per id in
    ``texts``, one value per stamp text in ``stamps``), or a ValueError naming the row's
    first failed check; a stamp of the other kind than ``stamps[None]``'s fails."""
    if len(row) != len(LOG_HEADER):
        raise ValueError(f"expected {len(LOG_HEADER)} fields")
    slot, auction, text = map(str.strip, row[:3])
    if not (slot and auction):
        raise ValueError("empty slot or auction id")
    if text not in stamps:
        try:  # datetime.fromisoformat on 3.10 rejects a trailing Z
            stamp = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
        except ValueError:
            raise ValueError(f"bad timestamp {text!r}") from None
        naive = stamps.setdefault(None, stamp.tzinfo is None)  # naive: no tzinfo
        if (stamp.tzinfo is None) != naive:
            raise ValueError(f"timestamp {text!r} is {('naive', 'offset-aware')[naive]}, "
                             f"the first stamped row's is {('offset-aware', 'naive')[naive]}")
        stamps[text] = stamp
    return texts.setdefault(slot, slot), texts.setdefault(auction, auction), stamps[text]


def _parse_bids(texts, line, path):
    """The bids of consecutive lines from ``line`` on; the first bad one raises as ``path:line``."""
    with contextlib.suppress(ValueError):
        bids = np.fromiter(map(float, texts), float, len(texts))
        if (np.isfinite(bids) & (bids >= 0)).all():
            return bids
    for i, text in enumerate(texts):
        try:
            bid = float(text)
        except ValueError:
            raise ValueError(f"{path}:{line + i}: bad bid {text.strip()!r}") from None
        if not (np.isfinite(bid) and bid >= 0):
            raise ValueError(f"{path}:{line + i}: bid must be finite and non-negative")


def read_log_csv(path):
    """Read a :class:`BidLog` from ``path``, validating the header and every
    field; the first bad row is reported as ``path:line``. A run of rows
    with the same slot, auction and stamp fields is checked and interned
    once, and bids are converted ``_CHUNK`` lines at a time."""
    heads, starts, texts, stamps = ([], [], []), array("q"), {}, {"": None}
    chunks, pending, key, rows = [], [], None, 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != LOG_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(LOG_HEADER)}, got {header}")
        # a chunk holds consecutive lines' bids: a blank row ends it, and one more the file
        for lineno, row in enumerate(itertools.chain(reader, [[]]), 2):
            if not row or len(pending) == _CHUNK:
                chunks.append(_parse_bids(pending, lineno - len(pending), path))
                rows, pending = rows + len(pending), []
                if not row:
                    continue
            if row[:-1] != key:  # a new run or a malformed row
                try:
                    head = _run_head(row, texts, stamps)
                except ValueError as exc:
                    _parse_bids(pending, lineno - len(pending), path)  # an earlier bad bid wins
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                key = row[:-1]
                starts.append(rows + len(pending))
                for column, value in zip(heads, head):
                    column.append(value)
            pending.append(row[-1])
    del texts, stamps  # before the columns are built
    lengths = np.diff(np.frombuffer(starts, dtype=np.int64), append=rows)
    # each column is its run heads repeated, in an exact-size list
    columns = [np.repeat(np.array(column, dtype=object), lengths).tolist() for column in heads]
    return BidLog._adopt(*columns, np.concatenate(chunks))


def summarize_auctions(log, reserve=0.0):
    """Group a :class:`BidLog`'s rows into an :class:`AuctionTable`.

    An auction's timestamp is the earliest of its rows (the first row's of
    equal instants; None if no row carries one). Single-bid auctions pay
    the reserve. A log that mixes naive and offset-aware stamps is refused
    with a ValueError, as the two kinds do not compare.
    """
    runs = _runs(log)
    # each run's auction as its first run's index, so auctions ascend in first-seen order
    run_first = np.fromiter(map({}.setdefault, map(log.auction_id.__getitem__, runs),
                                itertools.count()), np.intp, len(runs))
    heads, run_auction = np.unique(run_first, return_inverse=True)
    heads = runs[heads]  # each auction's first row
    auction_id, slot_id = (np.fromiter(map(column.__getitem__, heads), object, len(heads))
                           for column in (log.auction_id, log.slot_id))
    lengths = np.diff(runs, append=len(log))
    xi = np.bincount(run_auction, lengths, len(heads)).astype(np.intp)
    offsets = np.concatenate([[0], np.cumsum(xi)])
    # rows by auction (numbered in the narrowest type), then descending bid
    narrow = run_auction.astype(np.min_scalar_type(len(heads)))
    bids = log.bid_cpm[np.lexsort((-log.bid_cpm, np.repeat(narrow, lengths)))]
    del run_first, narrow, lengths
    stamps = np.fromiter(map(log.timestamp.__getitem__, runs), object, len(runs))
    stamp = next(filter(None, stamps), None)  # naive stamps count as UTC
    aware = stamp is not None and stamp.utcoffset() is not None
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc if aware else None)
    try:  # microseconds since the epoch
        instant = np.fromiter((AuctionTable.UNSTAMPED if t is None else (t - epoch) // _US
                               for t in stamps), np.int64, len(stamps))
    except TypeError:  # a naive and an aware stamp do not subtract
        raise ValueError("the log mixes naive and offset-aware timestamps") from None
    # runs by auction, then instant: the stable sort keeps the first of equal
    # instants, and unstamped runs come last
    by_auction = np.lexsort((instant, run_auction))
    earliest = by_auction[np.flatnonzero(np.diff(run_auction[by_auction], prepend=-1))]
    timestamp, hour = stamps[earliest], instant[earliest]
    hour -= np.fromiter(((t.minute * 60 + t.second) * 1_000_000 + t.microsecond if t else 0
                         for t in timestamp), np.int64, len(timestamp))
    return AuctionTable(
        auction_id, slot_id, timestamp, hour, xi, bids[offsets[:-1]],
        np.where(xi > 1, bids[np.minimum(offsets[:-1] + 1, len(log) - 1)], float(reserve)),
        bids, offsets)
