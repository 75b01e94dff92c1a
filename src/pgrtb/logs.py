"""Auction bid logs in columns, their CSV round trip, and per-auction summaries.

A log is one row per bid: ``slot_id, auction_id, timestamp, bid_cpm``, held
as four columns by :class:`BidLog`. Grouping rows by ``auction_id`` yields an
:class:`AuctionTable`: per-auction columns with the observed competition
(number of bids), the winning bid, and the second-price payment.
"""

from __future__ import annotations

import csv
import itertools
import re
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
_READ_CHUNK = 4096  # rows parsed per pass, which bounds the reader's memory
_WRITE_CHUNK = 2048  # rows joined per write
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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LOG_HEADER) + "\r\n")
        for lo in range(0, len(log), _WRITE_CHUNK):
            hi = min(lo + _WRITE_CHUNK, len(log))
            # rows of one auction share a prefix: a run of them ends where the
            # slot or auction id or the stamp changes, the stamp matched by
            # identity, as equal instants at other offsets print otherwise
            stamp_ids = np.fromiter(map(id, log.timestamp[lo:hi]), dtype=np.int64, count=hi - lo)
            slots = np.array(log.slot_id[lo:hi], dtype=object)
            auctions = np.array(log.auction_id[lo:hi], dtype=object)
            changed = ((stamp_ids[1:] != stamp_ids[:-1]) | (slots[1:] != slots[:-1])
                       | (auctions[1:] != auctions[:-1]))
            ends = np.append(np.flatnonzero(np.append(True, changed)), hi - lo).tolist()
            bids = list(map(repr, log.bid_cpm[lo:hi].tolist()))
            text = []
            for start, end in zip(ends[:-1], ends[1:]):
                ts = log.timestamp[lo + start]
                stamp = "" if ts is None else _csv_field(ts.isoformat())
                prefix = f"{_csv_field(slots[start])},{_csv_field(auctions[start])},{stamp},"
                text += (prefix, ("\r\n" + prefix).join(bids[start:end]), "\r\n")
            fh.write("".join(text))


def _parse_rows(rows, texts, stamps):
    """The columns of non-blank CSV rows, or a ValueError naming the first
    failed check (the row's problem when given one row). ``texts`` and
    ``stamps`` keep one string per id and one value per timestamp text;
    ``stamps[None]`` records whether the first stamped row's stamp is naive,
    and a stamp of the other kind fails."""
    if set(map(len, rows)) - {len(LOG_HEADER)}:
        raise ValueError(f"expected {len(LOG_HEADER)} fields")
    slots, auctions, ts_texts, bid_texts = (
        (list(map(str.strip, column)) for column in zip(*rows)) if rows else ([],) * 4)
    if "" in slots or "" in auctions:
        raise ValueError("empty slot or auction id")
    new = set(ts_texts).difference(stamps)
    for text in new:
        try:  # datetime.fromisoformat on 3.10 rejects a trailing Z
            stamps[text] = datetime.fromisoformat(
                text[:-1] + "+00:00" if text.endswith("Z") else text)
        except ValueError:
            raise ValueError(f"bad timestamp {text!r}") from None
    if new:  # a parsed stamp is naive exactly when it has no tzinfo
        naive = stamps.setdefault(None, stamps[next(filter(None, ts_texts))].tzinfo is None)
        for text in new:
            if (stamps[text].tzinfo is None) != naive:
                raise ValueError(f"timestamp {text!r} is {('naive', 'offset-aware')[naive]}, "
                                 f"the first stamped row's is {('offset-aware', 'naive')[naive]}")
    try:
        bids = np.array(list(map(float, bid_texts)))
    except ValueError:  # names the bid of a row parsed on its own
        raise ValueError(f"bad bid {bid_texts[0]!r}") from None
    if not (np.isfinite(bids) & (bids >= 0)).all():
        raise ValueError("bid must be finite and non-negative")
    return (list(map(texts.setdefault, slots, slots)),
            list(map(texts.setdefault, auctions, auctions)),
            list(map(stamps.__getitem__, ts_texts)), bids)


def read_log_csv(path):
    """Read a :class:`BidLog` from ``path``, validating the header and every
    field; the first bad row is reported as ``path:line``."""
    columns, bids, texts, stamps = ([], [], []), [np.empty(0)], {}, {"": None}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != LOG_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(LOG_HEADER)}, got {header}")
        lineno = 2
        while chunk := list(itertools.islice(reader, _READ_CHUNK)):
            try:  # blank rows are skipped
                *parsed, chunk_bids = _parse_rows([row for row in chunk if row], texts, stamps)
            except ValueError:
                # the first bad row wins; the stamp kind carries from row to row
                seen = {"": None, **({None: stamps[None]} if None in stamps else {})}
                for i, row in enumerate(chunk):
                    try:
                        _parse_rows([row] if row else [], {}, seen)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno + i}: {exc}") from None
                raise
            for column, part in zip(columns, parsed):
                column.extend(part)
            bids.append(chunk_bids)
            lineno += len(chunk)
    return BidLog(*columns, np.concatenate(bids))


def _rank_groups(codes, bids):
    """Rows ordered by ascending (non-negative) code, then descending bid
    (ties in row order), and the position in that order where each code's
    run starts."""
    order = np.lexsort((-bids, codes))
    return order, np.flatnonzero(np.diff(codes[order], prepend=-1))


def _instants(stamps):
    """Each row's stamp as microseconds since the epoch (naive stamps count
    as UTC; ``UNSTAMPED`` for None), converting each run of rows that share
    a stamp object once. Naive and aware stamps together raise a ValueError."""
    ids = np.fromiter(map(id, stamps), dtype=np.int64, count=len(stamps))
    runs = np.flatnonzero(np.diff(ids, prepend=~ids[:1]))
    instant, stamped = np.full(len(runs), AuctionTable.UNSTAMPED), ids[runs] != id(None)
    heads = [stamps[i] for i in runs[stamped].tolist()]
    aware = bool(heads) and heads[0].utcoffset() is not None
    epoch, us = datetime(1970, 1, 1, tzinfo=timezone.utc if aware else None), timedelta(0, 0, 1)
    try:
        instant[stamped] = [(t - epoch) // us for t in heads]
    except TypeError:  # a naive and an aware stamp do not subtract
        raise ValueError("the log mixes naive and offset-aware timestamps") from None
    return np.repeat(instant, np.diff(np.append(runs, len(stamps))))


def summarize_auctions(log, reserve=0.0):
    """Group a :class:`BidLog`'s rows into an :class:`AuctionTable`.

    An auction's timestamp is the earliest of its rows (the first row's of
    equal instants; None if no row carries one). Single-bid auctions pay
    the reserve. A log that mixes naive and offset-aware stamps is refused
    with a ValueError, as the two kinds do not compare.
    """
    first = {}  # an auction's code is its first row, so codes ascend in first-seen order
    codes = np.fromiter(map(first.setdefault, log.auction_id, itertools.count()),
                        dtype=np.intp, count=len(log))
    order, starts = _rank_groups(codes, log.bid_cpm)
    bids, offsets, heads = log.bid_cpm[order], np.append(starts, len(log)), codes[order[starts]]
    instant = _instants(log.timestamp)
    # rows by auction, then instant: the stable sort keeps the first of equal
    # instants, and unstamped rows come last
    earliest = np.lexsort((instant, codes))[starts]
    timestamp = np.fromiter(map(log.timestamp.__getitem__, earliest.tolist()), object, len(starts))
    hour = instant[earliest]
    stamped = hour != AuctionTable.UNSTAMPED
    hour[stamped] -= np.array([(t.minute * 60 + t.second) * 1_000_000 + t.microsecond
                               for t in timestamp[stamped]], dtype=np.int64)
    xi = np.diff(offsets)
    return AuctionTable(
        np.array(log.auction_id, dtype=object)[heads], np.array(log.slot_id, dtype=object)[heads],
        timestamp, hour, xi, bids[starts],
        np.where(xi > 1, bids[np.minimum(starts + 1, len(log) - 1)], float(reserve)), bids, offsets)
