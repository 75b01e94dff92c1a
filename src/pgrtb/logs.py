"""Auction bid logs in columns, their CSV round trip, and per-auction summaries.

A log is one row per bid: ``slot_id, auction_id, timestamp, bid_cpm``, held
as four columns by :class:`BidLog`. Grouping rows by ``auction_id`` yields
per-auction summaries with the observed competition (number of bids), the
winning bid, and the second-price payment.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from datetime import datetime

import numpy as np

__all__ = [
    "LOG_HEADER",
    "AuctionSummary",
    "BidLog",
    "read_log_csv",
    "write_log_csv",
    "summarize_auctions",
]

LOG_HEADER = ("slot_id", "auction_id", "timestamp", "bid_cpm")
_READ_CHUNK = 4096  # rows parsed per pass, which bounds the reader's memory


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


@dataclass
class AuctionSummary:
    """One auction: its bids (descending) and derived second-price facts."""

    auction_id: str
    slot_id: str
    timestamp: datetime | None
    bids: np.ndarray
    xi_observed: int
    winning_bid: float
    payment: float


def _csv_field(value):
    """``value`` as the csv module's default dialect writes it."""
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_log_csv(log, path):
    """Write a :class:`BidLog` to ``path``; a None timestamp becomes an empty field."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LOG_HEADER) + "\r\n")
        key = (None, None, None)
        for slot, auction, ts, bid in zip(log.slot_id, log.auction_id, log.timestamp,
                                          map(repr, log.bid_cpm.tolist())):
            # rows of one auction share a prefix; the stamp is matched by
            # identity, as equal instants at other offsets print otherwise
            if ts is not key[2] or auction != key[1] or slot != key[0]:
                key = (slot, auction, ts)
                text = "" if ts is None else ts.isoformat()
                prefix = ",".join(map(_csv_field, (slot, auction, text))) + ","
            fh.write(prefix + bid + "\r\n")


def _parse_rows(rows, texts, stamps):
    """The columns of non-blank CSV rows, or a ValueError naming the first
    failed check (the row's problem when given one row). ``texts`` and
    ``stamps`` keep one string per id and one value per timestamp text."""
    if set(map(len, rows)) - {len(LOG_HEADER)}:
        raise ValueError(f"expected {len(LOG_HEADER)} fields")
    slots, auctions, ts_texts, bid_texts = (
        (list(map(str.strip, column)) for column in zip(*rows)) if rows else ([],) * 4)
    if "" in slots or "" in auctions:
        raise ValueError("empty slot or auction id")
    for text in set(ts_texts).difference(stamps):
        try:  # datetime.fromisoformat on 3.10 rejects a trailing Z
            stamps[text] = datetime.fromisoformat(
                text[:-1] + "+00:00" if text.endswith("Z") else text)
        except ValueError:
            raise ValueError(f"bad timestamp {text!r}") from None
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
                for i, row in enumerate(chunk):  # the first bad row wins
                    try:
                        _parse_rows([row] if row else [], {}, {"": None})
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


def summarize_auctions(log, reserve=0.0):
    """Group a :class:`BidLog`'s rows into per-auction summaries, in first-seen order.

    An auction's timestamp is the earliest of its rows (None if none carry
    one). Single-bid auctions pay the reserve.
    """
    first = {}  # an auction's code is its first row, so codes ascend in first-seen order
    codes = np.fromiter(map(first.setdefault, log.auction_id, itertools.count()),
                        dtype=np.intp, count=len(log))
    order, starts = _rank_groups(codes, log.bid_cpm)
    ranked_bids = log.bid_cpm[order]
    # stamps in row order within each auction: ``min`` keeps the first of equal instants
    stamps = np.array(log.timestamp, dtype=object)[np.argsort(codes, kind="stable")]
    summaries = []
    for lo, hi, code in zip(starts.tolist(), np.append(starts[1:], len(log)).tolist(),
                            codes[order[starts]].tolist()):
        bids = ranked_bids[lo:hi]
        stamped = [t for t in stamps[lo:hi] if t is not None]
        summaries.append(AuctionSummary(
            log.auction_id[code], log.slot_id[code], min(stamped) if stamped else None,
            bids, hi - lo, float(bids[0]), float(bids[1]) if hi > lo + 1 else float(reserve)))
    return summaries
