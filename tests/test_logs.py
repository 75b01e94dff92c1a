"""Bid-log CSV round trips and per-auction summaries."""

import contextlib
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pgrtb import logs
from pgrtb.logs import (
    AuctionTable,
    BidLog,
    read_log_csv,
    summarize_auctions,
    write_log_csv,
)

from oracles import isoformat_log_bytes

UTC = timezone.utc
PLUS1 = timezone(timedelta(hours=1))
IST = timezone(timedelta(hours=5, minutes=30))


def _runs(log):
    """A log's runs: first rows, ids, stamps as their two numbers, and which runs
    share each id's object."""
    shared = [[next(j for j, y in enumerate(column) if y is x) for x in column]
              for column in (log._slots, log._auctions)]
    return (log._starts.tolist(), log._slots, log._auctions, log._instant.tolist(),
            log._offset.tolist(), shared)


def read_both_paths(path):
    """``read_log_csv`` on the path it picks and on the csv module's path, which
    must give equal logs with the same runs, or the same error."""
    results = []
    for force_csv in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if force_csv:
                mp.setattr(logs, "_has_quotes", lambda _: True)
            try:
                results.append(logs.read_log_csv(path))
            except ValueError as exc:
                results.append(exc)
    picked, by_csv = results
    if isinstance(picked, ValueError):
        assert isinstance(by_csv, ValueError) and str(by_csv) == str(picked)
        raise picked
    assert picked == by_csv and _runs(picked) == _runs(by_csv)
    return picked


@pytest.fixture(autouse=True)
def both_reader_paths(monkeypatch):
    """Every read in this module runs on both reader paths."""
    monkeypatch.setitem(globals(), "read_log_csv", read_both_paths)


def rows_log(rows):
    """A BidLog from ``(slot_id, auction_id, timestamp, bid)`` rows."""
    return BidLog(*zip(*rows)) if rows else BidLog([], [], [], [])


def test_round_trip_preserves_everything(tmp_path):
    ts = datetime(2024, 5, 1, 14, 30, 15, tzinfo=UTC)
    log = rows_log([
        ("slot-a", "x1", ts, 0.1 + 0.2),  # a float with ugly repr
        ("slot-a", "x1", None, 1.25),
        ("slot-b", "x2", ts, 0.0),
    ])
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    back = read_log_csv(path)
    assert back == log  # column equality, floats exact via repr round trip


def test_per_row_views_give_back_the_objects_passed_in():
    slot, auctions = "slot-a", ["x1", "x2"]
    stamps = [datetime(2024, 5, 1, 10, tzinfo=UTC), None]
    log = BidLog([slot] * 3, [auctions[0], auctions[0], auctions[1]],
                 [stamps[0], stamps[0], stamps[1]], [0.5, 0.25, 1.0])
    assert all(v is slot for v in log.slot_id)
    assert [a is b for a, b in zip(log.auction_id, [auctions[0], auctions[0], auctions[1]])] \
        == [True] * 3
    assert log.timestamp == [stamps[0], stamps[0], None]
    assert log.timestamp[0].utcoffset() == timedelta(0)
    with pytest.raises(AttributeError):
        log.slot_id = ["other"] * 3


def test_logs_compare_by_rows_whatever_their_runs():
    """Equal ids that are distinct objects split a run; the rows compare equal."""
    one, other = "auction-7", "".join(["auction", "-7"])
    assert one == other and one is not other
    merged = BidLog(["s"] * 3, [one] * 3, [None] * 3, [0.1, 0.2, 0.3])
    split = BidLog(["s"] * 3, [one, other, other], [None] * 3, [0.1, 0.2, 0.3])
    assert len(merged._starts) == 1 and len(split._starts) == 2
    assert merged == split and split == merged
    assert merged != BidLog(["s"] * 3, [one] * 3, [None] * 3, [0.1, 0.2, 0.4])
    assert merged != BidLog(["s"] * 3, [one, one, "b"], [None] * 3, [0.1, 0.2, 0.3])


def test_reader_keeps_a_run_whose_fields_differ_only_in_spaces(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n"
                    "s,a,2024-05-01T10:00:00,0.5\n"
                    " s , a ,2024-05-01T10:00:00 ,0.4\n"
                    "s,b,2024-05-01T10:00:00,0.3\n")
    log = read_log_csv(path)
    assert log._starts.tolist() == [0, 2]
    assert log._instant.tolist() == [log._instant[0]] * 2  # the previous run's stamp, read once


def test_reader_holds_an_interleaved_auctions_id_and_stamp_once(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n"
                    "s,a,2024-05-01T10:00:00+00:00,0.5\n"
                    "s,b,2024-05-01T10:00:00+00:00,0.4\n"
                    "s,a,2024-05-01T10:00:00Z,0.3\n"
                    "s,b,2024-05-01T10:00:00+00:00,0.2\n"
                    "s,a,2024-05-01T11:00:00+01:00,0.1\n")
    log = read_log_csv(path)
    assert len(log._starts) == 5
    slots, auctions, stamps = log.slot_id, log.auction_id, log.timestamp
    assert all(s is slots[0] for s in slots)
    assert auctions[2] is auctions[0] and auctions[3] is auctions[1]
    # one stamp's numbers for the first four runs, whatever its text
    assert len({*zip(log._instant[:4].tolist(), log._offset[:4].tolist())}) == 1
    # an equal instant at another offset keeps its own stamp, and prints as read
    assert stamps[4] == stamps[2] and stamps[4].utcoffset() == timedelta(hours=1)
    again = tmp_path / "again.csv"
    write_log_csv(log, again)
    assert again.read_text().splitlines()[-1] == "s,a,2024-05-01T11:00:00+01:00,0.1"


def test_runs_are_checked_where_a_log_adopts_them():
    bids = np.array([0.5, 0.4, 0.3])
    none = np.array([AuctionTable.UNSTAMPED] * 2), np.array([logs._NAIVE] * 2)
    log = BidLog._of_runs(np.array([0, 2]), ["s", "s"], ["a", "b"], *none, bids)
    assert log == rows_log([("s", "a", None, 0.5), ("s", "a", None, 0.4),
                            ("s", "b", None, 0.3)])
    assert log.count_auctions() == 2
    empty = np.array([], dtype=np.int64)
    assert BidLog._of_runs(empty, [], [], empty, empty, np.array([])) \
        == rows_log([])
    for starts, auctions in [([0, 2], ["a"]), ([1, 2], ["a", "b"]), ([0, 3], ["a", "b"]),
                             ([0, 2, 2], ["a", "b", "c"]), ([], [])]:
        k = len(starts)
        with pytest.raises(ValueError, match="runs must"):
            BidLog._of_runs(np.array(starts, dtype=np.int64), ["s"] * k, auctions,
                            none[0][:k], none[1][:k], bids)


@pytest.mark.parametrize("text", [
    # an auction's rows that are not consecutive
    "s,a,,0.5\r\ns,b,,0.4\r\ns,a,,0.3\r\ns,b,,0.2\r\n",
    # stamps that differ inside an auction
    "s,a,2024-05-01T10:00:00+00:00,0.5\r\ns,a,2024-05-01T10:05:00+00:00,0.4\r\n"
    "s,a,2024-05-01T10:05:00+00:00,0.3\r\n",
    # equal instants at two offsets, in one auction and across two
    "s,a,2024-05-01T12:00:00+00:00,0.5\r\ns,a,2024-05-01T13:00:00+01:00,0.4\r\n"
    "s,b,2024-05-01T13:00:00+01:00,0.3\r\ns,b,2024-05-01T12:00:00+00:00,0.2\r\n",
    # unstamped rows between stamped ones
    "s,a,,0.5\r\ns,a,2024-05-01T10:00:00,0.4\r\ns,a,,0.3\r\nt,a,,0.2\r\n",
])
def test_read_then_write_gives_the_same_bytes(tmp_path, text):
    path, again = tmp_path / "log.csv", tmp_path / "again.csv"
    path.write_bytes(("slot_id,auction_id,timestamp,bid_cpm\r\n" + text).encode())
    write_log_csv(read_log_csv(path), again)
    assert again.read_bytes() == path.read_bytes()


_ID_CHARS = st.sampled_from('ab7-_.,"\r\n ')
_IDS = st.builds(lambda head, body, tail: head + body + tail,
                 st.sampled_from("sx"), st.text(_ID_CHARS, max_size=6),
                 st.sampled_from('1,"'))
_STAMPS = st.none() | st.builds(
    lambda minutes, zone: datetime(2024, 5, 1, 12, tzinfo=UTC).astimezone(zone)
    + timedelta(minutes=minutes),
    st.integers(0, 600), st.sampled_from([UTC, PLUS1, timezone(-timedelta(hours=5.5))]))
_AUCTIONS = st.lists(st.tuples(_IDS, _IDS, _STAMPS, st.lists(
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False), min_size=1,
    max_size=4)), max_size=8)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(auctions=_AUCTIONS)
def test_round_trip_property(tmp_path, auctions):
    """Any ids (commas, quotes, line breaks inside), stamps at any offset
    and bids: the bytes are the csv module's, and reading gives the log back
    with each stamp's own offset."""
    rows = [(slot, auction, ts, bid) for slot, auction, ts, bids in auctions
            for bid in bids]
    log = rows_log(rows)
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    assert path.read_bytes() == isoformat_log_bytes(rows)
    back = read_log_csv(path)
    assert back == log
    assert [None if t is None else t.isoformat() for t in back.timestamp] == \
        [None if t is None else t.isoformat() for t in log.timestamp]


_US = timedelta(microseconds=1)
# fixed offsets of whole minutes, and with seconds or microseconds, within a day
_OFFSETS = st.builds(lambda minutes, seconds, us: timezone(timedelta(
    minutes=minutes, seconds=seconds, microseconds=us)), st.integers(-1439, 1439),
    st.sampled_from([0, 0, 15, -59]), st.sampled_from([0, 0, 1, 999_999]))


def _exact_stamps(zones):
    """None, or any stamp of years 1-9999 at ``zones`` (st.none(): naive), with
    and without microseconds."""
    stamps = st.datetimes(timezones=zones)
    return st.none() | stamps | stamps.map(lambda t: t.replace(microsecond=0))


def _stamp_numbers(stamp):
    """A stamp's instant and offset in microseconds as a log stores them."""
    if stamp is None:
        return AuctionTable.UNSTAMPED, logs._NAIVE
    if stamp.tzinfo is None:
        return (stamp - datetime(1970, 1, 1)) // _US, logs._NAIVE
    return (stamp - datetime(1970, 1, 1, tzinfo=UTC)) // _US, stamp.utcoffset() // _US


def _row_numbers(log):
    """A log's stamps per row, as ``(instant, offset)`` pairs."""
    lengths = np.diff(log._starts, append=len(log))
    return list(zip(np.repeat(log._instant, lengths).tolist(),
                    np.repeat(log._offset, lengths).tolist()))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stamps=st.lists(_exact_stamps(st.none()), max_size=12)
       | st.lists(_exact_stamps(_OFFSETS), max_size=12), chunk=st.sampled_from([1, 3, 256]))
@example(chunk=256, stamps=[
    datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=23, minutes=59))),
    datetime(1969, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone(-timedelta(seconds=1, microseconds=1))),
    None, datetime(9999, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone(-timedelta(hours=23)))])
@example(chunk=3, stamps=[
    datetime(1, 1, 1), datetime(1969, 12, 31, 23, 59, 59, 1), None, datetime(1970, 1, 1),
    datetime(9999, 12, 31, 23, 59, 59, 999_999)])
def test_stamps_print_and_read_back_exactly(tmp_path, stamps, chunk):
    """Random stamps, naive or at offsets with seconds or microseconds, before
    1970, with and without microseconds, and None: ``timestamp`` gives back
    values equal to them at their offsets, the written bytes are those of the
    ``isoformat`` oracle, and a read gives back their numbers."""
    rows = [("s", f"a{i // 3}", t, 0.5) for i, t in enumerate(stamps)]
    log = rows_log(rows)
    assert log.timestamp == stamps
    assert [t and (t.isoformat(), t.utcoffset()) for t in log.timestamp] == \
        [t and (t.isoformat(), t.utcoffset()) for t in stamps]
    assert _row_numbers(log) == list(map(_stamp_numbers, stamps))
    path = tmp_path / "log.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logs, "_CHUNK", chunk)
        write_log_csv(log, path)
        assert path.read_bytes() == isoformat_log_bytes(rows)
        assert _row_numbers(read_log_csv(path)) == _row_numbers(log)


_SLOTS = st.sampled_from(["s", " s", "t"])
_AUCTION_IDS = st.sampled_from(["a", "b", " a ", "c-1"])
_STAMP_TEXTS = st.sampled_from(["", "2024-05-01T10:00:00+00:00", "2024-05-01T10:00:00Z",
                                "2024-05-01T11:00:00+01:00", "2024-05-01T10:00:00 "])
_BID_TEXTS = st.sampled_from(["0.5", " 0.25", "1e3", "0.1 ", "7"])
_GOOD_ROWS = st.builds(lambda *fields: ",".join(fields), _SLOTS, _AUCTION_IDS, _STAMP_TEXTS,
                       _BID_TEXTS)
_ODD_ROWS = st.sampled_from(["", "  ", "s,a,,abc", "s,a,,-1", "s,,,0.5", "s,a,0.5",
                             "s,a,,0.5,x", "s,a,2024-05-01T10:00:00,0.5", "s,a,noon,0.5",
                             "s,a,,nan", "junk"])


@given(rows=st.lists(_GOOD_ROWS | _ODD_ROWS, max_size=40),
       ending=st.sampled_from(["\n", "\r\n", "\r"]), chunk=st.sampled_from([2, 3, 256]))
@example(rows=["s,a,,0.5", "", "s,a,,0.4", "", "", "s,b,,0.3", "s,a,,0.2"], ending="\n",
         chunk=256)
@example(rows=["s,y,2024-05-01T10:00:00Z,0.5", "s,w,2024-05-01T11:00:00Z,0.4",
               "s,y,2024-05-01T10:00:00Z,0.3", "s,x,2024-05-01T10:00:00+00:00,0.2", "",
               "s,x,2024-05-01T10:00:00+00:00,0.1"], ending="\r\n", chunk=256)
def test_both_reader_paths_give_equal_logs(tmp_path_factory, rows, ending, chunk):
    """Unquoted logs with blank lines, spaces, stamps at several offsets,
    interleaved auctions and bad rows, read in chunks of a few lines too:
    the line path gives the csv module's path's log, with the same runs and
    shared objects, or its error."""
    path = tmp_path_factory.mktemp("both") / "log.csv"
    path.write_text(ending.join(["slot_id,auction_id,timestamp,bid_cpm", *rows]) + ending,
                    newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logs, "_CHUNK", chunk)
        with contextlib.suppress(ValueError):
            read_both_paths(path)


def test_a_blank_line_does_not_end_a_run(tmp_path):
    """The row after a blank line continues its run: a blank line is no row."""
    path = tmp_path / "log.csv"
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n"
                    "s,y,2024-05-01T10:00:00Z,0.5\n"
                    "s,w,2024-05-01T11:00:00Z,0.4\n"
                    "s,y,2024-05-01T10:00:00Z,0.3\n"
                    "s,x,2024-05-01T10:00:00+00:00,0.2\n"
                    "\n"
                    "s,x,2024-05-01T10:00:00+00:00,0.1\n")
    log = read_log_csv(path)
    assert log._starts.tolist() == [0, 1, 2, 3]
    assert log.timestamp[4] == log.timestamp[3] == log.timestamp[2]


def test_round_trip_ids_with_commas_and_quotes(tmp_path):
    log = rows_log([
        ("slot,a", 'auction "1"', None, 0.5),
        ("slot,a", 'auction "1"', None, 0.25),
        ('"quoted"', "a,b,c", None, 1.0),
    ])
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    assert path.read_bytes().splitlines()[1] == b'"slot,a","auction ""1""",,0.5'
    assert read_log_csv(path) == log


def test_equal_instants_keep_their_offsets(tmp_path):
    utc_noon = datetime(2024, 5, 1, 12, tzinfo=UTC)
    plus1_one = datetime(2024, 5, 1, 13, tzinfo=PLUS1)
    assert utc_noon == plus1_one
    log = rows_log([
        ("s", "a", utc_noon, 0.4),   # one auction, both offsets
        ("s", "a", plus1_one, 0.5),
        ("s", "b", plus1_one, 0.3),  # across auctions
        ("s", "c", utc_noon, 0.2),
        ("s", "c", utc_noon, 0.1),
    ])
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    stamps = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert stamps == ["2024-05-01T12:00:00+00:00", "2024-05-01T13:00:00+01:00",
                      "2024-05-01T13:00:00+01:00", "2024-05-01T12:00:00+00:00",
                      "2024-05-01T12:00:00+00:00"]
    back = read_log_csv(path)
    assert [t.utcoffset() for t in back.timestamp] == \
        [timedelta(0), timedelta(hours=1), timedelta(hours=1), timedelta(0), timedelta(0)]
    # of equal earliest instants an auction keeps its first row's, not the
    # highest bid's: at +05:30 its hour starts half an hour off UTC's
    ist = [datetime(2024, 5, 1, 17, 30, tzinfo=IST), datetime(2024, 5, 1, 12, tzinfo=UTC)]
    table = summarize_auctions(rows_log([("s", "a", ist[0], 0.4), ("s", "a", ist[1], 0.5),
                                         ("s", "b", ist[1], 0.4), ("s", "b", ist[0], 0.5)]))
    assert table.hour.tolist() == [_hour_key(ist[0]), _hour_key(ist[1])]
    assert _hour_key(ist[0]) == _hour_key(ist[1]) - 30 * 60 * 10**6


def test_read_accepts_zulu_timestamps(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "slot_id,auction_id,timestamp,bid_cpm\n"
        "s,a1,2024-05-01T00:00:00Z,0.5\n")
    assert read_log_csv(path).timestamp[0] == datetime(2024, 5, 1, tzinfo=UTC)


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("slot,auction,when,bid\ns,a,,0.5\n")
    with pytest.raises(ValueError, match="expected header"):
        read_log_csv(path)


@pytest.mark.parametrize("row,fragment", [
    ("s,a1,not-a-date,0.5", "timestamp"),
    ("s,a1,,abc", "bad bid"),
    ("s,a1,,-0.5", "non-negative"),
    ("s,a1,,inf", "finite"),
    (",a1,,0.5", "empty slot"),
    ("s,a1,0.5", "fields"),
])
def test_read_rejects_bad_rows(tmp_path, row, fragment):
    path = tmp_path / "log.csv"
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n" + row + "\n")
    with pytest.raises(ValueError, match=fragment):
        read_log_csv(path)


# Each bad row with the exact message a row-by-row reader gives it.
BAD_ROWS = [
    ("s,a1,not-a-date,0.5", "bad timestamp 'not-a-date'"),
    ("s,a1,,abc", "bad bid 'abc'"),
    ("s,a1,,-0.5", "bid must be finite and non-negative"),
    ("s,a1,,nan", "bid must be finite and non-negative"),
    (" ,a1,,0.5", "empty slot or auction id"),
    ("s,a1,0.5", "expected 4 fields"),
    ("s,a1,,0.5,extra", "expected 4 fields"),
    ("  ", "expected 4 fields"),
]


def _log_with_bad_rows(path, bad):
    """Good rows with ``bad``, a list of ``(offset, row)``, placed from row
    ``n_good`` on. A blank row ends the second read chunk early, so the third
    holds the bad rows and is parsed when it fills up, not at the end of the
    file. Returns the line of each bad row."""
    n_good, blank = 2 * logs._CHUNK + 37, logs._CHUNK + 99
    lines = ["" if i == blank else
             f"s,a{i // 5},2024-05-01T{i % 24:02d}:00:00+00:00,0.{i}"
             for i in range(blank + 1 + logs._CHUNK + 40)]
    for offset, row in bad:
        lines[n_good + offset] = row
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n" + "\n".join(lines) + "\n")
    return [n_good + offset + 2 for offset, _ in bad]  # the header is line 1


@pytest.mark.parametrize("row,message", BAD_ROWS)
def test_bad_row_after_chunks_reports_its_line(tmp_path, row, message):
    path = tmp_path / "log.csv"
    (line,) = _log_with_bad_rows(path, [(3, row)])
    with pytest.raises(ValueError) as err:
        read_log_csv(path)
    assert str(err.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("first,second", [(1, 5), (5, 1), (0, 7), (7, 2)])
def test_first_of_two_bad_rows_wins(tmp_path, first, second):
    """Whatever kinds the two rows are, the earlier one is reported."""
    path = tmp_path / "log.csv"
    line, _ = _log_with_bad_rows(path, [(2, BAD_ROWS[first][0]),
                                        (9, BAD_ROWS[second][0])])
    with pytest.raises(ValueError) as err:
        read_log_csv(path)
    assert str(err.value) == f"{path}:{line}: {BAD_ROWS[first][1]}"


def test_bids_are_read_as_float_reads_them(tmp_path):
    """The reader converts a chunk's bid texts at once; each gives the bits
    ``float`` gives it: signs, underscores, bare points, spaces, exponents,
    subnormals and the largest double."""
    texts = [" 1_0 ", "+.5", "5.", "1e3", "0.1000000000000000055511151231257827",
             "4.9e-324", "1.7976931348623157e308", "0", "00.25"]
    path = tmp_path / "log.csv"
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n"
                    + "".join(f"s,a,,{t}\n" for t in texts))
    assert read_log_csv(path).bid_cpm.tolist() == [float(t) for t in texts]


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n\ns,a1,,0.5\n\n")
    assert len(read_log_csv(path)) == 1


def test_summarize_auctions():
    t1 = datetime(2024, 5, 1, 10, tzinfo=UTC)
    t2 = datetime(2024, 5, 1, 11, tzinfo=UTC)
    log = rows_log([
        ("s", "big", t2, 0.4),
        ("s", "big", t1, 0.9),
        ("s", "big", None, 0.7),
        ("s", "solo", t1, 0.3),
    ])
    table = summarize_auctions(log)
    # first-seen order: "big", then "solo"
    np.testing.assert_array_equal(table.bids, [0.9, 0.7, 0.4, 0.3])
    np.testing.assert_array_equal(table.offsets, [0, 3, 4])
    np.testing.assert_array_equal(table.xi_observed, [3, 1])
    np.testing.assert_array_equal(table.winning_bid, [0.9, 0.3])
    assert (table.xi_observed.dtype, table.winning_bid.dtype) == (np.intp, np.float64)
    assert table.hour.tolist() == [_hour_key(t1)] * 2  # earliest stamped row
    assert len(summarize_auctions(rows_log([]))) == 0


def test_summarize_without_timestamps():
    log = rows_log([("s", "a", None, 0.2), ("s", "a", None, 0.8)])
    table = summarize_auctions(log)
    assert table.hour.tolist() == [table.UNSTAMPED]
    assert table.bids.tolist() == [0.8, 0.2]


def test_take_keeps_the_order_asked_for():
    """An index array picks auctions in its order, a mask in the table's,
    and each auction keeps its bids and its other columns."""
    t1 = datetime(2024, 5, 1, 10, 20, tzinfo=UTC)
    table = summarize_auctions(rows_log([
        ("s", "a", None, 0.5), ("s", "b", t1, 0.2), ("s", "a", None, 0.9),
        ("s", "c", t1, 0.7), ("s", "b", t1, 0.4), ("s", "b", t1, 0.3)]))
    picked = table.take([2, 0])  # "c", then "a"
    np.testing.assert_array_equal(picked.bids, [0.7, 0.9, 0.5])
    np.testing.assert_array_equal(picked.offsets, [0, 1, 3])
    np.testing.assert_array_equal(picked.xi_observed, [1, 2])
    np.testing.assert_array_equal(picked.winning_bid, [0.7, 0.9])
    assert picked.hour.tolist() == [_hour_key(t1), table.UNSTAMPED]
    masked = table.take(table.xi_observed >= 2)  # "a", then "b"
    np.testing.assert_array_equal(masked.bids, [0.9, 0.5, 0.4, 0.3, 0.2])
    np.testing.assert_array_equal(masked.bids[masked.offsets[:-1] + 1], [0.5, 0.3])
    assert masked.hour.tolist() == [table.UNSTAMPED, table.hour[1]]
    assert len(table.take([])) == 0


def test_hour_keys_follow_each_stamps_own_clock():
    """An auction's hour is its earliest stamp's wall-clock hour in that
    stamp's offset; of equal instants the first row's offset decides."""
    half = timezone(timedelta(minutes=30))
    t = datetime(2024, 5, 1, 10, 10, tzinfo=UTC)
    table = summarize_auctions(rows_log([
        ("s", "a", t, 0.1), ("s", "a", t.astimezone(half), 0.2),
        ("s", "b", t.astimezone(half), 0.1), ("s", "b", t, 0.2)]))
    hours = [t.replace(minute=0), t.astimezone(half).replace(minute=0)]
    epoch = datetime(1970, 1, 1, tzinfo=UTC)
    assert table.hour.tolist() == [(h - epoch) // timedelta(microseconds=1) for h in hours]
    naive = summarize_auctions(rows_log([("s", "a", datetime(1970, 1, 1, 2, 59), 0.1)]))
    assert naive.hour.tolist() == [2 * 3600 * 10**6]


def test_mixed_stamp_kinds_are_refused(tmp_path):
    """Naive and offset-aware stamps do not compare: the reader names the
    first row whose kind differs from the first stamped row's, and an
    in-memory log that mixes them is refused before any comparison."""
    path = tmp_path / "log.csv"
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n"
                    "s,a1,,0.5\n"
                    "s,a1,2024-05-01T10:00:00,0.4\n"
                    "s,a2,2024-05-01T10:00:00,0.3\n"
                    "\n"
                    "s,a2,2024-05-01T11:00:00Z,0.2\n"
                    "s,a3,2024-05-01T09:00:00,0.2\n")
    with pytest.raises(ValueError) as err:
        read_log_csv(path)
    assert str(err.value) == (f"{path}:6: timestamp '2024-05-01T11:00:00Z' is "
                              "offset-aware, the first stamped row's is naive")
    mixed = rows_log([("s", "a", datetime(2024, 5, 1, 10), 0.5),
                      ("s", "b", datetime(2024, 5, 1, 10, tzinfo=UTC), 0.4)])
    with pytest.raises(ValueError, match="mixes naive and offset-aware"):
        summarize_auctions(mixed)


def test_mixed_stamp_kinds_across_read_chunks(tmp_path):
    """The first stamped row sets the kind for the rows of later chunks,
    even for a row that opens a chunk."""
    path = tmp_path / "log.csv"
    lines = [f"s,a{i},2024-05-01T{i % 24:02d}:00:00+01:00,0.5"
             for i in range(logs._CHUNK + 10)]
    lines[logs._CHUNK] = "s,late,2024-05-01T08:00:00,0.5"
    path.write_text("slot_id,auction_id,timestamp,bid_cpm\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_log_csv(path)
    assert str(err.value) == (f"{path}:{logs._CHUNK + 2}: timestamp "
                              "'2024-05-01T08:00:00' is naive, the first stamped "
                              "row's is offset-aware")


def _hour_key(stamp):
    """An auction's ``hour`` from its stamp: the wall-clock hour in the stamp's
    own offset, as microseconds since the epoch (naive stamps count as UTC)."""
    if stamp is None:
        return AuctionTable.UNSTAMPED
    epoch = datetime(1970, 1, 1, tzinfo=stamp.tzinfo and UTC)
    return (stamp.replace(minute=0, second=0, microsecond=0) - epoch) // timedelta(microseconds=1)


def _replayed(rows):
    """Each auction's table entries from a replay of its rows, grouped in a dict
    in first-seen order: its bids sorted descending (a stable sort, so ties keep
    row order), and its earliest stamp, the first of equal instants."""
    grouped = {}
    for row in rows:
        grouped.setdefault(row[1], []).append(row)
    out = []
    for group in grouped.values():
        bids = sorted((r[3] for r in group), reverse=True)
        earliest = min((r[2] for r in group if r[2] is not None), default=None)
        out.append((_hour_key(earliest), len(bids), bids[0], bids))
    return out


def _columns(table):
    """A table's entries per auction; floats as their reprs, so -0.0 is not 0.0."""
    bids = [table.bids[lo:hi].tolist() for lo, hi in zip(table.offsets[:-1], table.offsets[1:])]
    got = zip(table.hour.tolist(), table.xi_observed.tolist(), table.winning_bid.tolist(), bids)
    return [(h, xi, repr(w), list(map(repr, b))) for h, xi, w, b in got]


@given(rows=st.lists(st.tuples(
    st.sampled_from(["s1", "s2"]),
    # each draw a new string object, so equal ids are distinct objects
    st.sampled_from("abcde").map(lambda c: "".join(["auction-", c])),
    st.none() | st.sampled_from([
        datetime(2024, 5, 1, 12, tzinfo=UTC), datetime(2024, 5, 1, 13, tzinfo=PLUS1),
        datetime(2024, 5, 1, 17, 30, tzinfo=IST), datetime(2024, 5, 1, 11, tzinfo=UTC),
        datetime(2024, 5, 1, 12, 30, tzinfo=PLUS1), datetime(2024, 5, 1, 16, 45, tzinfo=IST),
        datetime(1969, 12, 31, 23, tzinfo=UTC)]),
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])), max_size=40),
    by_auction=st.booleans())
@example(rows=[("s1", "a", datetime(2024, 5, 1, 17, 30, tzinfo=IST), 0.25),
               ("s2", "a", datetime(2024, 5, 1, 12, tzinfo=UTC), -0.0),
               ("s1", "b", None, 0.5), ("s1", "a", None, 0.0)], by_auction=False)
@example(rows=[("s1", "a", None, 0.5), ("s1", "a", datetime(1969, 12, 31, 23, tzinfo=UTC), 0.25)],
         by_auction=True)
def test_summarize_matches_dict_grouping(rows, by_auction):
    """Every table column equals a per-auction replay of the log: interleaved
    auctions and, with ``by_auction``, the same rows grouped by auction (the
    path that sorts no rows); equal ids held as distinct objects; tied bids
    and -0.0; single bids; unstamped rows, also before a stamp earlier than
    1970; equal instants at +00:00, +01:00 and +05:30, whose hours differ.
    Ranking one bid at a time gives the same table."""
    if by_auction:
        rows = sorted(rows, key=lambda row: row[1])
    want = [(h, xi, repr(w), list(map(repr, b))) for h, xi, w, b in _replayed(rows)]
    assert _columns(summarize_auctions(rows_log(rows))) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logs, "_CHUNK", 1)
        assert _columns(summarize_auctions(rows_log(rows))) == want
