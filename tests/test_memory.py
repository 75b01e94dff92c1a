"""Memory bounds of the log path, measured with tracemalloc.

A log stores its slot id and auction id once per run of rows, and the run's
stamp as two int64 numbers. Each
stage may hold one bounded chunk beyond what it returns: the reader keeps
a chunk of lines and of bids at a time, on either of its paths, and the
summary builds its per-auction columns from the runs and ranks the bids in
place, a bounded block at a time. Allocation counts are deterministic, so
the bounds are too.
"""

import contextlib
import dataclasses
import gc
import io
import json
import tracemalloc

import numpy as np
import pytest

from pgrtb import BidModel, cli, logs
from pgrtb.logs import BidLog, read_log_csv, summarize_auctions, write_log_csv
from pgrtb.market import reference_config
from pgrtb.simulate import generate_log

MIB = 1024 * 1024


def _traced(fn, *args):
    """``fn(*args)``, the traced bytes it leaves held, and its traced peak."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - base, peak - base


def _traced_reads(path):
    """``_traced(read_log_csv, path)`` on the line path and on the csv module's
    path, each after one untraced read (module state off the count)."""
    for quoted in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logs, "_has_quotes", lambda _: quoted)
            read_log_csv(path)
            yield _traced(read_log_csv, path)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    """A generated log of 19,700 rows: 4,000 auctions over 80 hours."""
    log, _ = generate_log(BidModel.uniform(0.0, 1.0), hours=80, auctions_per_hour=50,
                          bidders_per_hour=[2, 3, 4, 5, 6, 7, 8], seed=3)
    assert len(log) == 19_700
    path = tmp_path_factory.mktemp("memory") / "log.csv"
    write_log_csv(log, path)
    return path


def test_held_log_costs_under_36_bytes_a_row(log_path):
    """Per row, the float64 bid; per run of 4.9 rows, its first row, two list
    slots, the auction id string and the stamp's two int64 numbers: 31.6 bytes
    a row, against 39.5 when each run held a ``datetime``."""
    for log, held, _ in _traced_reads(log_path):
        assert held < 36 * len(log), f"{held / len(log):.1f} bytes a row"


@pytest.fixture(scope="module")
def shuffled_path(log_path):
    """The same rows in a random order: nearly every row is a run of its own."""
    log = read_log_csv(log_path)
    order = np.random.default_rng(0).permutation(len(log)).tolist()
    columns = ([column[i] for i in order] for column in (log.slot_id, log.auction_id,
                                                          log.timestamp))
    path = log_path.with_name("shuffled.csv")
    write_log_csv(BidLog(*columns, log.bid_cpm[order]), path)
    return path


def test_a_shuffled_log_holds_each_auction_id_once(shuffled_path):
    """Per row-run, its bid, first row, two list slots and two stamp numbers;
    once per auction, its id: 64.7 bytes a row. Runs that each held their
    own id and stamp would cost 158 B/row."""
    for log, held, peak in _traced_reads(shuffled_path):
        assert len(log._starts) > 0.9 * len(log)
        assert held < 80 * len(log), f"{held / len(log):.1f} bytes a row"
        assert peak <= 1.6 * held, f"peak {peak / MIB:.3f} MiB, log {held / MIB:.3f} MiB"


def test_reader_peak_is_within_a_chunk_of_the_log(log_path):
    for log, held, peak in _traced_reads(log_path):
        assert len(log) == 19_700
        assert peak <= 1.6 * held, f"peak {peak / MIB:.3f} MiB, log {held / MIB:.3f} MiB"


def test_summary_peak_above_its_table_is_below_one_row_column_set(log_path):
    log = read_log_csv(log_path)
    summarize_auctions(log)
    table, held, peak = _traced(summarize_auctions, log)
    assert len(table) == 4_000
    # the summary peaks as it ranks the bids in place on the table's copy, a
    # bounded block at a time, its run arrays freed by then; beside the table
    # it holds the bid counts it ranks by, 8 bytes an auction, and one count's
    # positions: 12.3 bytes an auction. Listing the counts by np.unique, two
    # more copies of them, peaked at 24.8
    assert peak - held < 16 * len(table), \
        f"peak {peak / MIB:.3f} MiB above a table of {held / MIB:.3f} MiB"


def _command_peak(tmp_path, *argv):
    """A CLI command's traced peak, run once untraced first, on a config that
    generates the ``log_path`` log and prices the reference market."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema_version": 1, "output": {"dir": str(tmp_path)},
        "market": dataclasses.asdict(reference_config()),
        "bid_model": {"kind": "uniform", "low": 0.0, "high": 1.0},
        "synthetic": {"hours": 80, "auctions_per_hour": 50,
                      "bidders_per_hour": [2, 3, 4, 5, 6, 7, 8]},
        "seeds": {"root": 3}}))
    argv = [argv[0], "--config", str(config), *argv[1:]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        code, _, peak = _traced(cli.main, argv)
    assert code == 0
    return peak


def test_gen_data_command_peak_per_log_row(tmp_path):
    """``gen-data`` peaks while it writes the log it holds, at 37.1 bytes a
    row; with a ``datetime`` per run, 44.7. Counting the auction ids in a
    set, after joining per-hour bid arrays, peaked at 58.4."""
    peak = _command_peak(tmp_path, "gen-data")
    assert (tmp_path / "auction_log.csv").read_bytes().count(b"\n") == 19_700 + 1
    assert peak < 40 * 19_700, f"gen-data peaked at {peak / 19_700:.1f} bytes a log row"


def test_fit_command_peak_per_log_row(log_path, tmp_path):
    """``fit`` peaks in ``read_log_csv``, at 45.6 bytes a log row; with a
    ``datetime`` per run it peaked in the summary, at 56.1, and ranking beside
    the log's negated bids at 72.5. It fits its table whole, and the fit
    leaves out the auctions with one bid: copying the auctions with two bids
    beside the table peaked at 78."""
    peak = _command_peak(tmp_path, "fit", "--log", str(log_path))
    assert peak < 49 * 19_700, f"fit peaked at {peak / 19_700:.1f} bytes a log row"


def test_segment_command_peak_per_log_row(log_path, tmp_path):
    """``segment`` peaks where ``fit`` does, in ``read_log_csv``, at 45.6
    bytes a log row; with a ``datetime`` per run, 56.1 in the summary, and
    before the summary ranked in place, 73.7."""
    peak = _command_peak(tmp_path, "segment", "--log", str(log_path))
    assert peak < 49 * 19_700, f"segment peaked at {peak / 19_700:.1f} bytes a log row"
