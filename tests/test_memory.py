"""Memory bounds of the log path, measured with tracemalloc.

Each stage may hold one bounded chunk beyond what it returns: the reader
keeps its text a run and a chunk of bids at a time, the summary builds its
per-auction columns from run heads, and ``fit`` writes the bid sample a
chunk at a time. Allocation counts are deterministic, so the bounds are too.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from pgrtb import BidModel, cli
from pgrtb.logs import read_log_csv, summarize_auctions, write_log_csv
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


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    """A generated log of 19,700 rows: 4,000 auctions over 80 hours."""
    log, _ = generate_log(BidModel.uniform(0.0, 1.0), hours=80, auctions_per_hour=50,
                          bidders_per_hour=[2, 3, 4, 5, 6, 7, 8], seed=3)
    assert len(log) == 19_700
    path = tmp_path_factory.mktemp("memory") / "log.csv"
    write_log_csv(log, path)
    return path


def test_reader_peak_is_within_a_chunk_of_the_log(log_path):
    read_log_csv(log_path)  # module state (the csv module, numpy's caches) off the count
    log, held, peak = _traced(read_log_csv, log_path)
    assert len(log) == 19_700
    assert peak <= 1.6 * held, f"peak {peak / MIB:.3f} MiB, log {held / MIB:.3f} MiB"


def test_summary_peak_above_its_table_is_below_one_row_column_set(log_path):
    log = read_log_csv(log_path)
    summarize_auctions(log)
    table, held, peak = _traced(summarize_auctions, log)
    assert len(table) == 4_000
    # a row's four columns: three list slots and one float64
    row_columns = 4 * 8 * len(log)
    assert peak - held < row_columns, \
        f"peak {peak / MIB:.3f} MiB above a table of {held / MIB:.3f} MiB"


def test_bid_sample_write_adds_less_than_half_a_mib(log_path, tmp_path):
    bids = summarize_auctions(read_log_csv(log_path)).bids
    payload = {"schema_version": 1, "bid_model": {"kind": "empirical", "bids": None}}
    _, _, peak = _traced(cli._write_fitted, tmp_path / "model.json", payload, bids)
    assert peak < 0.5 * MIB, f"writing {len(bids)} bids peaked at {peak / MIB:.3f} MiB"
