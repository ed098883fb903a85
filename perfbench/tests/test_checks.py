import numpy as np
import pytest

from perfbench import checks
from repro.service import StreamService
from repro.service.jobs import kernel_for
from repro.workloads.streams import chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator

WINDOW = 2.56e-6


@pytest.fixture(scope="module")
def stream():
    data = ZipfGenerator(alpha=1.5, seed=5).generate(12_000)
    batches = list(chunk_stream(data, 2_000))
    timestamps = np.concatenate([b.timestamps for b in batches])
    return data.keys, data.values, timestamps


@pytest.fixture(scope="module")
def served(stream):
    """Each app's output from the service itself."""
    keys, values, _ = stream
    service = StreamService(workers=2)
    ids = {app: service.submit(app, chunk_stream(TupleBatch(keys, values),
                                                 2_000),
                               window_seconds=WINDOW)
           for app in ("histo", "dp", "hll", "hhd")}
    service.run()
    results = {app: service.result(job).result for app, job in ids.items()}
    service.shutdown()
    return results


def check(app, result, stream):
    keys, values, timestamps = stream
    return checks.check_job(app, result, keys, values, timestamps, WINDOW)


@pytest.mark.parametrize("app", ["histo", "dp", "hll", "hhd"])
def test_service_output_passes(app, served, stream):
    assert check(app, served[app], stream) is None


def test_histogram_off_by_one_is_rejected(served, stream):
    corrupted = served["histo"].copy()
    corrupted[int(np.argmax(corrupted))] -= 1
    assert "differs" in check("histo", corrupted, stream)


def test_hll_register_change_is_rejected(served, stream):
    corrupted = served["hll"].copy()
    corrupted[0] += 1
    assert "differs" in check("hll", corrupted, stream)


def test_partition_with_a_moved_key_is_rejected(served, stream):
    corrupted = {part: list(keys) for part, keys in served["dp"].items()}
    first, second = sorted(corrupted)[:2]
    corrupted[second].append(corrupted[first].pop())
    assert "multiset" in check("dp", corrupted, stream)


def test_partition_order_does_not_matter(served, stream):
    shuffled = {part: list(reversed(keys))
                for part, keys in served["dp"].items()}
    assert check("dp", shuffled, stream) is None


def test_missing_partition_is_rejected(served, stream):
    corrupted = dict(served["dp"])
    corrupted.pop(next(iter(corrupted)))
    assert "ids differ" in check("dp", corrupted, stream)


def test_heavy_hitter_dropped_is_rejected(served, stream):
    corrupted = dict(served["hhd"])
    assert corrupted, "the stream must have a per-window heavy hitter"
    corrupted.pop(max(corrupted, key=corrupted.get))
    assert "missed" in check("hhd", corrupted, stream)


def test_heavy_hitter_underestimate_is_rejected(served, stream):
    corrupted = dict(served["hhd"])
    hottest = max(corrupted, key=corrupted.get)
    corrupted[hottest] = 1
    assert "below its window count" in check("hhd", corrupted, stream)


def test_heavy_hitter_stray_key_is_rejected(served, stream):
    corrupted = dict(served["hhd"])
    keys = stream[0]
    corrupted[int(keys.max()) + 1] = 10 ** 6
    assert "absent" in check("hhd", corrupted, stream)


def test_recall_counts_whole_stream_hitters(served, stream):
    keys = stream[0]
    threshold = kernel_for("hhd", 16).threshold
    hits, exact = checks.hhd_recall_counts(served["hhd"], keys, threshold)
    assert 0 < hits <= exact
    assert checks.hhd_recall_counts({}, keys, threshold) == (0, exact)


def test_window_index_snaps_boundaries():
    assert checks.window_index(np.array([0.3]), 0.1).tolist() == [3]
    assert checks.window_index(np.array([0.0, 0.05, 0.1999]),
                               0.1).tolist() == [0, 0, 1]
