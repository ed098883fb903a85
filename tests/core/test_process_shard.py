"""Differential tests of the one-pass ``process_shard`` overrides.

Every app overrides :meth:`KernelSpec.process_shard` with one vectorised
pass over the whole shard.  The base-class method is the per-PE
reference (route, one fresh buffer per PriPE, ``process_batch``,
``collect``), so each override must reproduce it exactly: same result,
same dtype, same dict iteration order, same per-tuple destinations.
The count-min row hash is checked against its scalar form on random
and edge keys over the full uint64 range.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.heavy_hitter import HeavyHitterKernel, running_ranks
from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.pagerank import PageRankKernel
from repro.apps.partition import PartitionKernel
from repro.core.kernel import KernelSpec
from repro.hashing.family import PairwiseFamily
from repro.hashing.murmur3 import fmix64

U64_MAX = (1 << 64) - 1
MASK64 = U64_MAX
EDGE_KEYS = [0, 1, (1 << 61) - 2, (1 << 61) - 1, 1 << 61, (1 << 61) + 1,
             1 << 62, 1 << 63, U64_MAX - 1, U64_MAX]

EXAMPLES = settings(max_examples=40, deadline=None)


def shard_keys(seed: int, size: int, key_bits: int, pool: int
               ) -> np.ndarray:
    """``size`` skewed keys below ``2**key_bits``, with edge keys mixed
    in when they fit, so hot keys and sketch collisions both occur."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, (1 << key_bits) - 1, pool, dtype=np.uint64,
                          endpoint=True)
    edges = [k for k in EDGE_KEYS if k < 1 << key_bits]
    values[: len(edges)] = edges[:pool]
    picks = np.minimum(rng.zipf(1.3, size) - 1, pool - 1)
    return values[picks]


shards = st.builds(
    shard_keys,
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 5000),
    key_bits=st.sampled_from([4, 12, 32, 61, 62, 64]),
    pool=st.integers(1, 4000),
)
pow2_pripes = st.sampled_from([1, 2, 4, 8, 16, 32])


def assert_identical(ours, reference) -> None:
    assert type(ours) is type(reference)
    if isinstance(reference, np.ndarray):
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference)
        return
    # Dicts: same items in the same iteration order, plain-int keys.
    assert list(ours.items()) == list(reference.items())
    assert all(type(key) is int for key in ours)


def check(kernel: KernelSpec, keys: np.ndarray,
          values: np.ndarray = None) -> None:
    if values is None:
        values = np.ones(keys.size, dtype=np.int64)
    result, destinations = kernel.process_shard(keys, values)
    ref_result, ref_destinations = KernelSpec.process_shard(
        kernel, keys, values)
    assert_identical(result, ref_result)
    assert destinations.dtype == np.int64
    assert np.array_equal(destinations, ref_destinations)


@EXAMPLES
@given(keys=shards, pripes=st.integers(1, 32),
       slices=st.integers(1, 64), hashed=st.booleans())
def test_histogram(keys, pripes, slices, hashed):
    if hashed:  # multiply-shift binning needs a power-of-two bin count
        pripes = 1 << (pripes.bit_length() - 1)
        slices = 1 << (slices.bit_length() - 1)
    check(HistogramKernel(bins=pripes * slices, pripes=pripes,
                          hashed=hashed), keys)


@EXAMPLES
@given(keys=shards, pripes=pow2_pripes, precision=st.integers(5, 14))
def test_hyperloglog(keys, pripes, precision):
    check(HyperLogLogKernel(precision=precision, pripes=pripes), keys)


@EXAMPLES
@given(keys=shards, pripes=st.integers(1, 32), radix=st.integers(5, 10))
def test_partition(keys, pripes, radix):
    check(PartitionKernel(radix_bits_count=radix, pripes=pripes), keys)


@EXAMPLES
@given(keys=shards, pripes=st.integers(1, 32),
       vertices=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_pagerank(keys, pripes, vertices, seed):
    # Tuples are (destination vertex, source vertex): both are vertex
    # IDs, so they are folded into [0, vertices).
    rng = np.random.default_rng(seed)
    kernel = PageRankKernel(vertices, pripes=pripes)
    kernel.set_contributions(
        rng.integers(0, 1 << 20, vertices).astype(np.int64))
    sources = rng.integers(0, vertices, keys.size, dtype=np.int64)
    check(kernel, keys % np.uint64(vertices), sources)


@EXAMPLES
@given(keys=shards, pripes=st.integers(1, 32),
       depth=st.integers(1, 5), width=st.integers(1, 96),
       threshold=st.integers(1, 300),
       track_fraction=st.floats(0.01, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_heavy_hitter(keys, pripes, depth, width, threshold,
                      track_fraction, seed):
    check(HeavyHitterKernel(depth=depth, width=width, threshold=threshold,
                            track_fraction=track_fraction, pripes=pripes,
                            seed=seed), keys)


def test_heavy_hitter_reports_hitters_in_pe_then_key_order():
    keys = np.array([5, 2, 9, 5, 2, 9, 5, 2, 9], dtype=np.uint64)
    kernel = HeavyHitterKernel(depth=2, width=64, threshold=3, pripes=4)
    result, _ = kernel.process_shard(keys, np.ones(9, dtype=np.int64))
    assert list(result) == [5, 9, 2]


def test_running_ranks_count_earlier_equal_labels():
    labels = np.array([3, 1, 3, 3, 0, 1, 3])
    assert running_ranks(labels).tolist() == [1, 1, 2, 3, 1, 2, 4]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5),
       width=st.integers(1, 1 << 20),
       keys=st.lists(st.integers(0, U64_MAX), min_size=1, max_size=64))
def test_pairwise_hash_array_matches_scalar(seed, rows, width, keys):
    family = PairwiseFamily(rows, width, seed=seed)
    keys = np.array(keys + EDGE_KEYS, dtype=np.uint64)
    for row in range(rows):
        vector = family.hash_array(row, keys)
        assert vector.dtype == np.int64
        assert vector.tolist() == [family.hash(row, int(k)) for k in keys]


def fmix64_inverse(h: int) -> int:
    """The key whose :func:`fmix64` is ``h`` (fmix64 is a bijection)."""
    def unshift(x):  # x ^ (x >> 33) is its own inverse
        return x ^ (x >> 33)

    k = unshift(h)
    k = (k * pow(0xC4CEB9FE1A85EC53, -1, 1 << 64)) & MASK64
    k = unshift(k)
    k = (k * pow(0xFF51AFD7ED558CCD, -1, 1 << 64)) & MASK64
    return unshift(k)


@pytest.mark.parametrize("precision", [4, 5, 12, 14, 18])
def test_hll_rank_matches_scalar_for_every_word_length(precision):
    """Hashes whose rank word has each bit length 0..64-p, at and
    around powers of two: random keys never reach the long zero runs."""
    kernel = HyperLogLogKernel(precision=precision)
    bits = 64 - precision
    hashes = [(top << bits) | word
              for top in (0, (1 << precision) - 1)
              for length in range(bits + 1)
              for word in {0, (1 << length) - 1, 1 << max(length - 1, 0)}]
    keys = [fmix64_inverse(h) for h in hashes]
    assert [fmix64(k) for k in keys] == hashes
    index, rho = kernel._register_and_rho_arrays(
        np.array(keys, dtype=np.uint64))
    assert rho.dtype == np.int64
    assert list(zip(index.tolist(), rho.tolist())) == [
        kernel.register_and_rho(k) for k in keys]
