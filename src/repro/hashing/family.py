"""A pairwise-independent hash family for the count-min sketch rows.

Heavy hitter detection (Table I) uses a count-min sketch, which needs
``d`` independent row hashes.  The classic Carter–Wegman construction
``h_i(x) = ((a_i * x + b_i) mod p) mod w`` with a Mersenne prime ``p``
is cheap in hardware (multiply + add + two folds) and gives the pairwise
independence the CMS error bound requires.
"""

from __future__ import annotations

from typing import List

import numpy as np

_MERSENNE_P = (1 << 61) - 1

_P = np.uint64(_MERSENNE_P)
_1, _3, _29, _32, _61 = (np.uint64(n) for n in (1, 3, 29, 32, 61))
_LO29 = np.uint64((1 << 29) - 1)
_LO32 = np.uint64((1 << 32) - 1)


class PairwiseFamily:
    """``rows`` pairwise-independent hashes onto ``[0, width)``.

    Parameters
    ----------
    rows:
        Number of hash functions (sketch depth ``d``).
    width:
        Output range (sketch width ``w``).
    seed:
        Seeds the coefficient generator; the same seed always yields the
        same family (hardware constants are baked at synthesis time).
    """

    def __init__(self, rows: int, width: int, seed: int = 0x5EED) -> None:
        if rows <= 0:
            raise ValueError("rows must be positive")
        if width <= 0:
            raise ValueError("width must be positive")
        self.rows = rows
        self.width = width
        rng = np.random.default_rng(seed)
        # a in [1, p), b in [0, p)
        self._a: List[int] = [
            int(rng.integers(1, _MERSENNE_P)) for _ in range(rows)
        ]
        self._b: List[int] = [
            int(rng.integers(0, _MERSENNE_P)) for _ in range(rows)
        ]
        a = np.array(self._a, dtype=np.uint64)
        self._a_hi = a >> _32
        self._a_lo = a & _LO32
        self._b_u64 = np.array(self._b, dtype=np.uint64)

    def hash(self, row: int, key: int) -> int:
        """Row ``row``'s hash of ``key`` (scalar)."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")
        value = (self._a[row] * key + self._b[row]) % _MERSENNE_P
        return value % self.width

    def hash_array(self, row: int, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`hash` for one row over many keys.

        Exact uint64 arithmetic, bit-identical to :meth:`hash` for every
        uint64 key (including keys >= 2**61).  The key folds to
        ``k < 2**61 + 8`` (``2**61 == 1 mod p``), and ``a * k`` splits
        into 32-bit limbs: ``hh * 2**64 + mid * 2**32 + ll`` with
        ``hh < 2**58``, ``mid < 2**62`` and ``ll < 2**64``, each partial
        product exact in 64 bits.  Mod p, ``2**64 == 8`` and
        ``mid * 2**32`` splits at bit 29 into ``mid >> 29`` plus the low
        29 bits shifted by 32.  With ``b`` the sum stays below
        ``2**64``; one fold and one carry step reduce it into ``[0, p)``
        before the final ``mod width``.
        """
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")
        a_hi, a_lo, b = self._a_hi[row], self._a_lo[row], self._b_u64[row]
        keys = np.asarray(keys, dtype=np.uint64)
        # Four working arrays, every other step in place: each fresh
        # array costs more than the arithmetic on it.
        k_lo = keys >> _61
        tmp = keys & _P
        k_lo += tmp
        k_hi = k_lo >> _32
        k_lo &= _LO32
        mid = k_lo * a_hi
        np.multiply(k_hi, a_lo, out=tmp)
        mid += tmp
        ll = np.multiply(k_lo, a_lo, out=k_lo)
        total = np.multiply(k_hi, a_hi, out=k_hi)
        total <<= _3
        total += np.right_shift(mid, _29, out=tmp)
        mid &= _LO29
        mid <<= _32
        total += mid
        total += np.right_shift(ll, _61, out=tmp)
        ll &= _P
        total += ll
        total += b
        carry = np.right_shift(total, _61, out=tmp)   # fold: < p + 8
        total &= _P
        total += carry
        np.add(total, _1, out=carry)                   # carry: [0, p)
        carry >>= _61
        total += carry
        total &= _P
        if self.width & (self.width - 1) == 0:
            total &= np.uint64(self.width - 1)
        else:
            total %= np.uint64(self.width)
        return total.view(np.int64)

    def all_rows(self, key: int) -> List[int]:
        """All ``d`` row indices of ``key`` — one CMS update touches these."""
        return [self.hash(row, key) for row in range(self.rows)]
