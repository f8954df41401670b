"""Karp–Rabin fingerprints over byte strings.

The fingerprint of a byte string ``b_1 .. b_n`` is the polynomial
``sum(b_i * base**(n - i)) mod prime`` for a fixed base and a large
prime.  Distinct strings collide with probability about ``1/prime``
(Karp & Rabin 1987), which is exactly the "unique with a high
probability" guarantee the paper relies on.

Fingerprints support O(1) *concatenation*: knowing ``f(x)``, ``f(y)``
and ``base**len(y)``, the fingerprint of ``x || y`` is
``f(x) * base**len(y) + f(y)``.  The index uses this to fingerprint a
whole pq-gram label tuple from the per-label fingerprints.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

try:  # numpy is optional; only batch_fingerprints needs it
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None

#: A Mersenne prime just below 2**61; arithmetic stays within native
#: integers on 64-bit CPython for single multiplications.
DEFAULT_PRIME = (1 << 61) - 1
DEFAULT_BASE = 257


class KarpRabinFingerprint:
    """Stateless fingerprint function, configurable base and modulus."""

    def __init__(self, base: int = DEFAULT_BASE, prime: int = DEFAULT_PRIME) -> None:
        if prime <= base or base < 2:
            raise ValueError("need prime > base >= 2")
        self.base = base
        self.prime = prime

    def of_bytes(self, data: bytes) -> int:
        """Fingerprint of a byte string."""
        value = 0
        base, prime = self.base, self.prime
        for byte in data:
            value = (value * base + byte + 1) % prime
        return value

    def of_text(self, text: str) -> int:
        """Fingerprint of a unicode string (UTF-8 encoded)."""
        return self.of_bytes(text.encode("utf-8"))

    def shift(self, length: int) -> int:
        """``base**length mod prime`` — the concatenation multiplier."""
        return pow(self.base, length, self.prime)

    def concat(self, left: int, right: int, right_length: int) -> int:
        """Fingerprint of the concatenation ``x || y`` from ``f(x)``,
        ``f(y)`` and ``len(y)``."""
        return (left * self.shift(right_length) + right) % self.prime


def combine_fingerprints(
    parts: Sequence[int] | Iterable[int],
    base: int = DEFAULT_BASE,
    prime: int = DEFAULT_PRIME,
) -> int:
    """Fold a sequence of fingerprints into one.

    Treats every part as one "digit" in base ``base``-to-the-word; this
    is how a pq-gram's label tuple is compressed to a single value for
    the persistent index relation (paper Fig. 4 concatenates the hashed
    labels — we combine them with the same collision guarantee).
    """
    value = 0
    multiplier = pow(base, 8, prime)
    for part in parts:
        value = (value * multiplier + part + 1) % prime
    return value


#: the per-part multiplier of :func:`combine_fingerprints`
_MULT = pow(DEFAULT_BASE, 8, DEFAULT_PRIME)


if _np is not None:
    # uint64 constants once — mixing python ints into uint64 arithmetic
    # promotes to float64 on older numpy and loses exactness.
    _U_P = _np.uint64(DEFAULT_PRIME)
    _U_M_HI = _np.uint64(_MULT >> 32)
    _U_M_LO = _np.uint64(_MULT & 0xFFFFFFFF)
    _U_MASK32 = _np.uint64(0xFFFFFFFF)
    _U_MASK29 = _np.uint64((1 << 29) - 1)
    _U_1 = _np.uint64(1)
    _U_3 = _np.uint64(3)
    _U_29 = _np.uint64(29)
    _U_32 = _np.uint64(32)
    _U_61 = _np.uint64(61)

    def _reduce61(values):
        """``x mod (2**61 - 1)`` for ``x < 2**63`` — two shift-adds
        (``2**61 ≡ 1``) and one conditional subtract."""
        values = (values >> _U_61) + (values & _U_P)
        values = (values >> _U_61) + (values & _U_P)
        return _np.where(values >= _U_P, values - _U_P, values)

    def _combine_matrix(matrix):
        """Vectorized :func:`combine_fingerprints` over the rows of a
        ``(n, width)`` uint64 matrix.

        The fold multiplies a 61-bit accumulator by the constant
        multiplier each step; the 122-bit product is formed exactly
        from 32-bit limb products (each fits uint64) and reduced with
        the Mersenne identity ``2**61 ≡ 1`` — no Python-int round trip.
        """
        acc = _np.zeros(len(matrix), dtype=_np.uint64)
        for column in range(matrix.shape[1]):
            part = matrix[:, column]
            part = (part >> _U_61) + (part & _U_P)
            acc_hi = acc >> _U_32              # < 2**29
            acc_lo = acc & _U_MASK32
            low = acc_lo * _U_M_LO             # < 2**64
            mid = acc_lo * _U_M_HI + acc_hi * _U_M_LO   # < 2**62
            high = acc_hi * _U_M_HI            # < 2**58
            # acc*M = high*2**64 + mid*2**32 + low; 2**64 ≡ 8,
            # mid*2**32 ≡ (mid >> 29) + ((mid & mask29) << 32).
            total = (
                (high << _U_3)
                + (mid >> _U_29)
                + ((mid & _U_MASK29) << _U_32)
                + (low >> _U_61)
                + (low & _U_P)
                + part
                + _U_1
            )
            acc = _reduce61(total)
        return acc


def batch_fingerprints(keys: Sequence[Tuple[int, ...]]):
    """:func:`combine_fingerprints` of many keys at once, as a uint64
    array (default base and prime).

    Bit-identical to the scalar fold, but it runs as a handful of
    vector ops per tuple position instead of a Python loop per key.
    Keys of mixed width are grouped by length; results land in input
    order.  Requires numpy.
    """
    if _np is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("batch fingerprints require numpy")
    out = _np.empty(len(keys), dtype=_np.uint64)
    by_width: Dict[int, List[int]] = {}
    for position, key in enumerate(keys):
        by_width.setdefault(len(key), []).append(position)
    for width, positions in by_width.items():
        matrix = None
        if width:
            try:
                matrix = _np.fromiter(
                    (part for position in positions for part in keys[position]),
                    dtype=_np.uint64,
                    count=len(positions) * width,
                ).reshape(len(positions), width)
            except (OverflowError, ValueError):
                # parts outside uint64 (never true of label hashes) —
                # scalar fold instead
                pass
        if matrix is None:
            for position in positions:
                out[position] = combine_fingerprints(keys[position])
        else:
            out[positions] = _combine_matrix(matrix)
    return out
