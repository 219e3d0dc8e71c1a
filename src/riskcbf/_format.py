"""The text of the outputs: ``'%.17g'`` for float arrays, vectorized with
NumPy, byte for byte, and the one writer of every JSON file.

Each value is written into a row of _WIDTH = 32 bytes, four little-endian
words: the sign, the "0.000" of a fixed-notation value below 1 and digit
0; digits 1-8; digits 9-16; the digit that the point pushes out, the
exponent and the separator. The point goes in as the bytes of digits 1-16
from its place on move up one byte, a multiply-add per word with masks of
the value's group. A keep-mask row (_keep_masks) zeroes each byte that is
not the item's, and bytes.translate deletes the zeros of a block in one
pass. A block holds about _FORMAT_BLOCK values and drops its temporaries
as they die, so that it peaks near 0.7 MB. On 150 x 150 risk grids, blocks
of 2048 values took 15-18 % longer; blocks of 8192, 6-9 % less time for 1.4 MB.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

_ZEROS, _DIGITS, _EXP, _SEP, _WIDTH = 1, 7, 25, 30, 32
_FORMAT_BLOCK = 4096  # values per block
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_BAND = 2.0**-40
_GROUP0 = 562  # 2 * 281: log10 puts floor(log10|v|) of the fast range in [-281, 280]
# the groups of four digits 0000-9999 in ASCII, a uint32 each; the rows
# are little-endian words, whatever the platform's byte order
_DIGITS2 = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype="<u2").astype(np.uint32)
_DIGITS4 = (_DIGITS2.repeat(100) | np.tile(_DIGITS2, 100) << 16).astype("<u4")
_ASCII_ZEROS = np.frombuffer(b"0" * 8, dtype="<u8")[0]
_PREFIX = np.frombuffer(b"-0.000\0\0", dtype="<u8")[0]  # the sign and zeros slots


def format_rows(values: np.ndarray) -> Iterator[bytes]:
    """The bytes of ``",".join("%.17g" % v for v in row) + "\\n"`` for each
    row of the 2-D float array values, one bytes object per block of rows.

    A value v with 1e-280 <= |v| < 1e280 is scaled to y = |v| * 10**p with
    p = 16 - x and x = floor(log10|v|), so that y lies in [1e16, 1e17)
    when x is right; '%.17g' then prints the digits of round(y). 10**p is
    held as hi + lo, each a correctly rounded double, so
    |10**p - hi - lo| <= 2**-53 |lo| <= 2**-106 hi. Dekker's two-product
    (Veltkamp splitting) gives |v| * hi = P + e exactly, since in this
    range no product overflows and none underflows; then
    s = fl(e + fl(|v| * lo)) adds two rounding errors of at most
    2**-106 y and 2**-105 y. In all, |y - (P + s)| <= 2**-104 (1 + 2**-52) y
    < 2**-46 for y < 1e17 < 2**57, whatever the width of np.longdouble,
    which no step uses. P is an integer once y >= 2**53, so round(y) is
    P + rint(s) unless s lies within _TIE_BAND = 2**-40 of a half,
    a band wider than that error; s - rint(s) is exact.
    round(y) must have 17 digits: below 1e17 it does if y >= 1e16 - 0.04,
    and round(y) may then be 1e16 itself, as y > 1e16 - 0.05, below which
    the 17-digit rounding takes one more digit. 0 and -0 are written as
    the digits of 0 at exponent 0. Everything else goes through '%.17g'
    itself: values within the band of a tie (exact ties included), inf,
    nan, subnormals, the range outside the fast one, a y that rounds to
    1e17, and an x that log10 put off by one.
    """
    values = np.asarray(values, dtype=float)
    step = max(1, _FORMAT_BLOCK // max(values.shape[1], 1))
    for i in range(0, len(values), step):
        yield _block(values[i: i + step])


def write_json(path, obj) -> None:
    """Write obj to path as one line of JSON text and a newline. The text
    comes from dumps without an indent, which runs the C encoder; dump
    never does. JSON has no token for nan or inf, so a non-finite float
    in obj raises ValueError before path is opened."""
    text = json.dumps(obj, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _pow10(p: int) -> tuple[float, float]:
    """10**p as hi + lo: hi is the double nearest 10**p and lo the double
    nearest 10**p - hi (int / int division rounds correctly)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _significand(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """round(a * (hi + lo)) as int64, and where it has 17 digits and the
    error bound decides it (see format_rows)."""
    # p + e = a * hi exactly (Dekker), s = e + a * lo
    p = a * hi
    a1, h1 = a * _SPLITTER, hi * _SPLITTER
    a1 -= a1 - a
    h1 -= h1 - hi
    a2, h2 = a - a1, hi - h1
    s = a1 * h1 - p
    s += a1 * h2
    s += a2 * h1
    s += a2 * h2
    s += a * lo
    r = np.rint(s)
    n = p.astype(np.int64) + r.astype(np.int64)
    # p - 1e16 is exact where it matters, for p in [5e15, 2e16]
    decided = np.abs(s - r) < 0.5 - _TIE_BAND
    decided &= (p - 1e16) + s >= -0.04
    decided &= n < 10**17
    return n, decided


def _keep_masks() -> np.ndarray:
    """The keep masks, a byte 0xFF to keep and 0 to drop: row L < _WIDTH
    keeps an item of L bytes written from the row's start, for a value
    that '%.17g' formats itself; row _WIDTH + 17 * c + k - 1 keeps a value
    of layout class c with k significant digits. Classes 2 * (x + 4) + neg
    are fixed notation at exponents x = -4..16, classes
    42 + 2 * (exponent digits - 2) + neg scientific notation."""
    c = np.arange(46)[:, None, None]
    neg, fixed, x = c & 1, c < 42, (c >> 1) - 4
    lead = np.where(fixed, np.maximum(x + 1, 0), 1)  # digits before the point
    exp = np.where(fixed, 0, (c >> 1) - 17)  # bytes of "e+dd" or "e+ddd"
    k = np.arange(1, 18)[:, None]
    col = np.arange(_WIDTH)
    # the lead digits, then the point and digits lead..k-1 if k > lead; or,
    # below 1, "0.0..." and the k digits
    keep = (_DIGITS <= col) & (col < _DIGITS + np.maximum(lead, k + ((0 < lead) & (lead < k))))
    keep |= (lead == 0) & (_ZEROS <= col) & (col < _ZEROS + 1 - x)
    keep |= (col == 0) & (neg == 1) | (_EXP <= col) & (col < _EXP + exp) | (col == _SEP)
    return np.concatenate([(col < col[:, None]) | (col == _SEP), keep.reshape(-1, _WIDTH)]) * np.uint8(0xFF)


_KEEP = _keep_masks().view("<u8")


# The tables of the value groups, filled once per process: _fill fills a
# group the first time a value needs it, and every later format_rows call
# (and every process that field forks) reuses it. What a value's group, its
# decimal exponent x and sign, fixes: group g = 2 * x + neg + _GROUP0 holds
# 10**(16 - x) as hi + lo (_SCALE); the masks of the bytes of digits 1-16
# that the point moves and of the point, and the last row word (_WORDS);
# and the first keep-mask row of its layout class (see _keep_masks), less
# the 119 that _block adds to a count (_MASK_BASE, 0 until filled).
_SCALE, _WORDS = np.zeros((2, 2 * _GROUP0)), np.zeros((5, 2 * _GROUP0), dtype=np.uint64)
_MASK_BASE = np.zeros(2 * _GROUP0, dtype=np.intp)


def _fill(g: int) -> None:
    x, neg = (g - _GROUP0) >> 1, g & 1
    _SCALE[:, g] = _pow10(16 - x)
    exp = b"" if -4 <= x < 17 else b"e%+03d" % x
    lead = 1 if exp else x + 1 if 0 <= x < 16 else 0  # digits before the point; 0: no point
    moved = bytes(lead - 1).ljust(16, b"\xff") if lead else bytes(16)
    point = (bytes(lead - 1) + b".").ljust(16, b"\0") if lead else bytes(16)
    _WORDS[:, g] = np.frombuffer(moved + point + b"\0" + exp.ljust(5, b"\0") + b",\0", dtype="<u8")
    _MASK_BASE[g] = _WIDTH - 119 + 17 * (2 * (x + 4) + neg if not exp else 42 + 2 * (len(exp) - 4) + neg)


def _block(values: np.ndarray) -> bytes:
    v = values.ravel()
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # NaN fails both
    a[~fast] = 1.0  # so that log10 sees no 0, inf or nan and warns of nothing
    neg = np.signbit(v)
    group = 2 * np.floor(np.log10(a)).astype(np.int64) + neg + _GROUP0
    base = _MASK_BASE.take(group)
    if np.count_nonzero(base) < len(base):
        for g in np.flatnonzero(np.bincount(group[base == 0])).tolist():
            _fill(g)
        base = _MASK_BASE.take(group)
    n, decided = _significand(a, *_SCALE.take(group, axis=1))
    slow = np.flatnonzero(~(fast & decided))
    zero = v[slow] == 0.0
    n[slow[zero]] = 0  # 0 and -0: the digits of 0 at exponent 0
    slow = slow[~zero]
    # digit 0, and digits 1-8 and 9-16 in ASCII: two words of two groups of four
    n8 = n // 10**8
    first = n8 // 10**8
    halves = np.stack([n8 - first * 10**8, n - n8 * 10**8])
    high = halves // 10**4
    halves -= high * 10**4
    digits = _DIGITS4.take(np.stack([high, halves], axis=-1)).view("<u8")[:, :, 0]
    # 118 + the count of significant digits: the bytes of digits 1-16 up
    # to the last that is not "0", from the exponent of one double (XOR
    # "0" leaves no byte above 9, so no rounding reaches a power of 2)
    low = (digits ^ _ASCII_ZEROS).astype(float)
    row = base + ((low[0] * 2.0**-63 + low[1] * 2.0 + 2.0**-65).view(np.int64) >> 55)
    del a, base, n, n8, halves, high, low  # dead: a block's peak memory stays low
    # the point: the bytes of digits 1-16 from its place on move up one
    words = _WORDS.take(group, axis=1)
    moved = digits & words[:2]
    digits += moved * np.uint64(255) + words[2:4]
    out = np.empty((len(v), _WIDTH // 8), dtype="<u8")
    np.bitwise_or(_PREFIX, (first.view(np.uint64) + ord("0")) << 56, out=out[:, 0])
    out[:, 1] = digits[0]
    np.add(digits[1], moved[0] >> 56, out=out[:, 2])
    np.add(words[4], moved[1] >> 56, out=out[:, 3])
    del words, moved, digits, first
    text = out.view(np.uint8)
    if slow.size:
        items = ["%.17g" % f for f in v[slow].tolist()]
        sizes = np.fromiter(map(len, items), dtype=np.intp, count=len(items))
        chars = np.frombuffer("".join(items).encode("ascii"), dtype=np.uint8)
        text[np.repeat(slow, sizes), np.arange(len(chars)) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = chars
        row[slow] = sizes
    text[values.shape[1] - 1:: values.shape[1], _SEP] = ord("\n")
    out &= _KEEP.take(row, axis=0)
    return out.tobytes().translate(None, b"\0")
