"""The text of the outputs: ``'%.17g'`` for float arrays, vectorized with
NumPy, byte for byte, and the one writer of every JSON file.

Each value is written into a row of _WIDTH bytes, in slots: the sign,
the "0.000" of a fixed-notation value below 1, the 17 digits, the point,
digits 1-16 once more, the exponent and the separator. A mask per layout
class and count of significant digits (_keep_masks) keeps the bytes of
the item, in order.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

_ZEROS, _DIGITS, _POINT, _FRACTION, _EXP, _SEP, _WIDTH = 1, 6, 23, 24, 40, 45, 48
_FORMAT_BLOCK = 2048  # values per block: its temporaries and buffers stay near half a megabyte
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_BAND = 2.0**-40
_GROUP0 = 562  # 2 * 281: log10 puts floor(log10|v|) of the fast range in [-281, 280]
# the groups of four digits 0000-9999 in ASCII, a uint32 each; the rows
# are little-endian words, whatever the platform's byte order
_DIGITS2 = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype="<u2").astype(np.uint32)
_DIGITS4 = _DIGITS2.repeat(100) | np.tile(_DIGITS2, 100) << 16
_ASCII_ZEROS = np.frombuffer(b"0" * 8, dtype="<u8")[0]
_PREFIX = np.frombuffer(b"-0.000\0\0", dtype="<u8")[0]  # the sign and zeros slots
_SIGNED_ZEROS = np.frombuffer(b"0".ljust(8, b"\0") + b"-0".ljust(8, b"\0"), dtype="<u8")  # row starts


def format_rows(values: np.ndarray) -> Iterator[np.ndarray]:
    """The bytes of ``",".join("%.17g" % v for v in row) + "\\n"`` for each
    row of the 2-D float array values, in order, as uint8 arrays of a block
    of rows each.

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
    round(y) must have 17 digits: above 1e16 it does, and it may be 1e16
    itself only when y >= 1e16 - 0.04 > 1e16 - 0.05, below which the
    17-digit rounding takes one more digit. 0 and -0 are written from
    fixed rows, as "0" and "-0". Everything else goes through '%.17g'
    itself: values within the band of a tie (exact ties included), inf,
    nan, subnormals, the range outside the fast one, a y that rounds to
    1e17, and an x that log10 put off by one.
    """
    values = np.asarray(values, dtype=float)
    step = max(1, _FORMAT_BLOCK // max(values.shape[1], 1))
    formatter = _Formatter(step * values.shape[1])
    for i in range(0, len(values), step):
        yield formatter.block(values[i: i + step])


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
    decided = np.abs(np.abs(s - r) - 0.5) > _TIE_BAND
    decided &= (n > 10**16) & (n < 10**17) | (n == 10**16) & ((p - 1e16) + s >= -0.04)
    return n, decided


def _keep_masks() -> np.ndarray:
    """The keep masks: row L < _WIDTH keeps an item of L bytes written from
    the row's start, for a value that '%.17g' formats itself; row
    _WIDTH + 17 * c + k - 1 keeps a value of layout class c with k
    significant digits. Classes 2 * (x + 4) + neg are fixed notation at
    exponents x = -4..16, classes 42 + 2 * (exponent digits - 2) + neg
    scientific notation."""
    c = np.arange(46)[:, None, None]
    neg, fixed, x = c & 1, c < 42, (c >> 1) - 4
    lead = np.where(fixed, np.maximum(x + 1, 0), 1)  # digits before the point
    exp = np.where(fixed, 0, (c >> 1) - 17)  # bytes of "e+dd" or "e+ddd"
    k = np.arange(1, 18)[:, None]
    col = np.arange(_WIDTH)
    # the lead digits, then the point and digits lead..k-1 if k > lead; or,
    # below 1, "0.0..." and the k digits
    body = (_DIGITS <= col) & (col < _DIGITS + np.where(lead, lead, k)) | (col == _POINT) & (0 < lead) & (lead < k)
    body |= (0 < lead) & (_FRACTION + lead - 1 <= col) & (col < _FRACTION + k - 1)
    body |= (lead == 0) & (_ZEROS <= col) & (col < _ZEROS + 1 - x)
    keep = body | (col == 0) & (neg == 1) | (_EXP <= col) & (col < _EXP + exp) | (col == _SEP)
    return np.concatenate([(col < col[:, None]) | (col == _SEP), keep.reshape(-1, _WIDTH)])


_KEEP = _keep_masks().view(np.uint64)


class _Formatter:
    """One format_rows call's tables and buffers. What a value's group, its
    decimal exponent x and sign, fixes is derived for the groups the call
    meets: group g = 2 * x + neg + _GROUP0 holds 10**(16 - x) as hi + lo,
    the bytes from its exponent slot on and the first keep-mask row of its
    layout class (see _keep_masks). A block reuses the row and mask
    buffers of the one before."""

    def __init__(self, block: int):
        size = 2 * _GROUP0
        self.filled = np.zeros(size, dtype=bool)
        self.hi, self.lo = np.zeros(size), np.zeros(size)
        self.exp = np.zeros(size, dtype=np.uint64)
        self.mask_base = np.zeros(size, dtype=np.intp)
        self.out = np.empty((block, _WIDTH // 8), dtype="<u8")
        self.mask = np.empty((block, _WIDTH // 8), dtype=np.uint64)

    def _fill(self, g: int) -> None:
        x, neg = (g - _GROUP0) >> 1, g & 1
        self.hi[g], self.lo[g] = _pow10(16 - x)
        exp = b"" if -4 <= x < 17 else b"e%+03d" % x
        self.exp[g] = np.frombuffer(exp.ljust(_SEP - _EXP, b"\0") + b",\0\0", dtype="<u8")[0]
        self.mask_base[g] = _WIDTH + 17 * (2 * (x + 4) + neg if not exp else 42 + 2 * (len(exp) - 4) + neg)
        self.filled[g] = True

    def block(self, values: np.ndarray) -> np.ndarray:
        v = values.ravel()
        a = np.abs(v)
        fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # NaN fails both
        a[~fast] = 1.0  # so that log10 sees no 0, inf or nan and warns of nothing
        neg = np.signbit(v)
        group = 2 * np.floor(np.log10(a)).astype(np.int64) + neg + _GROUP0
        if not self.filled[group].all():
            for g in set(group[~self.filled[group]].tolist()):
                self._fill(g)
        n, decided = _significand(a, self.hi.take(group), self.lo.take(group))
        fast &= decided

        # digit 0, then digits 1-8 and 9-16 in ASCII, eight to a uint64
        n[~fast] = 10**16
        lead, rest = np.divmod(n, 10**16)
        digits = []
        for half in np.divmod(rest, 10**8):
            high, low = np.divmod(half, 10**4)
            digits.append(_DIGITS4.take(high) | _DIGITS4.take(low).astype(np.uint64) << 32)
        out = self.out[: len(v)]
        out[:, 0] = _PREFIX | (lead.astype(np.uint64) + ord("0")) << 48 | digits[0] << 56
        out[:, 1] = digits[0] >> 8 | digits[1] << 56
        out[:, 2] = digits[1] >> 8 | np.uint64(ord(".")) << 56
        out[:, 3], out[:, 4] = digits
        out[:, 5] = self.exp.take(group)
        out = out.view(np.uint8)
        # significant digits of 1-8 and 9-16: the bytes up to the last digit
        # that is not 0 (digits XOR "0" hold no byte above 9, so no float
        # rounding reaches the next power of 2)
        significant = [(np.frexp((d ^ _ASCII_ZEROS).astype(float))[1] + 7) >> 3 for d in digits]
        row = self.mask_base.take(group) + np.where(significant[1] > 0, 8 + significant[1], significant[0])

        slow = np.flatnonzero(~fast)
        if slow.size:
            zero = v[slow] == 0.0
            zeros, slow = slow[zero], slow[~zero]
            # "0" or "-0", from the row's start
            self.out[zeros, 0] = _SIGNED_ZEROS.take(neg[zeros])
            row[zeros] = 1 + neg[zeros]
        if slow.size:
            text = ["%.17g" % f for f in v[slow].tolist()]
            sizes = np.fromiter(map(len, text), dtype=np.intp, count=len(text))
            chars = np.frombuffer("".join(text).encode("ascii"), dtype=np.uint8)
            starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
            out[np.repeat(slow, sizes), np.arange(len(chars)) - starts] = chars
            row[slow] = sizes

        out[values.shape[1] - 1:: values.shape[1], _SEP] = ord("\n")
        mask = np.take(_KEEP, row, axis=0, out=self.mask[: len(v)])
        return out[mask.view(bool)]
