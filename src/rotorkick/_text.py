"""Exact decimal text of whole float64 arrays: "%.17g" % x, "%.2f" % x and
round(x, 12), byte for byte and bit for bit as Python gives them.

Each renderer forms |x| times a power of ten hi + lo as the unevaluated sum
ph + pl by Dekker's exact two-product (Numer. Math. 18, 1971), off by less than
2^-47 at the largest scale, 10^17, and prints the nearest integer's digits.  A
value within _TIE of halfway between two integers (exact ties included), nan,
±inf and values too large for the kernel are left to Python's exact formatting.
"""

from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0    # 2^27 + 1, Dekker's splitter
_TIE = 2.0 ** -30
_CELL = 28              # bytes of a "%.17g" cell, NUL-padded: rows of g17's out
_EXP_LIMIT = 99         # "%.17g" writes a two-digit exponent up to 10^(±99)


@functools.cache
def _tables() -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """hi and lo of 10^(16-k) at index k + _EXP_LIMIT + 1, for |k| <= _EXP_LIMIT + 1;
    and the four ASCII digits of each i < 10^4 as a uint32."""
    hi, lo = [], []
    for k in range(-_EXP_LIMIT - 1, _EXP_LIMIT + 2):
        if k <= 16:
            p = 10 ** (16 - k)
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:           # 1/p: int / int is correctly rounded, and so is the remainder's
            p = 10 ** (k - 16)
            hi.append(1 / p)
            m, d = hi[-1].as_integer_ratio()
            lo.append((d - m * p) / (d * p))
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    return (np.array(hi), np.array(lo)), digits.copy().view(np.uint32).ravel()


def _halves(a):
    """a as head + tail, each of at most 26 significant bits (Dekker's split)."""
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


def _product(a, hi, lo=0.0):
    """a (hi + lo) as the unevaluated sum ph + pl, for a >= 0: a hi exactly, plus a lo."""
    ph = a * hi
    (a_head, a_tail), (hi_head, hi_tail) = _halves(a), _halves(hi)
    return ph, (((a_head * hi_head - ph) + a_head * hi_tail + a_tail * hi_head)
                + a_tail * hi_tail + a * lo)


def _nearest(ph, pl) -> tuple[np.ndarray, np.ndarray]:
    """(m, near) for the sums ph + pl in [0, 2^63): m the nearest integer as int64,
    near True where the sum lies within _TIE of halfway between two integers."""
    whole = np.floor(ph)
    frac = (ph - whole) + pl            # in [-1/2, 3/2]: pl may carry a unit either way
    carry = np.floor(frac)
    frac -= carry
    m = whole.astype(np.int64) + carry.astype(np.int64) + (frac > 0.5)
    return m, np.abs(frac - 0.5) <= _TIE


def _round_scaled(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, flagged) for the float64 vector x: m = round-half-even(|x| 10^d) as int64,
    where flagged is False; 0 on the cells Python must round: near ties, nan, ±inf
    and |x| 10^d >= 2^50.  10^d is an exact double for d <= 22."""
    p = float(10 ** d)
    a = np.abs(x)
    regular = a < 2.0 ** 50 / p         # False for nan
    a[~regular] = 0.0
    m, near = _nearest(*_product(a, p))
    flagged = ~regular | near
    m[flagged] = 0
    return m, flagged


def _digits(m: np.ndarray, n: int) -> np.ndarray:
    """The last n decimal digits of each int64 m >= 0, leading zeros included, as
    ASCII: column i of an (n, len(m)) uint8 array."""
    lut = _tables()[1]
    groups = np.empty((-(-n // 4), m.size), np.int64)   # four digits each, the lowest last
    rest = m
    for g in groups[::-1]:
        upper = rest // 10 ** 4
        np.subtract(rest, upper * 10 ** 4, out=g)
        rest = upper
    text = lut[groups].view(np.uint8).reshape(len(groups), m.size, 4).transpose(0, 2, 1)
    return text.reshape(4 * len(groups), m.size)[-n:]


def g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write "%.17g" % x[i] into out[:, i], NUL-padded, for the float64 vector x.

    out is a (_CELL, len(x)) uint8 array.  A cell's rows: 0 the sign, 1-5 the
    "0.000" of a fixed value below 1, 6-23 the digits with the point after the
    first q of them, 24-27 "e±kk".  A finite x != 0 prints as the 17 digits of
    m = round(|x| 10^(16-k)), 10^16 <= m < 10^17, k its decimal exponent, with
    trailing zeros stripped: in fixed notation for -4 <= k < 17, as d.ddd e±kk
    otherwise.  |x| outside [1e-99, 1e100), whose exponents need three digits,
    goes to "%" itself.
    """
    (hi, lo), _ = _tables()
    a = np.abs(x)
    regular = (a >= 10.0 ** -_EXP_LIMIT) & (a < 10.0 ** (_EXP_LIMIT + 1))
    a[~regular] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    i = k + _EXP_LIMIT + 1
    ph, pl = _product(a, hi[i], lo[i])
    # log10 may be one off next to a power of ten: correct k where ph + pl
    # falls outside [10^16, 10^17).  ph is exact here, an integer above 2^53.
    low = (ph < 1e16) | ((ph == 1e16) & (pl < 0))
    high = (ph > 1e17) | ((ph == 1e17) & (pl >= 0))
    fix = np.flatnonzero(low | high)
    k[fix] += high[fix].astype(np.int64) - low[fix]
    i = k[fix] + _EXP_LIMIT + 1
    ph[fix], pl[fix] = _product(a[fix], hi[i], lo[i])
    m, near = _nearest(ph, pl)
    carry = m == 10 ** 17
    m -= carry * (9 * 10 ** 16)
    k += carry
    m *= regular            # 0, and the fallback cells, print as "0" below
    k *= regular
    fallback = regular & (near | (k > _EXP_LIMIT) | (m < 10 ** 16) | (m >= 10 ** 17))
    fallback |= ~regular & (x != 0)

    digits = _digits(m, 17)
    j = np.arange(18, dtype=np.uint8)[:, None]
    nd = np.maximum((j[1:] * (digits != ord("0"))).max(axis=0), 1)    # digits to print
    fixed = (k >= -4) & (k < 17)
    whole_part = fixed & (k >= 0)
    below_one = fixed & (k < 0)
    q = ((k + 1) * whole_part + ~whole_part).astype(np.uint8)   # digits before the point
    q[below_one] = nd[below_one]
    shown = np.maximum(nd, q)   # 100 prints 3 digits, though nd is 1
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    out[1] = below_one * np.uint8(ord("0"))
    out[2] = below_one * np.uint8(ord("."))
    for row, last in ((3, -2), (4, -3), (5, -4)):
        out[row] = (below_one & (k <= last)) * np.uint8(ord("0"))
    body = out[6:24]
    np.multiply(digits, j[:17] < q, out=body[:17])
    body[17] = 0
    body[1:] += digits * ((j[:17] >= q) & (j[:17] < shown))
    body += (j == q) * ((nd > q) * np.uint8(ord(".")))
    sci = ~fixed
    tens = np.abs(k).astype(np.uint8)
    ones = tens % 10
    tens //= 10
    out[24] = sci * np.uint8(ord("e"))
    out[25] = sci * (np.uint8(ord("+")) + (k < 0) * np.uint8(ord("-") - ord("+")))
    out[26] = sci * (tens + np.uint8(ord("0")))
    out[27] = sci * (ones + np.uint8(ord("0")))
    text = b"".join((b"%.17g" % v).ljust(_CELL, b"\0") for v in x[fallback].tolist())
    out[:, fallback] = np.frombuffer(text, np.uint8).reshape(-1, _CELL).T


def fixed2(x: np.ndarray) -> np.ndarray:
    """"%.2f" % x[i] for the float64 vector x, as row i of a uint8 array, NUL-padded.

    A row holds the sign, the digits before the point, the point and two
    digits; a cell that _round_scaled flags is left to "%.2f" itself.  The
    rows are columns of a character-major array, so each step is one long loop.
    """
    m, flagged = _round_scaled(x, 2)
    n_int = len("%d" % (m.max() // 100)) if m.size else 1   # digits before the point
    digits = _digits(m, n_int + 2)
    digits[:n_int - 1] *= m >= 10 ** np.arange(n_int + 1, 2, -1)[:, None]   # no leading zeros
    fallback = [b"%.2f" % v for v in x[flagged].tolist()]
    out = np.zeros((max([n_int + 4] + [len(t) for t in fallback]), x.size), np.uint8)
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    out[1:n_int + 1] = digits[:n_int]
    out[n_int + 1] = ord(".")
    out[n_int + 2:n_int + 4] = digits[n_int:]
    out[:, flagged] = np.frombuffer(b"".join(t.ljust(len(out), b"\0") for t in fallback),
                                    np.uint8).reshape(len(fallback), len(out)).T
    return out.T


def round12(x: np.ndarray) -> list[float]:
    """[round(v, 12) for v in x.tolist()] for the float64 vector x, bit for bit:
    the double nearest each value's 12-decimal rounding.  From |v| = 2^13 on, half
    an ulp of v is at least 2^-40 > 5e-13, so v is its own rounding."""
    m, flagged = _round_scaled(x, 12)
    own = np.abs(x) >= 2.0 ** 13
    values = np.where(own, x, np.copysign(m / 1e12, x))    # m / 10^12 rounded once, as round
    slow = flagged & ~own
    values[slow] = [round(v, 12) for v in x[slow].tolist()]
    return values.tolist()
