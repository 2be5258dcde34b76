"""The ``repr`` of every value of a float array, computed for the whole array
at once: the shortest decimal that reads back as the same double, the closest
one when several are as short, laid out as ``repr`` lays it out.  NaN gives
an empty cell.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of Java's ``Double.toString``), on uint64
arrays.  Java keeps at least two digits (a guard ``s >= 100`` and a tenfold
``c`` for the tiniest subnormals print 5e-324 as 4.9E-324); ``repr`` keeps
the shortest, so both are left out.  Each double v = c 2^q is scaled by a
126-bit approximation g of 10^-k (one of 617, for k in [-324, 292]); three
products round to odd give v and the two ends of its rounding interval in
units of 10^k / 4, and from them the one decimal with fewest digits in the
interval.  The tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

K_MIN = -324
# 10**m for m = 0..17; a decimal here has at most 17 digits.
_POW10 = np.array([10**m for m in range(18)], dtype=np.int64)
M32 = 0xFFFF_FFFF
M63 = 2**63 - 1

# Each cell is laid out in one row of bytes: the sign and any "0." and
# zeros before the digits; 17 digits with room for the point; the exponent
# and a separator.  The bytes that stay 0 are deleted.
ROW = np.dtype([("head", "V6"), ("body", "V18"), ("tail", "V6")])
SEP = ","
# The most values per pass, in passes of equal size.  Each pass holds about
# 0.75 MB of temporaries; passes of 3072 values took longer per value than
# passes of 2048, their temporaries being too large to reuse freed memory.
CHUNK = 2048


def _rows(texts, dtype) -> np.ndarray:
    """Each text as the bytes of one ``dtype``, padded with zeros."""
    width = np.dtype(dtype).itemsize
    return np.array([t.encode().ljust(width, b"\0") for t in texts]).view(dtype)


@functools.cache
def _tables():
    """The limbs of g for each k, and the byte tables of the layout."""
    gs = []
    for k in range(K_MIN, 293):
        # 10**-k = beta 2**r with 2**125 <= beta < 2**126, and g = floor(beta) + 1.
        r = ((-k * 913_124_641_741) >> 38) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        gs.append(num // den + 1)
    # The 32-bit limbs of g1 = g >> 63 and g0 = g mod 2**63, high first.
    g1 = np.array([g >> 63 for g in gs], dtype=np.uint64)
    g0 = np.array([g & M63 for g in gs], dtype=np.uint64)
    limbs = np.stack((g1 >> 32, g1 & M32, g0 >> 32, g0 & M32))
    pairs = _rows([f"{i:02d}" for i in range(100)], np.uint16)
    head = _rows([s + p for s in ("", "-") for p in ("", "0.", "0.0", "0.00", "0.000")], "V6")
    # "e-324," to "e+308,": a sign and two or three digits; then "," alone.
    e = np.arange(K_MIN, 309)
    tail = np.zeros((len(e) + 1, 6), dtype=np.uint8)
    tail[:-1, 0], tail[:-1, 1] = ord("e"), np.where(e < 0, ord("-"), ord("+"))
    tail[:-1, 2] = np.where(abs(e) >= 100, abs(e) // 100 + ord("0"), 0)
    tail[:-1, 3], tail[:-1, 4] = abs(e) // 10 % 10 + ord("0"), abs(e) % 10 + ord("0")
    tail[:, 5] = ord(SEP)
    tail = tail.view("V6")[:, 0]
    special = _rows(
        [t.ljust(ROW.itemsize - 1, "\0") + SEP for t in ("0.0", "-0.0", "inf", "-inf", "")],
        ROW,
    )
    # For each point position p (0 for none) and number m of digits kept:
    # which bytes of the body take a digit from before the point, which from
    # after it, and the point.
    p, m, j = np.ogrid[:17, :18, :18]
    masks = np.zeros((3, 17, 18, 18), dtype=np.uint8)
    masks[0] = (j < m) & ((p == 0) | (j < p))
    masks[1] = (p > 0) & (j > p) & (j <= m)
    masks[2] = ((p > 0) & (j == p)) * ord(".")
    return limbs, pairs, head, tail, special, masks.reshape(3, -1, 18)


def _round_to_odd(b3, b2, b1, b0, cp):
    """floor(g cp / 2**127), its lowest bit set if the rest was not 0, for
    g = (b3 2**32 + b2) 2**63 + b1 2**32 + b0, each limb below 2**32 and
    b3, b1 below 2**31, and cp below 2**59 (Giulietti, section 9.9).  Most
    steps work in place: fresh temporaries cost more than the products."""
    a1 = cp >> 32
    a0 = cp & M32
    t = np.empty_like(cp)
    # x = (g0 cp) >> 64; a1 < 2**27 keeps every sum below 2**64.
    x = b0 * a0
    x >>= 32
    x += np.multiply(b0, a1, out=t)
    x += np.multiply(b1, a0, out=t)
    x >>= 32
    x += np.multiply(b1, a1, out=t)
    # g1 cp = y1 2**64 + y0; z = (y0 >> 1) + x.
    z = b2 * a0
    y1 = z >> 32
    y1 += np.multiply(b2, a1, out=t)
    y1 += np.multiply(b3, a0, out=t)
    z &= M32
    z |= np.left_shift(y1, 32, out=t)
    z >>= 1
    z += x
    y1 >>= 32
    y1 += np.multiply(b3, a1, out=t)
    y1 += np.right_shift(z, 63, out=t)
    z &= M63
    z += M63
    z >>= 63
    y1 |= z
    return y1


def cells(values: np.ndarray) -> list:
    """``repr`` of each value as a Python float, an empty cell for NaN."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    out = []
    if len(x):
        for part in np.array_split(x, -(-len(x) // CHUNK)):
            out += _cells(part)
    return out


def _cells(x: np.ndarray) -> list:
    """``cells`` of one pass: a contiguous float64 array."""
    n = len(x)
    limbs, pairs, head, tail, special, masks = _tables()
    bits = x.view(np.uint64)
    neg = (bits >> 63).astype(np.intp)
    be = (bits >> 52).astype(np.int64) & 0x7FF
    frac = bits & (2**52 - 1)
    # Zeros, infinities and NaN take a row of their own below; 1.0 stands in.
    odd = (be == 0x7FF) | ((be == 0) & (frac == 0))
    any_odd = odd.any()
    if any_odd:
        # 0.0, -0.0, inf, -inf and NaN, the rows of ``special``.
        code = np.where(be == 0x7FF, np.where(frac != 0, 4, 2 + neg), neg)[odd]
        be[odd], frac[odd] = 0x3FF, 0
    c = np.where(be > 0, frac | 2**52, frac)
    q = np.maximum(be, 1) - 1075
    # The interval below a power of two is half as wide, except at the
    # smallest normal, whose neighbour below is the largest subnormal.
    irregular = (frac == 0) & (be > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    # 4c and its interval's ends, times 2**h.
    ends = np.empty((3, n), dtype=np.uint64)
    cp = np.left_shift(c, h + 2, out=ends[1])
    step = np.uint64(2) << h
    np.subtract(cp, step >> irregular.astype(np.uint64), out=ends[0])
    np.add(cp, step, out=ends[2])
    vbl, vb, vbr = _round_to_odd(*limbs.take(k - K_MIN, axis=1), ends).view(np.int64)
    # The interval is closed iff c is even: ties read back to the even double.
    out = (c & 1).view(np.int64)
    lo, hi = vbl + out, vbr - out
    s = vb >> 2
    # The shorter candidates: the multiples of ten around s.
    sp = s // 10 * 10
    upin = lo <= sp << 2
    short = upin != ((sp << 2) + 40 <= hi)
    uin = lo <= s << 2
    # Both s and s + 1 in the interval: the closer, the even one on a tie.
    pick_s = np.where(uin != ((s << 2) + 4 <= hi), uin, (vb & 3) + (s & 1) <= 2)
    f = np.where(short, sp + 10 * ~upin, s + ~pick_s)

    # f as 17 digits: a pair of "0" and the first digit, then eight pairs.
    width = np.searchsorted(_POW10[1:], f, side="right") + 1
    f *= _POW10[17 - width]
    point = width + k  # the value is 0.f times 10**point
    groups = np.empty((2, n), dtype=np.uint32)
    groups[0] = high = f // 10**8
    groups[1] = f - high * 10**8
    digit_pairs = np.empty((9, n), dtype=np.uint32)
    for i in range(4):
        high = groups // 100
        digit_pairs[4 - i : 9 - i : 4] = groups - high * 100
        groups = high
    digit_pairs[0] = groups[0]
    digits = np.ascontiguousarray(pairs.take(digit_pairs).T).view(np.uint8)
    # The digits before the trailing zeros.
    nd = 17 - np.argmax(digits[:, 17:0:-1] != ord("0"), axis=1)
    digits = digits.ravel()

    # repr's layout: d.ddde-XX below 1e-4 and from 1e16, else positional.
    sci = (point <= -4) | (point > 16)
    small = ~sci & (point <= 0)
    kept = np.where(sci | small, nd, np.maximum(nd, point + 1))
    dot = np.where(sci, nd > 1, np.where(small, 0, point))
    left, right, dots = (m.take(18 * dot + kept, axis=0).ravel() for m in masks)
    # Byte j of a body is digit j + 1 before the point, digit j after it.
    body = dots
    body[:-1] += digits[1:] * left[:-1]
    body += digits * right
    row = np.empty(n, dtype=ROW)
    row["head"] = head.take(5 * neg + np.where(small, 1 - point, 0))
    row["body"] = body.view("V18")
    row["tail"] = tail.take(np.where(sci, point - 1 - K_MIN, -1))
    if any_odd:
        row[odd] = special[code]
    cells = row.tobytes().translate(None, b"\0").decode().split(SEP)
    cells.pop()
    return cells
