"""Read back the profile CSV that ``core.write_csv`` writes, in numpy, to
the floats that np.loadtxt reads from it; any other text np.loadtxt reads.
``SpeedProfile.from_csv`` imports this module at its first read, so a
process that reads no profile compiles none of it.

Each field is gathered right-aligned into 24 bytes, three uint64 lanes, of
byte classes: a digit its value, "." 0x10, "-" 0x20, "e" and "+" 0x40, ","
0x80, "\\n" 0x90 and any other byte 0xF0. A field in the writer's fixed
notation is W / 10**F. W < 10**18 < 2**64 and 10**F (F <= 23, 5**23 < 2**64)
are exact in x87's 64-bit significand, so their longdouble quotient is
rounded once, and rounding it to a double gives the double nearest W / 10**F
unless it lies on a midpoint of two doubles (its low 11 bits 0x400).
"""

import os
from functools import cache
from types import SimpleNamespace
from typing import Optional

import numpy as np

_U64 = np.uint64
_WIDTH = 24  # the widest field the lanes hold
_READ_BYTES = 1 << 16  # text parsed per block, at most


@cache
def _tables() -> Optional[SimpleNamespace]:
    """The reader's tables, built at its first call; None where np.longdouble
    is not x87's, with a 64-bit significand. ``classes``, the translate table;
    row L + 1 of ``keep`` and of ``banned``, the lanes of a field of L bytes:
    its digit, point and minus bits, and the bits that send it to float(): a
    minus after its first byte, an "e" or "+", and at L <= 2 any non-digit
    after the first byte or, at L = 1, at all (so ".", "-" and "-." are no
    numbers); by the frexp exponent 8w + 5 of a point at field byte w (0: no
    point), F = 23 - w digits after it, ``place`` and ``unit`` 10**(F + 1) and
    10**F in uint64, capped at 10**19, and ``den`` 10**F as a longdouble."""
    if np.finfo(np.longdouble).nmant != 63 or np.dtype(np.longdouble).itemsize != 16:
        return None
    classes = np.full(256, 0xF0, dtype=np.uint8)
    classes[48:58] = np.arange(10)
    for chars, cls in ((b".", 0x10), (b"-", 0x20), (b"e+", 0x40), (b",", 0x80), (b"\n", 0x90)):
        classes[list(chars)] = cls
    col, first = np.arange(_WIDTH), _WIDTH + 1 - np.arange(_WIDTH + 2)[:, None]
    keep = np.where(col >= first, 0x3F, 0).astype(np.uint8)
    banned = np.where(col > first, 0xE0, np.where(col == first, 0xC0, 0)).astype(np.uint8)
    banned[2:4, -1] = 0xF0
    f, point = np.zeros(8 * _WIDTH, dtype=np.int64), np.arange(8 * _WIDTH) % 8 == 5
    f[point] = np.arange(_WIDTH - 1, -1, -1)
    pow10 = _U64(10) ** np.minimum(f + point, 19).astype(_U64)
    return SimpleNamespace(
        classes=classes.tobytes(), keep=keep.view(_U64), banned=banned.view(_U64),
        place=pow10, unit=np.where(point, pow10 // _U64(10), _U64(1)),
        den=np.ldexp((_U64(5) ** f.astype(_U64)).astype(np.longdouble), f))


def _parse_block(buf: bytearray, stop: int, t: SimpleNamespace) -> Optional[np.ndarray]:
    """The floats of the fields of ``buf[_WIDTH:stop]``, lines of two ended
    by a newline, in file order: by the quotient above, and by float() where
    it lies on a midpoint, W is 10**18 or more, or the field has an exponent.
    None where a field is empty, wider than _WIDTH or not a number, or a
    line has not two fields: np.loadtxt reads the file then."""
    c = np.frombuffer(buf.translate(t.classes), np.uint8)
    sep = np.flatnonzero(c[_WIDTH:stop] >= 0x80)
    if sep.size & 1:
        return None
    lp = sep.copy()  # a field's length + 1
    lp[1:] -= sep[:-1]
    lp[0] += 1
    text = np.frombuffer(buf, np.uint8, stop - _WIDTH, _WIDTH)
    if lp.min() < 2 or lp.max() > _WIDTH + 1 or (text.take(sep).view("<u2") != 0x0A2C).any():
        return None
    lanes = np.ndarray((stop - _WIDTH + 1,), np.dtype("V24"), c, strides=(1,))[sep]
    lanes = lanes.view(_U64).reshape(-1, 3)
    bad = lanes & t.banned.take(lp, axis=0)
    slow = bad[:, 0] | bad[:, 1]
    slow |= bad[:, 2]
    slow = slow != 0
    lanes &= t.keep.take(lp, axis=0)
    # a point at field byte w is bit 8w + 4 of the lanes read as one number;
    # summed here, as a matrix product would page 0.15 MB of BLAS code in
    points = lanes & _U64(0x1010101010101010)
    f = points.astype(np.float64)
    e = np.frexp(f[:, 0] + f[:, 1] * 2.0 ** 64 + f[:, 2] * 2.0 ** 128)[1]
    if np.count_nonzero(e) != np.count_nonzero(c[_WIDTH:stop] == 0x10):
        return None  # a field with two points
    neg = lanes[:, 0] | lanes[:, 1]
    neg |= lanes[:, 2]
    neg = (neg & _U64(0x2020202020202020)) != 0
    # each lane's 8 digits, the first in its low byte, as one integer: the
    # pairs, then the quads, then the eight, by multiply-adds within the lane
    for mask, mul, shift in ((0x0F0F0F0F0F0F0F0F, 2561, 8), (0x00FF00FF00FF00FF, 6553601, 16),
                             (0x0000FFFF0000FFFF, 42949672960001, 32)):
        lanes &= _U64(mask)
        lanes *= _U64(mul)
        lanes >>= _U64(shift)
    slow |= lanes[:, 0] >= _U64(100)
    w = lanes[:, 0] * _U64(10 ** 16)
    w += lanes[:, 1] * _U64(10 ** 8)
    w += lanes[:, 2]
    w, low = np.divmod(w, t.place.take(e))  # drop the point's place, a zero
    w *= t.unit.take(e)
    w += low
    x = w.astype(np.longdouble)
    x /= t.den.take(e)
    slow |= (x.view(_U64)[::2] & _U64(0x7FF)) == _U64(0x400)
    out = x.astype(np.float64)
    np.negative(out, out=out, where=neg)
    for i in np.flatnonzero(slow).tolist():
        end = int(sep[i]) + _WIDTH
        try:
            out[i] = float(buf[end - int(lp[i]) + 1:end])
        except ValueError:
            return None
    return out


def read_columns(fb) -> Optional[list]:
    """The blocks of the columns s and h of the profile CSV open in binary in
    ``fb``, parsed a block of lines at a time by :func:`_parse_block`; None
    where it parses some block not, the header line is not exactly "s,h",
    no line follows it or the last line has no newline. The text is never
    held whole."""
    t = _tables()
    if t is None or fb.readline(5) != b"s,h\n":
        return None
    size = min(_READ_BYTES, max(os.fstat(fb.fileno()).st_size, 4096))  # some files say 0
    buf = bytearray(_WIDTH + size)  # the lanes of a first field reach before it
    view, columns, carry = memoryview(buf), [[], []], 0
    while got := fb.readinto(view[_WIDTH + carry:]):
        end = _WIDTH + carry + got
        stop = buf.rfind(b"\n", _WIDTH, end) + 1
        block = _parse_block(buf, stop, t) if stop else None
        if block is None:
            return None
        columns[0].append(block[0::2].copy())
        columns[1].append(block[1::2].copy())
        carry = end - stop
        buf[_WIDTH:_WIDTH + carry] = buf[stop:end]
    return None if carry or not columns[0] else columns
