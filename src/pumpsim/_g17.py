"""The numpy kernel behind `output.blocks` for all but small tables: the text
of `'%.17g' % x` for a whole table, byte for byte, in blocks of whole lines.
See `output.blocks` for why its digits are exact. The module is imported on
the first call that needs it, and builds its tables then."""

import numpy as np

# The kernel formats the values whose rounding it can prove exact: zeros,
# and magnitudes in [_FAST_MIN, _FAST_MAX), where every scaled product and
# Dekker split stays normal and finite. It looks up 10^s for s = 16 - k over
# the exponents k of that range, with one more either side for the
# correction of k.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_S_MIN, _S_MAX = 16 - 281, 16 + 282
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into 26+27 bits
# A scaled value whose fraction lies closer than this to one half goes to
# Python: the kernel's error is below 1e-14 (see output.blocks).
_TIE_MARGIN = 2.0 ** -20
# Values per block: the largest temporary, 32 bytes a value, stays below the
# 128 KiB from which malloc maps fresh pages on every call. Each block's
# compacted text is one write to the file.
_BLOCK = 4000
# The text of a value, one row per byte, NUL in the rows it leaves unused:
# the sign, the "0.000" of fixed notation below 1, and 18 rows for the 17
# digits and the point. The exponent and the separator follow in 8 bytes.
_SIGN, _LEAD, _BODY, _ROWS = 0, 1, 6, 24
_LEAD_AT = np.array([[0], [0], [1], [2], [3]])  # row i shows when lead > _LEAD_AT[i]
_LEAD_TEXT = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_ROW = np.arange(18, dtype=np.uint8)[:, None]
_NTH = np.arange(1, 18, dtype=np.uint8)[:, None]
_ZERO, _POINT, _MINUS = np.uint8(ord("0")), np.uint8(ord(".")), np.uint8(ord("-"))
# "0000".."9999" in ASCII, four bytes to a uint32
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                  axis=-1).view(np.uint32).ravel()
# The 8 bytes after a value's digits, at 2 * (k + 331) for an exponent k and
# at 0 for none, plus 1 for the last value of a row: the exponent, if any,
# then the ',' that ends every value but a row's last, which ends in '\n'.
_SUFFIX_TEXT = [e + sep for e in [b""] + [b"e%+03d" % k for k in range(-330, 331)]
                for sep in (b",", b"\n")]
_SUFFIXES = np.array(_SUFFIX_TEXT, dtype="S8").view(np.uint64)


def _powers_of_ten():
    """10^s for s in [_S_MIN, _S_MAX] as double-doubles hi + lo, each part
    correctly rounded from exact integers (Python's int / int rounds
    correctly), so |10^s - hi - lo| <= 2^-106 10^s. Returns hi's Dekker
    halves and lo."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            h = float(10 ** s)
            hi.append(h)
            lo.append(float(10 ** s - int(h)))
        else:
            d = 10 ** -s
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (den * d))
    hi = np.array(hi)
    c = hi * _SPLIT
    head = c - (c - hi)
    return head, hi - head, np.array(lo)


_HEAD, _TAIL, _LO = _powers_of_ten()


def _scaled(ax, k):
    """V = ax * 10^(16-k) as floor(V) and N, V rounded to nearest, both in
    int64: the product of ax and the double-double 10^(16-k) is p + e with
    p = fl(ax * hi) and e exact (Dekker's two-product), plus ax * lo.
    `in_range` says 10^16 <= floor(V) < 10^17; `ok` adds that V's fraction
    is not within _TIE_MARGIN of one half."""
    i = 16 - k - _S_MIN
    hh, ht = _HEAD[i], _TAIL[i]
    p = ax * (hh + ht)
    c = ax * _SPLIT
    ah = c - (c - ax)
    al = ax - ah
    r = ((ah * hh - p) + ah * ht + al * hh) + al * ht + ax * _LO[i]
    whole = np.floor(r)
    frac = r - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    in_range = (floor >= 10 ** 16) & (floor < 10 ** 17)
    ok = in_range & (np.abs(frac - 0.5) > _TIE_MARGIN)
    return floor, floor + (frac > 0.5), in_range, ok


def _digits(N):
    """The 17 digits of each N < 10^17 in ASCII, one row per digit and one
    column per value, between a row of '0' above and one below."""
    z = np.full((19, N.size), _ZERO, dtype=np.uint8)
    m = N // 10
    z[17] = N - m * 10 + _ZERO
    hi = m // 100000000
    lo = (m - hi * 100000000).astype(np.uint32)
    hi = hi.astype(np.uint32)
    quads = np.empty((4, N.size), dtype=np.uint32)
    quads[0] = _QUADS[hi // 10000]
    quads[1] = _QUADS[hi % 10000]
    quads[2] = _QUADS[lo // 10000]
    quads[3] = _QUADS[lo % 10000]
    z[1:17] = quads.view(np.uint8).reshape(4, N.size, 4).transpose(0, 2, 1).reshape(16, N.size)
    return z


def _decimal(x):
    """Each value as k, N and ok: |x| rounds to N 10^(k-16) at 17 digits,
    10^16 <= N < 10^17 (0 for a zero), exactly where `ok` holds."""
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= _FAST_MIN) & (ax < _FAST_MAX)
    work = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(work)).astype(np.int64)
    floor, rounded, in_range, ok = _scaled(work, k)
    retry = np.flatnonzero(~in_range)  # log10 put k one off
    if retry.size:
        k[retry] += np.where(floor[retry] < 10 ** 16, -1, 1)
        _, rounded[retry], _, ok[retry] = _scaled(work[retry], k[retry])
    ok &= fast | zero
    rounded[zero] = 0
    carry = rounded == 10 ** 17  # 9.99...95 rounds up to the next power
    rounded[carry] = 10 ** 16
    k += carry
    return k, rounded, ok


def _block(x, ncols):
    """A row-major block of values, `ncols` values to a line, as one uint8
    array of their `%.17g` text: ',' between a line's values, '\n' after
    each line."""
    k, rounded, ok = _decimal(x)

    # One column per value. %g writes fixed notation for -4 <= k < 17: after
    # "0." and -k-1 zeros below 1, or with the point after digit k. Otherwise
    # it puts the point after the first digit and adds the exponent. It drops
    # trailing zeros, and the point when no digit follows it.
    fixed = (k >= -4) & (k < 17)
    lead = np.where(fixed & (k < 0), -k, 0)
    point = np.where(fixed, np.where(k < 0, 17, k + 1), 1).astype(np.uint8)
    z = _digits(rounded)
    nd = ((z[1:18] != _ZERO) * _NTH).max(axis=0)  # digits to the last nonzero
    shown = np.where(lead > 0, nd, np.where(nd <= point, point, nd + 1))
    text = np.empty((_ROWS, x.size), dtype=np.uint8)
    text[_SIGN] = np.signbit(x) * _MINUS
    text[_LEAD:_BODY] = (lead > _LEAD_AT) * _LEAD_TEXT
    body = text[_BODY:]
    np.copyto(body, z[1:19])
    body += (z[0:18] - body) * (_ROW > point)  # digits after the point move down
    body += (_POINT - body) * (_ROW == point)
    body *= _ROW < shown
    suffix = np.where(fixed | ~ok, 0, k + 331) * 2
    suffix[ncols - 1::ncols] += 1
    for j in np.flatnonzero(~ok):
        raw = np.frombuffer(("%.17g" % x[j]).encode("ascii"), dtype=np.uint8)
        text[:, j] = 0
        text[:raw.size, j] = raw

    out = np.empty((x.size, _ROWS + 8), dtype=np.uint8)
    out[:, :_ROWS] = text.T
    out[:, _ROWS:].view(np.uint64)[:, 0] = _SUFFIXES[suffix]
    return out[out != 0]


def table_blocks(table):
    """Yields the `%.17g` text of the 2-D float64 `table`, one comma-separated
    line per row, as one uint8 array of whole lines per block of rows."""
    nrows, ncols = table.shape
    step = max(1, _BLOCK // ncols)
    for start in range(0, nrows, step):
        yield _block(table[start:start + step].ravel(), ncols)
