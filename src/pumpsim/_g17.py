"""The numpy kernel behind `output.blocks` for all but small tables: the text
of `'%.17g' % x` for a whole table, byte for byte, in blocks of whole lines.
See `output.blocks` for why its digits are exact. The module is imported on
the first call that needs it, and builds its tables then."""

from functools import lru_cache

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
# Bytes per block: the largest temporary, a slot of text and suffix per
# value, stays below the 128 KiB from which malloc maps fresh pages on every
# call. Each block's compacted text is one write to the file.
_BLOCK_BYTES = 128_000
# The text of a value, one row per byte, NUL in the rows it leaves unused:
# the sign, the "0.000" of fixed notation below 1, and 18 rows for the 17
# digits and the point. The suffix follows in a whole number of 8-byte words.
_SIGN, _LEAD, _BODY, _ROWS = 0, 1, 6, 24
_LEAD_AT = np.uint8([[0], [0], [1], [2], [3]])  # row i shows when lead > _LEAD_AT[i]
_LEAD_TEXT = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_ROW = np.arange(18, dtype=np.uint8)[:, None]
_NTH = np.arange(1, 18, dtype=np.uint8)[:, None]
_ZERO, _POINT, _MINUS = np.uint8(ord("0")), np.uint8(ord(".")), np.uint8(ord("-"))
# "0000".."9999" in ASCII, four bytes to a uint32
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                  axis=-1).view(np.uint32).ravel()
# A value's exponent, at k + 331 for k, and at 0 for none
_EXPONENTS = [b""] + [b"e%+03d" % k for k in range(-330, 331)]


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


@lru_cache(maxsize=8)
def _layout(keep):
    """Rows per block, a block's kept values, their suffix offsets and the
    suffix table for the kept-column flags `keep`: at t * len(_EXPONENTS) + e,
    exponent e (at most 5 bytes) then tail t, NUL-padded to whole uint64 words."""
    cols = [j for j, kept in enumerate(keep) if kept]
    tails = [b",0" * (end - col - 1) + b"," for col, end in zip(cols, cols[1:] + [len(keep)])]
    tails[-1] = tails[-1][:-1] + b"\n"
    distinct = list(dict.fromkeys(tails))
    width = -(-(5 + max(map(len, distinct))) // 8) * 8
    text = np.array([e + t for t in distinct for e in _EXPONENTS], dtype=f"S{width}")
    step = max(1, _BLOCK_BYTES // (_ROWS + width) // len(cols))
    mask = np.tile(keep, step)
    tail = np.tile([distinct.index(t) * len(_EXPONENTS) for t in tails], step)
    suffixes = text.view(np.uint64).reshape(text.size, -1)
    for array in (mask, tail, suffixes):
        array.setflags(write=False)
    return step, mask, tail, suffixes


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
    z[1:17].reshape(4, 4, -1)[...] = quads.view(np.uint8).reshape(4, -1, 4).transpose(0, 2, 1)
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


def _block(x, tail, suffixes):
    """Values `x` as the bytes of their `%.17g` text, each followed by its
    suffix: the row of `suffixes` at its offset in `tail` plus the index of
    its exponent."""
    k, rounded, ok = _decimal(x)

    # One column per value. %g writes fixed notation for -4 <= k < 17: after
    # "0." and -k-1 zeros below 1, or with the point after digit k. Otherwise
    # it puts the point after the first digit and adds the exponent. It drops
    # trailing zeros, and the point when no digit follows it.
    fixed = (k >= -4) & (k < 17)
    lead = (-k * (fixed & (k < 0))).astype(np.uint8)
    point = np.where(fixed, np.where(k < 0, 17, k + 1), 1).astype(np.uint8)
    z = _digits(rounded)
    nd = ((z[1:18] != _ZERO) * _NTH).max(axis=0)  # digits to the last nonzero
    shown = np.maximum(point, nd + (nd > point))  # to the point, or past it with it
    shown -= (shown - nd) * (lead > 0)  # below 1: the digits alone
    text = np.empty((_ROWS, x.size), dtype=np.uint8)
    text[_SIGN] = np.signbit(x) * _MINUS
    text[_LEAD:_BODY] = (lead > _LEAD_AT) * _LEAD_TEXT
    body = text[_BODY:]
    np.copyto(body, z[1:19])
    body += (z[0:18] - body) * (_ROW > point)  # digits after the point move down
    body += (_POINT - body) * (_ROW == point)
    body *= _ROW < shown
    suffix = (k + 331) * (ok & ~fixed) + tail[:x.size]
    for j in np.flatnonzero(~ok):
        raw = np.frombuffer(("%.17g" % x[j]).encode("ascii"), dtype=np.uint8)
        text[:, j] = 0
        text[:raw.size, j] = raw

    out = np.empty((x.size, _ROWS + 8 * suffixes.shape[1]), dtype=np.uint8)
    out[:, :_ROWS] = text.T
    out[:, _ROWS:].view(np.uint64)[:] = suffixes.take(suffix, axis=0)
    return out.tobytes().translate(None, b"\0")


def table_blocks(table):
    """Yields the `%.17g` text of the 2-D float64 `table`, one comma-separated
    line per row, as bytes of whole lines per block of at most _BLOCK_BYTES
    of slots. Column 0 and each column holding more than +0.0 go through the
    kernel, each with the tail ',0' per skipped column after it, then ',' or '\n'."""
    keep = table.view(np.uint64).any(axis=0)  # +0.0 is the one double with no bit set
    keep[0] = True
    step, mask, tail, suffixes = _layout(tuple(keep.tolist()))
    for start in range(0, len(table), step):
        rows = table[start:start + step].ravel()
        yield _block(rows[mask[:rows.size]], tail, suffixes)
