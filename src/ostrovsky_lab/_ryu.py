"""Float tables formatted as ``repr`` spells each cell: Ryu (Adams, PLDI 2018) in uint64 arithmetic."""

import functools

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_TEN = 10 ** np.arange(20, dtype=np.uint64)
# byte slots of a cell's 28-byte source row: '0', '.', '-', 17 right-aligned
# digits, the exponent's sign and 3 digits, 'e', the cell's separator, and a
# pad byte that the writer drops
_ZERO, _DOT, _MINUS, _EXP, _E, _SEP, _PAD = 0, 1, 2, 20, 24, 25, 26
_WIDTH = 24  # the longest float repr, -2.2250738585072014e-308
_DECPT = 330  # decimal points run from -323 (5e-324) to 309 (1.8e308)


@functools.cache
def _ryu_constants() -> tuple[np.ndarray, ...]:
    """Ryu's constants per biased exponent of a double (names as in d2s.c).

    Limbs (4, 2047) of the 125-bit multiplier (2^k / 5^q rounded up if e2 >= 0, else 5^i
    truncated; exact from Python ints), shifts from the product to vr, vp and vm, their decimal
    exponent, the mask of mv's q low bits (e2 < 0, q < 63; else all ones), 5^q (e2 >= 0,
    q <= 21; else 0), and the rows whose bounds d2s.c adjusts.
    """
    e2 = np.maximum(np.arange(2047), 1) - 1077
    pos, ne = e2 >= 0, np.abs(e2)
    q = np.where(pos, (e2 * 78913 >> 18) - (e2 > 3), (ne * 732923 >> 20) - (ne > 1))
    i = ne - q
    shift = np.where(pos, q - e2 + 125 + (q * 1217359 >> 19), q + 124 - (i * 1217359 >> 19))
    five, n_inv = [5**k for k in range(int(i[~pos].max()) + 1)], int(q[pos].max()) + 1
    mul = [(1 << 124 + f.bit_length()) // f + 1 for f in five[:n_inv]]
    mul += [(f << 125) >> f.bit_length() for f in five]
    limbs = np.array([[v >> s & 0xFFFFFFFF for v in mul] for s in (0, 32, 64, 96)], np.uint64)
    limbs = limbs[:, np.where(pos, q, n_inv + i)]
    tail_mask = np.where(~pos & (q < 63), (1 << np.clip(q, 0, 62)) - 1, -1).astype(np.uint64)
    p5 = np.where(pos & (q <= 21), 5 ** np.clip(q, 0, 21), 0).astype(np.uint64)
    tables = (limbs, (shift - 64).astype(np.uint64), (128 - shift).astype(np.uint64),
              np.where(pos, q, q + e2), tail_mask, p5, (p5 > 0) | (~pos & (q <= 1)))
    for a in tables:
        a.flags.writeable = False  # every caller shares them
    return tables


@functools.cache
def _layout_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of the cell layout.

    Source slots of class (negative * 24 + layout) * 17 + digits - 1, padded, separator last;
    per decpt + _DECPT (value 0.DIGITS x 10^decpt), the layout (decpt + 3 in fixed notation,
    -4 < decpt <= 16, else 20 + 2 * (exponent < 0) + (|exponent| >= 100)) and exponent word;
    words of 0000-9999 and of slots 0-3 per leading digit; digits of 2^(e - 1023) per biased e.
    """
    rows = []  # non-negative values, at most _WIDTH - 1 bytes
    for layout, ndig in ((a, d) for a in range(24) for d in range(1, 18)):
        digits, decpt = list(range(_EXP - ndig, _EXP)), layout - 3
        if layout >= 20:
            body = digits[:1] + ([_DOT] + digits[1:] if ndig > 1 else [])
            body += [_E, _EXP] + list(range(_EXP + 2 - (layout & 1), _EXP + 4))
        elif decpt <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < ndig:
            body = digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            body = digits + [_ZERO] * (decpt - ndig) + [_DOT, _ZERO]
        rows.append(body + [_PAD] * (_WIDTH - 1 - len(body)))
    rows, column = np.array(rows, np.intp), np.ones((len(rows), 1), np.intp)
    rows = np.vstack([np.hstack([rows, _PAD * column, _SEP * column]),
                      np.hstack([_MINUS * column, rows, _SEP * column])])
    decpt = np.arange(-_DECPT, 320)
    exponent = np.abs(decpt - 1)
    layouts = np.where((decpt > -4) & (decpt <= 16), decpt + 3, 20 + 2 * (decpt < 1) + (exponent >= 100))
    words = np.column_stack([np.where(decpt < 1, ord("-"), ord("+")),
                             exponent[:, None] // [100, 10, 1] % 10 + 48])
    pairs = np.array([[48 + i // 10, 48 + i % 10] for i in range(100)])
    quads = np.hstack([np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))])
    lead = np.column_stack([np.tile([48, 46, 45], (10, 1)), np.arange(10) + 48])
    as_words = [np.ascontiguousarray(a, np.uint8).view(np.uint32).ravel() for a in (words, quads, lead)]
    tables = (rows, layouts, *as_words, np.array([1] * 1023 + [len(str(2**e)) for e in range(64)]))
    for a in tables:
        a.flags.writeable = False  # every caller shares them
    return tables


def _shortest(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's (digits, e10) of finite non-zero doubles, |v| ~ digits * 10^e10.

    The shortest digits that round-trip and, of those, the closest to |v| (ties to even), as
    ``repr`` prints; vr, vp and vm (names as in d2s.c) come from one exact product.
    """
    limbs, right, left, e10, tail_mask, p5, adjust = _ryu_constants()
    bits = v.view(np.uint64)
    frac = bits & np.uint64((1 << 52) - 1)
    b = (bits >> 52).astype(np.intp) & 0x7FF
    mv = (frac | (b != 0).astype(np.uint64) << 52) << 2
    even, mm_shift = (frac & 1) == 0, (frac != 0) | (b <= 1)
    x0, x1 = (mv - 2) & _M32, (mv - 2) >> 32
    m = np.take(limbs, b, axis=1)
    # 32-bit columns of the product, carries pending; x1 < 2^23, so x1 * m[j] fits a column whole
    s, p = np.concatenate([np.zeros((1, v.size), np.uint64), x1 * m]), np.empty_like(mv)
    for j in range(4):
        np.multiply(x0, m[j], out=p)
        s[j + 1] += p >> 32
        s[j] += np.bitwise_and(p, _M32, out=p)
    # vr, vp and vm add 2, 4 and 1 - mm_shift multipliers to the product (0 - 1 is all ones)
    c = np.stack([m << 1, m << 2, m & (np.uint64(0) - ~mm_shift)], axis=1)
    t = c[0] + s[0]
    for i in (1, 2, 3):
        t >>= 32
        t += c[i] + s[i]
        if i == 2:
            low = t & _M32
    vr, vp, vm = (((t >> 32) + s[4]) << np.take(left, b)) | ((t << 32 | low) >> np.take(right, b))
    vr_tz, vm_tz = (mv & np.take(tail_mask, b)) == 0, np.zeros_like(even)
    sel = np.flatnonzero(np.take(adjust, b))
    if sel.size:  # the bounds near large integers
        mvs, ev, mm, pow5 = mv[sel], even[sel], mm_shift[sel], p5[b[sel]]
        big, five, pow5 = pow5 > 0, mvs % 5 == 0, np.maximum(pow5, 1)
        vr_tz[sel] |= big & five & (mvs % pow5 == 0)
        vm_tz[sel] = ev & ((big & ~five & ((mvs - 1 - mm) % pow5 == 0)) | (~big & mm))
        vp[sel] -= ~ev & (~big | (~five & ((mvs + 2) % pow5 == 0)))
    # drop the k digits that leave a multiple of 10^k in (vm, vp]: 10^k <= vp - vm
    # (at most 300), and one more for each zero ending the one multiple of 10^(k+1)
    width = vp - vm
    k = (width >= 10).astype(np.intp) + (width >= 100)
    idx = np.flatnonzero(vp % np.take(_TEN, k + 1) < width)
    while idx.size:
        k[idx] += 1
        idx = idx[vp[idx] % _TEN[k[idx] + 1] < width[idx]]
    p, below = np.take(_TEN, k), np.take(_TEN, np.maximum(k, 1) - 1)
    out, vm_k = vr // p, vm // p
    rem = vr - out * p
    vr, last = out, rem // below
    vr_tz &= rem == last * below
    vm_tz &= vm == vm_k * p
    vm = vm_k
    idx = np.flatnonzero(vm_tz)
    idx = idx[vm[idx] % 10 == 0]
    while idx.size:  # vm's own trailing zeros, where vm is a representation
        vr_tz[idx] &= last[idx] == 0
        last[idx] = vr[idx] % 10
        vr[idx] //= 10
        vm[idx] //= 10
        k[idx] += 1
        idx = idx[vm[idx] % 10 == 0]
    last[vr_tz & (last == 5) & ((vr & 1) == 0)] = 4
    return vr + (((vr == vm) & ~(even & vm_tz)) | (last >= 5)), np.take(e10, b) + k


def format_rows(table: np.ndarray) -> bytes:
    """CSV bytes of a (rows, columns) table of finite doubles, each cell as ``repr`` spells it."""
    templates, layouts, exponents, quads, lead, digit_count = _layout_tables()
    v = table.ravel()
    plain = v != 0.0
    digits, e10 = _shortest(v if plain.all() else np.where(plain, v, 1.0))
    digits[~plain], e10[~plain] = 0, 0
    # a binade of float(digits) holds two digit counts; no power of ten is near a power of two
    ndig = np.take(digit_count, digits.astype(np.float64).view(np.int64) >> 52)
    ndig += digits >= np.take(_TEN, ndig)
    decpt = e10 + ndig + _DECPT
    cls = (np.signbit(v) * 24 + np.take(layouts, decpt)) * 17 + ndig - 1
    src = np.empty((v.size, 7), np.uint32)
    for word, power in enumerate((16, 12, 8, 4, 0)):
        group = digits // _TEN[power]
        src[:, word] = np.take(quads if power < 16 else lead, group - group // 10000 * 10000)
    src[:, 5] = np.take(exponents, decpt)
    separators = b"e,\0\0" * (table.shape[1] - 1) + b"e\n\0\0"
    src.reshape(*table.shape, 7)[:, :, 6] = np.frombuffer(separators, np.uint32)
    slots = np.take(templates, cls, axis=0)
    slots += np.arange(0, src.nbytes, 28)[:, None]
    cells = src.view(np.uint8).ravel()[slots]
    return cells[cells != 0].tobytes()
