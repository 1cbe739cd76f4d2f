"""Phoneme Error Rate: segment-level edit distance with error-type counts.

Edits operate on whole phoneme segments, so replacing t͡ʃ with k is one
substitution, never two character edits. The backtrace resolves ties with
a fixed preference (deletion, then insertion, then the diagonal) so the
S/I/D split is reproducible; the total distance is unaffected by the
choice.

All pairs go through one batched kernel: the bit-parallel edit distance
of G. Myers (J. ACM 46(3), 1999) in H. Hyyrö's form for the global
distance (Nordic J. Computing 10(1), 2003). Segments are coded as ints,
the pairs are sorted by length and aligned in padded chunks, and each
chunk computes one DP column per hypothesis position for all its pairs
at once. Column j of a pair with n reference segments is two n-bit words,
held as W = ceil(n/64) uint64 words with carries between them:

    Pv bit i-1:  dist[i][j] == dist[i-1][j] + 1   (a deletion reaches (i, j))
    Ph bit i-1:  dist[i][j] == dist[i][j-1] + 1   (an insertion does)

With Mv and Mh the matching -1 words and Eq the reference positions whose
segment equals hypothesis segment j, column j follows from column j-1 as

    D0 = (((Eq & Pv) + Pv) ^ Pv) | Eq | Mv     (the diagonal adds 0)
    Ph = Mv | ~(D0 | Pv)        Mh = Pv & D0
    Ph' = Ph << 1 | 1           Mh' = Mh << 1   (row 0: dist[0][j] = j)
    Pv = Mh' | ~(D0 | Ph')      Mv = Ph' & D0

from column 0's Pv of all ones and Mv of zeros (dist[i][0] = i). Carries
and shifts only move bits up, so the bits above a pair's n, and columns
past its hypothesis, see only padding and are never read. The chunk keeps
Pv and the unshifted Ph of every column, two bits per DP cell; the
backtrace reads them where a full-table DP compares distances, so each
pair gets the same counts as its own full-table DP with the same tie
order. It counts deletions and substitutions; a path of D deletions takes
n - D diagonal steps, so I = m - n + D.

CHUNK_BYTES bounds the arrays a chunk holds at once (_chunk_bytes): the
stored words, the codes, Eq with the other words of the forward pass and
the comparison Eq is packed from, and the backtrace's vectors. A pair
that alone exceeds it runs alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

CHUNK_BYTES = 1 << 20

_ONE = np.uint64(1)
_TOP = np.uint64(63)


@dataclass(frozen=True)
class PERReport:
    substitutions: int
    insertions: int
    deletions: int
    reference_length: int
    per_percent: float


def _words(n):
    """uint64 words per column for references of up to n segments."""
    return max(1, -(-n // 64))


def _chunk_bytes(q, n, m):
    """Bytes of the arrays _align_chunk holds at once for q pairs of at most
    n reference and m hypothesis segments."""
    w = _words(n)
    # per pair: the stored Pv and Ph words; the int32 codes; Eq and five
    # more forward words; the comparison Eq is packed from, its packed
    # bytes and numpy's buffers for it (at most 11 bytes a reference
    # position); and 16 eight-byte vectors for lengths and the backtrace
    return q * (16 * w * (m + 1) + 4 * (n + m + 2) + 48 * w + 11 * n + 128)


def _shift_down(x, out):
    """out = x << 1, each word's top bit carried into the pair's next word."""
    np.left_shift(x, _ONE, out=out)
    out[:, 1:] |= x[:, :-1] >> _TOP


def _columns(ref, hyp, m):
    """Pv and unshifted Ph of columns 0..m, as (m+1, q, W) arrays, from the
    (q, n) reference codes and the hypothesis codes of a chunk."""
    q, n = ref.shape
    w = _words(n)
    pv = np.empty((m + 1, q, w), np.uint64)
    ph = np.zeros((m + 1, q, w), np.uint64)
    pv[0] = ~np.uint64(0)
    eq = np.zeros((q, w), "<u8")  # little-endian: bit i is bit i % 8 of byte i // 8
    eq_bytes, packed = eq.view(np.uint8), -(-n // 8)
    mv = np.zeros((q, w), np.uint64)
    d0, mh, hs, ms = (np.empty((q, w), np.uint64) for _ in range(4))
    for j in range(1, m + 1):
        eq_bytes[:, :packed] = np.packbits(ref == hyp[:, j - 1:j],
                                           axis=1, bitorder="little")
        p = pv[j - 1]
        np.bitwise_and(eq, p, out=d0)
        np.add(d0, p, out=d0)
        if w > 1:  # carry each word's overflow into the next word
            carry = d0 < p
            for k in range(1, w):
                d0[:, k] += carry[:, k - 1]
                carry[:, k] |= carry[:, k - 1] & (d0[:, k] == 0)
        d0 ^= p
        d0 |= eq
        d0 |= mv
        h = ph[j]
        np.bitwise_or(d0, p, out=h)
        np.invert(h, out=h)
        h |= mv
        np.bitwise_and(p, d0, out=mh)
        # the horizontal words one row down; row 0 adds +1 (dist[0][j] = j)
        _shift_down(h, hs)
        hs[:, 0] |= _ONE
        _shift_down(mh, ms)
        p = pv[j]
        np.bitwise_or(d0, hs, out=p)
        np.invert(p, out=p)
        p |= ms
        np.bitwise_and(hs, d0, out=mv)
    return pv, ph


def _align_chunk(pairs, codes):
    """(S, D) arrays for a list of pairs; segments are coded through `codes`."""
    q = len(pairs)
    n_len = np.array([len(r) for r, _ in pairs])
    m_len = np.array([len(h) for _, h in pairs])
    n, m = int(n_len.max()), int(m_len.max())
    # at least one column each, so that position i-1 or j-1 = -1 is in range
    # (and masked) when a pair reaches i or j = 0
    ref = np.full((q, max(n, 1)), -1, np.int32)
    hyp = np.full((q, max(m, 1)), -2, np.int32)
    for k, (r, h) in enumerate(pairs):
        ref[k, :len(r)] = [codes.setdefault(s, len(codes)) for s in r]
        hyp[k, :len(h)] = [codes.setdefault(s, len(codes)) for s in h]

    pv, ph = _columns(ref[:, :n], hyp, m)

    # backtrace: all pairs step together from (n_p, m_p); a cell's bit of row
    # i is bit (i-1) % 64 of word (i-1) // 64, read but unused at i = 0
    idx = np.arange(q)
    i, j = n_len.copy(), m_len.copy()
    subs = np.zeros(q, np.intp)
    dels = np.zeros(q, np.intp)
    live = (i > 0) | (j > 0)
    while live.any():
        row = i - 1
        word, bit = row >> 6, (row & 63).astype(np.uint64)
        is_del = (i > 0) & ((pv[j, idx, word] >> bit) & _ONE).astype(bool)
        is_ins = ~is_del & (j > 0) & (
            (i == 0) | ((ph[j, idx, word] >> bit) & _ONE).astype(bool))
        diag = live & ~is_del & ~is_ins
        subs += diag & (ref[idx, row] != hyp[idx, j - 1])
        dels += is_del
        i -= is_del | diag
        j -= is_ins | diag
        live = (i > 0) | (j > 0)
    return subs, dels


def _edit_counts_all(pairs):
    """[(S, I, D)] for (reference, hypothesis) pairs, in input order."""
    codes = {}
    n_len = np.array([len(r) for r, _ in pairs], np.intp)
    m_len = np.array([len(h) for _, h in pairs], np.intp)
    order = np.lexsort((m_len, n_len)).tolist()
    subs = np.zeros(len(pairs), np.intp)
    dels = np.zeros(len(pairs), np.intp)
    start = 0
    while start < len(order):
        n = m = 0
        stop = start
        while stop < len(order):
            ref, hyp = pairs[order[stop]]
            n, m = max(n, len(ref)), max(m, len(hyp))
            if stop > start and _chunk_bytes(stop - start + 1, n, m) > CHUNK_BYTES:
                break
            stop += 1
        chunk = order[start:stop]
        subs[chunk], dels[chunk] = _align_chunk([pairs[k] for k in chunk], codes)
        start = stop
    # a pair's path takes n - D diagonal steps, so m = I + n - D
    ins = m_len - n_len + dels
    return list(zip(subs.tolist(), ins.tolist(), dels.tolist()))


def corpus_per(pairs, macro=False) -> PERReport:
    """Aggregate PER over (reference, hypothesis) pairs.

    Default is the micro average: error counts and reference lengths are
    pooled before dividing. macro=True averages per-utterance percentages
    instead (counts are still reported pooled).
    """
    pairs = list(pairs)
    if not pairs:
        raise DataError("corpus PER needs at least one utterance pair")
    for idx, (reference, _) in enumerate(pairs, 1):
        if not reference:
            raise DataError(f"empty reference in utterance pair {idx}")
    subs = ins = dels = ref_len = 0
    percents = []
    for (reference, _), (s, i, d) in zip(pairs, _edit_counts_all(pairs)):
        subs += s
        ins += i
        dels += d
        ref_len += len(reference)
        percents.append(100.0 * (s + i + d) / len(reference))
    if macro:
        percent = sum(percents) / len(percents)
    else:
        percent = 100.0 * (subs + ins + dels) / ref_len
    return PERReport(subs, ins, dels, ref_len, percent)
