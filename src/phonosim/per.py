"""Phoneme Error Rate: segment-level edit distance with error-type counts.

Edits operate on whole phoneme segments, so replacing t͡ʃ with k is one
substitution, never two character edits. The backtrace resolves ties with
a fixed preference (deletion, then insertion, then the diagonal) so the
S/I/D split is reproducible; the total distance is unaffected by the
choice.

All pairs go through one batched kernel: segments are coded as ints, the
pairs are sorted by length and aligned in padded chunks, one numpy row
update per reference position. Each pair gets the same counts as its own
full-table DP with the same backtrace.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# DP cells per chunk, (longest reference + 1) * (longest hypothesis + 1) per
# pair; the backtrace keeps one byte per cell. A longer pair runs alone.
CELL_BUDGET = 1 << 20

_DEL = 1   # dist[i][j] == dist[i-1][j] + 1
_INS = 2   # dist[i][j] == dist[i][j-1] + 1


@dataclass(frozen=True)
class PERReport:
    substitutions: int
    insertions: int
    deletions: int
    reference_length: int
    per_percent: float


def _align_chunk(pairs, codes):
    """[(S, I, D)] for a list of pairs; segments are coded through `codes`."""
    q = len(pairs)
    n_len = np.array([len(r) for r, _ in pairs])
    m_len = np.array([len(h) for _, h in pairs])
    n, m = int(n_len.max()), int(m_len.max())
    # one padding column each, read (and masked) when a pair reaches i or j = 0
    ref = np.full((q, n + 1), -1, np.int32)
    hyp = np.full((q, m + 1), -2, np.int32)
    for k, (r, h) in enumerate(pairs):
        ref[k, :len(r)] = [codes.setdefault(s, len(codes)) for s in r]
        hyp[k, :len(h)] = [codes.setdefault(s, len(codes)) for s in h]

    # forward pass: keep only the two direction bits the backtrace reads
    bits = np.empty((n + 1, q, m + 1), np.uint8)
    bits[0] = _INS
    bits[0, :, 0] = 0
    j = np.arange(m + 1, dtype=np.int32)
    prev = np.broadcast_to(j, (q, m + 1))
    a = np.empty((q, m + 1), np.int32)
    for i in range(1, n + 1):
        a[:, 0] = i
        np.minimum(prev[:, 1:] + 1,
                   prev[:, :-1] + (ref[:, i - 1:i] != hyp[:, :m]), out=a[:, 1:])
        # row[j] = min(a[j], row[j-1] + 1), unrolled along the row
        row = np.minimum.accumulate(a - j, axis=1) + j
        b = bits[i]
        np.equal(row, prev + 1, out=b)
        b[:, 1:] |= (row[:, 1:] == row[:, :-1] + 1) * np.uint8(_INS)
        prev = row

    # backtrace: all pairs step together from (n_p, m_p)
    idx = np.arange(q)
    i, j = n_len.copy(), m_len.copy()
    subs = np.zeros(q, np.intp)
    ins = np.zeros(q, np.intp)
    dels = np.zeros(q, np.intp)
    live = (i > 0) | (j > 0)
    while live.any():
        b = bits[i, idx, j]
        is_del = (i > 0) & (b & _DEL != 0)
        is_ins = ~is_del & (j > 0) & (b & _INS != 0)
        diag = live & ~is_del & ~is_ins
        subs += diag & (ref[idx, i - 1] != hyp[idx, j - 1])
        dels += is_del
        ins += is_ins
        i -= is_del | diag
        j -= is_ins | diag
        live = (i > 0) | (j > 0)
    return list(zip(subs.tolist(), ins.tolist(), dels.tolist()))


def _edit_counts_all(pairs):
    """[(S, I, D)] for (reference, hypothesis) pairs, in input order."""
    codes = {}
    order = sorted(range(len(pairs)),
                   key=lambda k: (len(pairs[k][0]), len(pairs[k][1])))
    out = [None] * len(pairs)
    start = 0
    while start < len(order):
        n = m = 0
        stop = start
        while stop < len(order):
            ref, hyp = pairs[order[stop]]
            n, m = max(n, len(ref)), max(m, len(hyp))
            if stop > start and (stop - start + 1) * (n + 1) * (m + 1) > CELL_BUDGET:
                break
            stop += 1
        chunk = order[start:stop]
        for k, counts in zip(chunk, _align_chunk([pairs[k] for k in chunk], codes)):
            out[k] = counts
        start = stop
    return out


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
