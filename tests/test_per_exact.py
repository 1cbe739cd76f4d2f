"""The batched PER kernel against the per-pair DP it replaced.

`oracle_edit_counts` is the former `per.edit_counts`, kept verbatim: a full
(n+1) x (m+1) table per pair and a backtrace that prefers deletion, then
insertion, then the diagonal. The kernel must give the same (S, I, D) for
every pair, not only the same total, whatever the chunking.

`tests/data/per/` holds a seeded fixture (300 pairs over an 18-segment
inventory with multi-codepoint segments; empty, equal, disjoint and
perturbed hypotheses) and the `per` and `per --macro` reports the per-pair
DP wrote for it.
"""

import importlib
import random
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosim import cli
from phonosim.per import corpus_per

per_module = importlib.import_module("phonosim.per")

PER_DIR = Path(__file__).parent / "data" / "per"
SEGMENTS = ["a", "b", "c", "t͡ʃ", "aː", "kʷ"]
OTHER = ["x", "d͡ʒ", "ŋ"]


def edit_counts(reference, hypothesis):
    """(S, I, D) of one pair, through the batched kernel."""
    return per_module._edit_counts_all([(reference, hypothesis)])[0]


def oracle_edit_counts(reference, hypothesis):
    """(S, I, D) from one minimal alignment of the two segment lists."""
    n = len(reference)
    m = len(hypothesis)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        ref_seg = reference[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ref_seg == hypothesis[j - 1] else 1
            row[j] = min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + cost)

    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dels += 1
            i -= 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            if reference[i - 1] != hypothesis[j - 1]:
                subs += 1
            i -= 1
            j -= 1
    return subs, ins, dels


@contextmanager
def byte_budget(nbytes):
    saved = per_module.CHUNK_BYTES
    per_module.CHUNK_BYTES = nbytes
    try:
        yield
    finally:
        per_module.CHUNK_BYTES = saved


def counting_chunks(monkeypatch):
    """Record (pairs, longest reference, longest hypothesis) of each chunk
    the kernel aligns."""
    shapes = []
    align = per_module._align_chunk

    def spy(pairs, codes):
        shapes.append((len(pairs), max(len(r) for r, _ in pairs),
                       max(len(h) for _, h in pairs)))
        return align(pairs, codes)

    monkeypatch.setattr(per_module, "_align_chunk", spy)
    return shapes


def random_pairs(rng, count, max_len):
    pairs = []
    for _ in range(count):
        ref = [rng.choice(SEGMENTS) for _ in range(rng.randint(1, max_len))]
        hyp = [rng.choice(SEGMENTS) for _ in range(rng.randint(0, max_len))]
        pairs.append((ref, hyp))
    return pairs


segment_lists = st.lists(st.sampled_from(SEGMENTS), max_size=12)


@st.composite
def pair_cases(draw):
    ref = draw(segment_lists)
    kind = draw(st.sampled_from(
        ["random", "empty_hyp", "equal", "disjoint", "one_ref"]))
    if kind == "empty_hyp":
        return ref, []
    if kind == "equal":
        return ref, list(ref)
    if kind == "disjoint":
        return ref, draw(st.lists(st.sampled_from(OTHER), max_size=12))
    if kind == "one_ref":
        return draw(segment_lists.map(lambda s: s[:1] or ["a"])), draw(segment_lists)
    return ref, draw(segment_lists)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair_cases())
def test_pair_matches_oracle(pair):
    assert edit_counts(*pair) == oracle_edit_counts(*pair)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(pair_cases(), min_size=1, max_size=30),
       st.sampled_from([1, 1500, 8000, 1 << 20]))
def test_batch_matches_oracle(pairs, budget):
    with byte_budget(budget):
        got = per_module._edit_counts_all(pairs)
    assert got == [oracle_edit_counts(r, h) for r, h in pairs]


def test_multicodepoint_segment_is_one_unit():
    assert edit_counts(["t͡ʃ", "a"], ["t", "a"]) == (1, 0, 0)
    assert edit_counts(["t͡ʃ"], ["t͡ʃ"]) == (0, 0, 0)


def test_empty_inputs():
    assert edit_counts([], []) == (0, 0, 0)
    assert edit_counts([], ["a", "b"]) == (0, 2, 0)
    assert edit_counts(["a", "b"], []) == (0, 0, 2)


# references around the 64-bit word boundaries, against hypotheses that are
# empty, one segment, or as long; over two or three symbols ties are common
BOUNDARY_N = [63, 64, 65, 127, 128, 129]
BOUNDARY_M = [0, 1, 64, 65, 130]


def boundary_pairs(seed, symbols):
    rng = random.Random(seed)
    return [([rng.choice(symbols) for _ in range(n)],
             [rng.choice(symbols) for _ in range(m)])
            for n in BOUNDARY_N for m in BOUNDARY_M]


@pytest.mark.parametrize("symbols", [["a", "b"], ["a", "b", "t͡ʃ"]])
def test_references_across_word_boundaries(symbols):
    pairs = boundary_pairs(len(symbols), symbols)
    expected = [oracle_edit_counts(r, h) for r, h in pairs]
    assert [edit_counts(r, h) for r, h in pairs] == expected
    # all thirty in one chunk, so two- and three-word pairs share words
    assert per_module._edit_counts_all(pairs) == expected


def test_carries_ripple_through_whole_words():
    # hypothesis c, then a: column 2's addition carries out of the a-run in
    # word 0, through word 1's mismatches (Pv all ones, Eq zero), into word
    # 2, where it stops at the row below the c
    pairs = [(["a"] * k + ["b"] * (128 - k) + ["c"] + ["b"] * tail, list(h))
             for k in (1, 2, 10, 63) for tail in (1, 2, 40, 140)
             for h in ("caa", "cab", "cca", "caac")]
    expected = [oracle_edit_counts(r, h) for r, h in pairs]
    assert per_module._edit_counts_all(pairs) == expected


def test_batches_mix_word_counts_and_empty_sides():
    rng = random.Random(23)
    ref_lengths = [0, 0, 1, 5, 63, 64, 65, 100, 128, 129, 150]
    hyp_lengths = [0, 1, 5, 40, 70]
    for _ in range(15):
        pairs = [([rng.choice("ab") for _ in range(rng.choice(ref_lengths))],
                  [rng.choice("abc") for _ in range(rng.choice(hyp_lengths))])
                 for _ in range(rng.randint(1, 10))]
        expected = [oracle_edit_counts(r, h) for r, h in pairs]
        for budget in (1, 1 << 20):
            with byte_budget(budget):
                assert per_module._edit_counts_all(pairs) == expected


def test_mixed_lengths_span_several_chunks(monkeypatch):
    shapes = counting_chunks(monkeypatch)
    pairs = random_pairs(random.Random(11), 400, 40)
    with byte_budget(32000):
        got = per_module._edit_counts_all(pairs)
    assert len(shapes) > 10 and sum(q for q, _, _ in shapes) == len(pairs)
    assert got == [oracle_edit_counts(r, h) for r, h in pairs]


def test_pair_longer_than_budget_runs_alone(monkeypatch):
    shapes = counting_chunks(monkeypatch)
    rng = random.Random(13)
    long_pair = ([rng.choice(SEGMENTS) for _ in range(30)],
                 [rng.choice(SEGMENTS) for _ in range(25)])
    pairs = random_pairs(rng, 20, 4)
    pairs.insert(7, long_pair)
    assert per_module._chunk_bytes(1, 30, 25) > 1000
    with byte_budget(1000):
        got = per_module._edit_counts_all(pairs)
    assert (1, 30, 25) in shapes and sum(q for q, _, _ in shapes) == len(pairs)
    assert got == [oracle_edit_counts(r, h) for r, h in pairs]


@pytest.mark.parametrize("budget", [1 << 13, 1 << 16, 1 << 20])
def test_every_chunk_fits_the_budget(monkeypatch, budget):
    shapes = counting_chunks(monkeypatch)
    rng = random.Random(budget)
    pairs = [([rng.choice("abc") for _ in range(rng.randint(1, 150))],
              [rng.choice("abc") for _ in range(rng.randint(0, 150))])
             for _ in range(150)]
    with byte_budget(budget):
        per_module._edit_counts_all(pairs)
    assert sum(q for q, _, _ in shapes) == len(pairs)
    assert all(per_module._chunk_bytes(q, n, m) <= budget
               for q, n, m in shapes if q > 1)
    if budget == 1 << 13:  # the longest pairs need more than 8 KB each
        assert any(q == 1 for q, _, _ in shapes) and any(q > 1 for q, _, _ in shapes)


@pytest.mark.parametrize("n,m", [(5, 5), (44, 50), (63, 130), (65, 1), (129, 64),
                                 (130, 0), (0, 65)])
def test_chunk_bytes_bound_the_traced_memory(n, m):
    # numpy reports its array data to tracemalloc; what a chunk allocates
    # stays within _chunk_bytes, numpy's own per-call scratch of a few KB
    # included (a small chunk exceeds it by that much)
    rng = random.Random(n * 1000 + m)
    pairs = [([rng.choice(SEGMENTS) for _ in range(rng.randint(n // 2, n))],
              [rng.choice(SEGMENTS) for _ in range(rng.randint(m // 2, m))])
             for _ in range(511)] + [(["a"] * n, ["a"] * m)]
    codes = dict(zip(SEGMENTS, range(len(SEGMENTS))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        per_module._align_chunk(pairs, codes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < peak <= per_module._chunk_bytes(len(pairs), n, m)


def test_input_order_restored():
    # longest first, and each pair's counts distinct from its neighbours'
    pairs = [(["a"] * n, ["b"] * (n % 3) + ["a"] * (n // 2)) for n in range(30, 0, -1)]
    expected = [oracle_edit_counts(r, h) for r, h in pairs]
    assert len(set(expected)) == len(expected)
    with byte_budget(3000):
        assert per_module._edit_counts_all(pairs) == expected


def test_corpus_counts_match_oracle_per_pair():
    pairs = random_pairs(random.Random(17), 200, 30)
    report = corpus_per(pairs, macro=True)
    counts = [oracle_edit_counts(r, h) for r, h in pairs]
    assert (report.substitutions, report.insertions, report.deletions) == tuple(
        sum(c[k] for c in counts) for k in range(3))
    percents = [100.0 * sum(c) / len(r) for c, (r, _) in zip(counts, pairs)]
    assert report.per_percent == sum(percents) / len(percents)
    assert [corpus_per([(r, h)]).per_percent for r, h in pairs] == percents


@pytest.mark.parametrize("budget", [None, 500])
@pytest.mark.parametrize("flags,golden", [([], "report.txt"),
                                          (["--macro"], "report_macro.txt")])
def test_report_golden_bytes(capsysbinary, budget, flags, golden):
    argv = ["per", *flags, "--ref", str(PER_DIR / "ref.txt"),
            "--hyp", str(PER_DIR / "hyp.txt")]
    with byte_budget(budget or per_module.CHUNK_BYTES):
        assert cli.main(argv) == 0
    assert capsysbinary.readouterr().out == (PER_DIR / golden).read_bytes()
