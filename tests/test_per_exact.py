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
def cell_budget(cells):
    saved = per_module.CELL_BUDGET
    per_module.CELL_BUDGET = cells
    try:
        yield
    finally:
        per_module.CELL_BUDGET = saved


def counting_chunks(monkeypatch):
    """Record the number of pairs in each chunk the kernel aligns."""
    sizes = []
    align = per_module._align_chunk

    def spy(pairs, codes):
        sizes.append(len(pairs))
        return align(pairs, codes)

    monkeypatch.setattr(per_module, "_align_chunk", spy)
    return sizes


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
       st.sampled_from([1, 40, 300, 1 << 20]))
def test_batch_matches_oracle(pairs, budget):
    with cell_budget(budget):
        got = per_module._edit_counts_all(pairs)
    assert got == [oracle_edit_counts(r, h) for r, h in pairs]


def test_multicodepoint_segment_is_one_unit():
    assert edit_counts(["t͡ʃ", "a"], ["t", "a"]) == (1, 0, 0)
    assert edit_counts(["t͡ʃ"], ["t͡ʃ"]) == (0, 0, 0)


def test_empty_inputs():
    assert edit_counts([], []) == (0, 0, 0)
    assert edit_counts([], ["a", "b"]) == (0, 2, 0)
    assert edit_counts(["a", "b"], []) == (0, 0, 2)


def test_mixed_lengths_span_several_chunks(monkeypatch):
    sizes = counting_chunks(monkeypatch)
    pairs = random_pairs(random.Random(11), 400, 40)
    with cell_budget(4000):
        got = per_module._edit_counts_all(pairs)
    assert len(sizes) > 10 and sum(sizes) == len(pairs)
    assert got == [oracle_edit_counts(r, h) for r, h in pairs]


def test_pair_longer_than_budget_runs_alone(monkeypatch):
    sizes = counting_chunks(monkeypatch)
    rng = random.Random(13)
    long_pair = ([rng.choice(SEGMENTS) for _ in range(30)],
                 [rng.choice(SEGMENTS) for _ in range(25)])
    pairs = random_pairs(rng, 20, 4)
    pairs.insert(7, long_pair)
    with cell_budget(64):
        got = per_module._edit_counts_all(pairs)
    assert 1 in sizes and sum(sizes) == len(pairs)
    assert got == [oracle_edit_counts(r, h) for r, h in pairs]


def test_input_order_restored():
    # longest first, and each pair's counts distinct from its neighbours'
    pairs = [(["a"] * n, ["b"] * (n % 3) + ["a"] * (n // 2)) for n in range(30, 0, -1)]
    expected = [oracle_edit_counts(r, h) for r, h in pairs]
    assert len(set(expected)) == len(expected)
    with cell_budget(200):
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
    with cell_budget(budget or per_module.CELL_BUDGET):
        assert cli.main(argv) == 0
    assert capsysbinary.readouterr().out == (PER_DIR / golden).read_bytes()
