"""`phoneme_distributions` and `similarity_matrix` against the per-language
code they replaced.

The oracle is the former path, kept as it was except that tuples and
dicts stand in for the removed `Vocabulary` and `PhonemeDistribution`
(and their checks): `build_vocabulary` (the sorted union of every
language's phonemes), `to_distribution` (one zero vector per language,
filled with `count / total`) and the `similarity_matrix` pair loop over
`cosine_similarity`, which recomputes both norms for every pair. Each
oracle vector is its own array, as before. The (L, V) array version must
give bit-identical probabilities and similarity values, not merely close
ones.
"""

import random
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosim.stats import phoneme_distributions, similarity_matrix

POOL = ["a", "b", "c", "d", "e", "i", "k", "m", "n", "o", "s", "t", "u",
        "aː", "t͡ʃ", "d͡ʒ", "kʷ", "ŋ", "ʃ", "ʒ", "ɨ", "ə", "ɛ", "ɔ"]


def oracle_vocabulary(count_maps):
    keys = set()
    for counts in count_maps:
        keys.update(counts.keys())
    return tuple(sorted(keys))


def oracle_distribution(counts, vocab):
    index = {p: i for i, p in enumerate(vocab)}
    vec = np.zeros(len(vocab))
    total = sum(counts.values())
    if total > 0:
        for phoneme, count in counts.items():
            vec[index[phoneme]] = count / total
    return vec


def oracle_cosine(va, vb):
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    value = float(np.dot(va, vb) / (na * nb))
    return min(1.0, max(0.0, value))


def oracle_matrix(vectors):
    n = len(vectors)
    values = np.zeros((n, n))
    for i in range(n):
        values[i, i] = 1.0
        for j in range(i + 1, n):
            v = oracle_cosine(vectors[i], vectors[j])
            values[i, j] = v
            values[j, i] = v
    return values


def assert_matches_oracle(converted):
    counts = {}
    for code, seqs in converted.items():
        c = Counter()
        for _, seq in seqs:
            c.update(seq)
        counts[code] = c
    vocab = oracle_vocabulary(counts.values())
    vectors = [oracle_distribution(counts[code], vocab) for code in counts]

    dists = phoneme_distributions(counts)
    assert dists.codes == tuple(converted)
    assert dists.phonemes == vocab
    for row, vec in zip(dists.probabilities, vectors):
        assert row.tobytes() == vec.tobytes()
    assert similarity_matrix(dists).values.tobytes() == oracle_matrix(vectors).tobytes()


def random_converted(rng, n_langs, inventory, max_tokens):
    """code -> utterances of phonemes drawn with skewed weights from a
    random, nonempty part of the inventory."""
    converted = {}
    for i in range(n_langs):
        own = rng.sample(inventory, rng.randint(1, len(inventory)))
        weights = [rng.random() ** 3 + 1e-3 for _ in own]
        tokens = rng.choices(own, weights, k=rng.randint(1, max_tokens))
        cuts = sorted(rng.randint(0, len(tokens)) for _ in range(rng.randint(0, 4)))
        bounds = [0, *cuts, len(tokens)]
        converted[f"l{i:02d}"] = [(f"u{k}.mp3", tokens[a:b])
                                  for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    return converted


def test_random_corpora():
    rng = random.Random(61)
    for _ in range(150):
        assert_matches_oracle(random_converted(
            rng, rng.randint(2, 12), rng.sample(POOL, rng.randint(1, len(POOL))), 300))


def test_single_phoneme_languages():
    rng = random.Random(67)
    for _ in range(30):
        converted = {f"l{i}": [("u.mp3", [rng.choice(POOL[:4])] * rng.randint(1, 50))]
                     for i in range(rng.randint(2, 8))}
        assert_matches_oracle(converted)


def test_disjoint_vocabularies():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 6)
        shuffled = rng.sample(POOL, len(POOL))
        converted = {}
        for i in range(n):
            own = shuffled[i * 4:(i + 1) * 4]
            converted[f"l{i}"] = [("u.mp3", rng.choices(own, k=rng.randint(1, 40)))]
        assert_matches_oracle(converted)
        assert not np.triu(similarity_matrix(phoneme_distributions(
            {code: Counter(seq) for code, ((_, seq),) in converted.items()})).values,
            1).any()


def test_sixty_four_languages():
    rng = random.Random(73)
    for _ in range(3):
        assert_matches_oracle(random_converted(rng, 64, POOL, 2000))


def test_large_counts():
    # up to a million tokens per language, with very uneven counts
    rng = random.Random(79)
    converted = {}
    for i in range(3):
        counts = {p: rng.choice((1, 7, 999, 65_537, 200_003)) for p in rng.sample(POOL, 6)}
        converted[f"l{i}"] = [("u.mp3", [p for p, n in counts.items() for _ in range(n)])]
    assert_matches_oracle(converted)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.lists(st.sampled_from(POOL), min_size=1, max_size=15),
                         min_size=1, max_size=4),
                min_size=2, max_size=8))
def test_hypothesis_corpora(languages):
    assert_matches_oracle({f"l{i}": [("u.mp3", seq) for seq in utterances]
                           for i, utterances in enumerate(languages)})
