"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with `pytest -v -s`).

Every tolerance is pinned here, not calibrated elsewhere. Oracles are
independent re-implementations (plain-python cosine, brute-force kernel
sums, covariance eigendecomposition, sort-based top-k, full-matrix edit
distance).
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from phonosim.density import (PADDING_BANDWIDTHS, KDEParams, kde_contours,
                              silverman_bandwidths)
from phonosim.errors import UnmatchedGraphemeError
from phonosim.g2p import transliterate
from phonosim.ipa import NormalizationPolicy, normalize, tokenize_ipa
from phonosim.pca import pca_project
from phonosim.per import corpus_per
from phonosim.pipeline import (ARTIFACT_NAMES, PipelineConfig,
                               count_corpora, phoneme_distributions,
                               run_pipeline)
from phonosim.registry import LanguageRecord, Registry, load_registry
from phonosim.selection import select_strategy
from phonosim.stats import (Distributions, SimilarityMatrix,
                            family_mean_similarities, similarity_matrix)

from genutil import random_ipa_string, random_policy, random_ruleset
from kdeutil import dense_grid, density_at

LOW_RESOURCE_CODES = {
    "pa", "hi", "az", "kk", "tk", "sah", "ti", "tig", "am", "ha", "mt",
}


def _pass(cid, message):
    print(f"PASS {cid}: {message}")


def test_c01_registry_low_resource_fidelity(cv_registry_path):
    start = time.perf_counter()
    reg = load_registry(cv_registry_path)
    assert len(reg) == 22
    flagged = {r.code for r in reg if r.code in reg.low_resource_codes(15.0)}
    assert flagged == LOW_RESOURCE_CODES
    assert len(flagged) == 11
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass("C01", f"bundled registry fidelity: 22 languages, 11 low-resource "
                 f"flags exact ({elapsed:.3f}s < 1s)")


def test_c02_cosine_oracle():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dim = rng.randint(2, 50)
        x = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(dim)]
        y = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(dim)]
        if not any(x):
            x[rng.randrange(dim)] = rng.random() + 0.1
        if not any(y):
            y[rng.randrange(dim)] = rng.random() + 0.1
        phonemes = tuple(f"p{j:02d}" for j in range(dim))
        pair = Distributions(("a", "b"), phonemes, np.array([x, y]))
        got = similarity_matrix(pair).values[0, 1]
        dot = sum(p * q for p, q in zip(x, y))
        oracle = dot / (math.sqrt(sum(p * p for p in x))
                        * math.sqrt(sum(q * q for q in y)))
        worst = max(worst, abs(got - oracle))
        assert abs(got - oracle) <= 1e-12
        assert 0.0 <= got <= 1.0
        itself = similarity_matrix(Distributions(("a", "b"), phonemes, np.array([x, x])))
        assert abs(itself.values[0, 1] - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass("C02", f"cosine similarity oracle: 1000 pairs within 1e-12 "
                 f"(worst {worst:.2e}), self-similarity and range ok "
                 f"({elapsed:.2f}s < 5s)")


def test_c03_similarity_matrix_properties():
    rng = random.Random(103)
    for _ in range(20):
        n = rng.randint(2, 8)
        dim = rng.randint(2, 10)
        codes = tuple(f"l{i}" for i in range(n))
        phonemes = tuple(f"p{j}" for j in range(dim))
        rows = np.array([[rng.random() + 0.01 for _ in range(dim)] for _ in range(n)])
        m = similarity_matrix(Distributions(codes, phonemes, rows))
        assert np.array_equal(m.values, m.values.T)
        assert all(abs(m.values[i, i] - 1.0) <= 1e-12 for i in range(n))
        assert all(m.values[i, i] == 1.0 for i in range(n))

        perm = list(range(n))
        rng.shuffle(perm)
        permuted = similarity_matrix(
            Distributions(tuple(codes[p] for p in perm), phonemes, rows[perm]))
        expected = m.values[np.ix_(perm, perm)]
        assert np.array_equal(permuted.values, expected)
    _pass("C03", "similarity matrix: exact symmetry, unit diagonal, "
                 "permutation equivariance on 20 random instances")


def test_c04_kde_pointwise_oracle():
    rng = random.Random(105)
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 10)
        coords = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
        raw = [rng.uniform(0.1, 3.0) for _ in range(n)]
        weights = np.array(raw) * n / sum(raw)
        h_x = rng.uniform(0.1, 2.0)
        h_y = rng.uniform(0.1, 2.0)
        params = KDEParams(h_x, h_y, weights)
        point = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        got = density_at(point, coords, params)
        oracle = sum(
            w * (math.exp(-0.5 * ((point[0] - x) / h_x) ** 2) / sqrt_2pi)
            * (math.exp(-0.5 * ((point[1] - y) / h_y) ** 2) / sqrt_2pi)
            for (x, y), w in zip(coords, weights)) / (n * h_x * h_y)
        worst = max(worst, abs(got - oracle))
        assert abs(got - oracle) <= 1e-12

    for _ in range(10):
        h_x = rng.uniform(0.1, 2.0)
        h_y = rng.uniform(0.1, 2.0)
        pt = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        params = KDEParams(h_x, h_y, np.array([1.0]))
        peak = density_at(pt, [pt], params)
        assert abs(peak - 1.0 / (2.0 * math.pi * h_x * h_y)) <= 1e-12
    _pass("C04", f"KDE pointwise oracle: 100 configs within 1e-12 (worst {worst:.2e}), "
                 "single-point peak 1/(2*pi*hx*hy) exact to 1e-12")


def test_c05_kde_mass_conservation():
    rng = random.Random(107)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = rng.randint(2, 10)
        coords = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        raw = [rng.uniform(0.2, 2.0) for _ in range(n)]
        weights = np.array(raw) * n / sum(raw)
        h_x, h_y = silverman_bandwidths(coords, weights)
        params = KDEParams(h_x, h_y, weights)
        grid = dense_grid(coords, params, 512)
        pts = np.asarray(coords)
        cell_width = (np.ptp(pts[:, 0]) + 2 * PADDING_BANDWIDTHS * h_x) / 512
        cell_height = (np.ptp(pts[:, 1]) + 2 * PADDING_BANDWIDTHS * h_y) / 512
        mass = float(grid.values.sum() * cell_width * cell_height)
        worst = max(worst, abs(mass - 1.0))
        assert abs(mass - 1.0) <= 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass("C05", f"KDE mass: 20 datasets integrate to 1 within 1e-2 "
                 f"(worst {worst:.2e}) at resolution 512 ({elapsed:.1f}s < 30s)")


def test_c06_contour_level_fidelity():
    rng = random.Random(109)
    worst_512 = 0.0
    worst_2048 = 0.0
    for _ in range(10):
        n = rng.randint(2, 6)
        coords = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
        weights = np.array(raw) * n / sum(raw)
        h_x, h_y = silverman_bandwidths(coords, weights)
        params = KDEParams(h_x, h_y, weights)

        level = kde_contours(coords, params, 128, 0.45, relative=True).level

        for resolution, tolerance, track in ((512, 0.10, "a"), (2048, 0.03, "b")):
            cs = kde_contours(coords, params, resolution, level)
            assert cs.polylines, "contour unexpectedly empty"
            for polyline in cs.polylines:
                for x, y in polyline:
                    exact = density_at((x, y), coords, params)
                    rel = abs(exact - level) / level
                    if resolution == 512:
                        worst_512 = max(worst_512, rel)
                    else:
                        worst_2048 = max(worst_2048, rel)
                    assert rel <= tolerance
    _pass("C06", f"contour level fidelity: vertex densities within 10% of c at 512 "
                 f"(worst {worst_512:.4f}) and 3% at 2048 "
                 f"(worst {worst_2048:.4f}) on 10 fields")


def test_c07_pca_oracle():
    rng = np.random.default_rng(111)
    for _ in range(30):
        n = int(rng.integers(3, 11))
        d = int(rng.integers(2, 9))
        rows = rng.normal(size=(n, d))
        proj = pca_project(rows, [f"r{i}" for i in range(n)])

        centered = rows - rows.mean(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        eigvals = np.clip(eigvals, 0.0, None)
        total = eigvals.sum()
        assert abs(proj.explained_variance[0] - eigvals[0] / total) <= 1e-9
        assert abs(proj.explained_variance[1] - eigvals[1] / total) <= 1e-9

    for _ in range(10):
        rows = rng.normal(size=(6, 2))
        proj = pca_project(rows, [f"r{i}" for i in range(6)])
        for i in range(6):
            for j in range(i + 1, 6):
                original = np.linalg.norm(rows[i] - rows[j])
                projected = np.linalg.norm(proj.coords[i] - proj.coords[j])
                assert abs(original - projected) <= 1e-9

    trials = 0
    for _ in range(10):
        rows = rng.normal(size=(6, 4))
        centered = rows - rows.mean(axis=0)
        proj = pca_project(rows, [f"r{i}" for i in range(6)])
        pca_mass = float((proj.coords ** 2).sum())
        for _ in range(200):
            q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
            assert pca_mass >= float(((centered @ q) ** 2).sum()) - 1e-9
            trials += 1
    _pass("C07", f"PCA oracle: explained variance matches eigendecomposition "
                 f"to 1e-9, 2D distances recovered to 1e-9, variance "
                 f"dominance on {trials} random projections")


def _registry_over(codes, hours):
    return Registry([LanguageRecord(c, c, "F", None, hours.get(c, 1.0)) for c in codes])


def _top_k_oracle(target, matrix, k, hours):
    t = matrix.codes.index(target)
    rows = [(code, float(matrix.values[t, j]))
            for j, code in enumerate(matrix.codes) if code != target]
    rows.sort(key=lambda r: (-r[1], -hours.get(r[0], 0.0), r[0]))
    return tuple(code for code, _ in rows[:min(k, len(rows))])


def test_c08_top_k_oracle():
    rng = random.Random(113)
    for _ in range(500):
        n = rng.randint(2, 12)
        codes = tuple(f"l{i:02d}" for i in range(n))
        values = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                # quantized similarities force plenty of ties
                v = round(rng.random(), 1)
                values[i, j] = values[j, i] = v
        matrix = SimilarityMatrix(codes, values)
        hours = {code: float(rng.choice((1.0, 5.0, 5.0, 9.0))) for code in codes}
        target = rng.choice(codes)
        k = rng.randint(1, n)
        with pytest.warns(UserWarning) if k > n - 1 else _nullcontext():
            got = select_strategy(target, "corpus_sim", _registry_over(codes, hours),
                                  matrix=matrix, k=k).source_codes()
        assert got == _top_k_oracle(target, matrix, k, hours)

    vocab_letters = "abcdefgh"
    for _ in range(25):
        counts = {
            f"l{i}": Counter({c: rng.randint(1, 40)
                              for c in rng.sample(vocab_letters, 5)})
            for i in range(7)
        }

        def matrix_of(cts):
            return similarity_matrix(phoneme_distributions(
                {code: cts[code] for code in sorted(cts)}))

        def top_3(matrix):
            return select_strategy("l0", "corpus_sim", _registry_over(matrix.codes, {}),
                                   matrix=matrix, k=3).source_codes()

        base = top_3(matrix_of(counts))
        factor = {code: rng.randint(2, 17) for code in counts}
        scaled = {code: Counter({p: v * factor[code] for p, v in c.items()})
                  for code, c in counts.items()}
        assert top_3(matrix_of(scaled)) == base
    _pass("C08", "top-k selection oracle: 500 matrices match brute-force sort with "
                 "tie-breaking; selection invariant under count rescaling")


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def test_c09_g2p_property_suite():
    rng = random.Random(115)
    policy = NormalizationPolicy(merge_pairs={})
    checked_dominance = 0
    for _ in range(200):
        rs = random_ruleset(rng)
        graphemes = [r.grapheme for r in rs.rules]
        text = "".join(rng.choice(graphemes) for _ in range(rng.randrange(6)))

        # greedy matching may land between graphemes on ambiguous
        # concatenations, so determinism is checked in skip mode
        first = transliterate(text, rs, policy, mode="skip")
        assert all(transliterate(text, rs, policy, mode="skip") == first
                   for _ in range(2))

        longer = [r for r in rs.rules if len(r.grapheme) > 1]
        for rule_b in longer:
            prefixes = [r for r in rs.rules
                        if len(r.grapheme) < len(rule_b.grapheme)
                        and rule_b.grapheme.startswith(r.grapheme)]
            if prefixes:
                out = transliterate(rule_b.grapheme, rs, policy)
                assert out[:1] == [rule_b.phoneme_output]
                checked_dominance += 1

        prefix = rng.choice(graphemes)
        bad_text = prefix + "z"  # 'z' is outside the grapheme alphabet
        with pytest.raises(UnmatchedGraphemeError) as exc:
            transliterate(bad_text, rs, policy, mode="error")
        assert exc.value.offset == len(prefix)
        assert (transliterate(bad_text, rs, policy, mode="skip")
                == transliterate(prefix, rs, policy))
        assert transliterate(bad_text, rs, policy, mode="passthrough")[-1] == "z"
    assert checked_dominance >= 50
    _pass("C09", f"G2P properties: determinism, longest-match dominance "
                 f"({checked_dominance} cases), and mode semantics over "
                 f"200 random rulesets")


def test_c10_normalization_idempotence():
    rng = random.Random(117)
    policies = [random_policy(rng) for _ in range(10)]
    for i in range(500):
        text = random_ipa_string(rng)
        policy = policies[i % len(policies)]
        seq = tokenize_ipa(text)
        once = normalize(seq, policy)
        assert normalize(once, policy) == once
    _pass("C10", "normalization idempotent on 500 random IPA strings "
                 "under 10 random valid policies")


def test_c11_per_oracle():
    rng = random.Random(119)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        ref = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        n, m = len(ref), len(hyp)
        d = np.zeros((n + 1, m + 1), dtype=int)
        d[:, 0] = np.arange(n + 1)
        d[0, :] = np.arange(m + 1)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1,
                              d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]))
        r = corpus_per([(ref, hyp)])
        assert r.substitutions + r.insertions + r.deletions == int(d[n, m])

    assert corpus_per([(list("abcd"), list("abcd"))]).per_percent == 0.0
    assert corpus_per([(list("abcd"), list("axcd"))]).per_percent == 25.0
    report = corpus_per([(["a", "t͡ʃ", "c", "d"], ["a", "k", "c", "d"])])
    assert report.substitutions + report.insertions + report.deletions == 1
    assert report.per_percent == 25.0
    _pass("C11", "PER oracle: 200 random pairs match the DP oracle; identity, "
                 "single-substitution, and multi-codepoint cases exact")


def test_c12_golden_pipeline_run(toy_dir, tmp_path):
    start = time.perf_counter()
    outputs = []
    for run in (1, 2):
        out_dir = tmp_path / f"run{run}"
        run_pipeline(PipelineConfig(
            corpus_dir=toy_dir / "corpus",
            rules_dir=toy_dir / "rules",
            registry=toy_dir / "registry.csv",
            policy=toy_dir / "policy.txt",
            out=out_dir,
            target="aaa",
            strategy="corpus_sim",
            k=3,
        ))
        outputs.append({name: (out_dir / name).read_bytes()
                        for name in ARTIFACT_NAMES})
    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1]
    assert elapsed < 10.0
    manifest = outputs[0]["manifest.tsv"].decode("utf-8")
    assert manifest.startswith("#target\taaa")
    _pass("C12", f"golden run: {len(ARTIFACT_NAMES)} artifacts byte-identical "
                 f"across two runs ({elapsed:.1f}s < 10s)")


def test_c13_qualitative_family_report(toy_dir):
    """Reported, not hard-asserted: with user-supplied corpora for the
    22 languages the same hook prints whether Turkic intra-family mean
    similarity exceeds the other families'. The bundled corpus only
    demonstrates the report."""
    from phonosim.ipa import load_policy

    policy = load_policy(toy_dir / "policy.txt")
    reg = load_registry(toy_dir / "registry.csv")
    counts = count_corpora(("aaa", "aab", "aba", "abb"),
                           toy_dir / "corpus", toy_dir / "rules", policy)
    matrix = similarity_matrix(phoneme_distributions(counts))
    rows = family_mean_similarities(matrix, reg.families())
    assert rows, "report should not be empty"
    print("intra-family mean similarity report (toy corpus):")
    for family, mean, n in rows:
        print(f"  {family}: {mean:.4f} over {n} languages")
    print(f"  highest: {rows[0][0]} (with corpora for the bundled "
          "22-language registry this reports whether Turkic ranks first)")
    _pass("C13", "qualitative replication hook emits the intra-family "
                 "similarity ranking (reported, not asserted)")
