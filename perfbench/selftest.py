"""The benchmark's own tests (kept out of the tier-1 suite, which they
would slow down by a few minutes):

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

COUNTED = ("g2p.match_at.calls", "g2p.words", "ipa.segments", "per.dp_cells",
           "density.kernel_evals", "density.contour_vertices", "stats.cosine_pairs",
           "stats.vocab_size", "selection.manifest_rows")


def _dp_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def test_edit_distance_matches_plain_dp():
    rng = random.Random(7)
    for _ in range(2000):
        a = [rng.choice("abcde") for _ in range(rng.randrange(90))]
        b = [rng.choice("abcde") for _ in range(rng.randrange(90))]
        assert checks.edit_distance(a, b) == _dp_distance(a, b)


def _files(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_seeded(name, tmp_path):
    gen.WORKLOADS[name](tmp_path / "a", 3)
    gen.WORKLOADS[name](tmp_path / "b", 3)
    gen.WORKLOADS[name](tmp_path / "c", 4)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def test_reference_g2p_agrees_with_phonosim(tmp_path):
    from phonosim.g2p import load_ruleset, transliterate
    from phonosim.ipa import default_policy
    from phonosim.pipeline import read_corpus_tsv

    policy = default_policy()
    inputs = gen.eval_longtail(tmp_path / "eval", 5)
    lines = []
    for rules, texts in inputs.parts:
        rs = load_ruleset(rules)
        lines += [" ".join(transliterate(t, rs, policy))
                  for t in texts.read_text(encoding="utf-8").splitlines()]
    assert lines == inputs.references

    inputs = gen.cv18_zipf(tmp_path / "cv18", 5)
    families = {}
    for code, _, fam, _, _ in gen.CV18_REGISTRY:
        families.setdefault(fam, []).append(code)
    langs = gen._languages(5, "cv18", sorted(families.items()))
    for code, lang in langs.items():
        rs = load_ruleset(inputs.rules_dir / f"{code}.rules")
        oracle = gen.ReferenceG2P(lang)
        for _, text in read_corpus_tsv(inputs.corpus_dir / f"{code}.tsv")[:60]:
            assert transliterate(text, rs, policy) == oracle.utterance(text)


@pytest.fixture(scope="module")
def toy_artifacts(tmp_path_factory):
    from phonosim.cli import main

    base = tmp_path_factory.mktemp("toy")
    rows = [r for r in gen.CV18_REGISTRY if r[2] != "Afro-Asiatic"]
    inputs = gen._pipeline_inputs(base / "in", 2, "toy", rows, "kk", 64,
                                  utterances=30, vocab_size=100, words_per_utt=6,
                                  exponent=1.1)
    out = base / "out"
    assert main(["pipeline", "--corpus-dir", str(inputs.corpus_dir),
                 "--rules-dir", str(inputs.rules_dir), "--registry", str(inputs.registry),
                 "--target", "kk", "--resolution", "64", "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in checks.ARTIFACTS}


def test_pipeline_checks_accept_real_artifacts(toy_artifacts):
    assert checks.check_pipeline(dict(toy_artifacts), "kk", 3) > 0


def _corrupt_similarity(files):
    lines = files["similarity.csv"].decode().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * 0.999)
    lines[1] = ",".join(cells)
    return {**files, "similarity.csv": ("\n".join(lines) + "\n").encode()}


@pytest.mark.parametrize("corrupt", [
    _corrupt_similarity,
    lambda f: {**f, "contours.json": f["contours.json"].replace(b"0.", b"NaN", 1)},
    lambda f: {**f, "contours.svg": f["contours.svg"][:-20]},
    lambda f: {**f, "pca.csv": f["pca.csv"].replace(b",", b",nan", 1)},
    lambda f: {k: v for k, v in f.items() if k != "manifest.tsv"},
    lambda f: {**f, "selection.tsv": f["selection.tsv"].replace(b"source\t", b"source\tzz", 1)},
], ids=["similarity", "json-nan", "svg-truncated", "pca-nan", "missing", "selection"])
def test_pipeline_checks_reject_corruption(toy_artifacts, corrupt):
    with pytest.raises((checks.CheckError, ValueError)):
        checks.check_pipeline(corrupt(dict(toy_artifacts)), "kk", 3)


def test_per_check_rejects_wrong_totals():
    report = (b"substitutions\t3\ninsertions\t1\ndeletions\t1\n"
              b"reference_length\t50\nper_percent\t10\n")
    checks.check_per(report, 5, 50)
    with pytest.raises(checks.CheckError):
        checks.check_per(report, 6, 50)


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs per workload, shortest possible."""
    return {name: [run.run_benchmark(name, 1, 0, True) for _ in range(2)]
            for name in sorted(gen.WORKLOADS)}


def test_traced_runs_succeed(traced_pairs):
    for reports in traced_pairs.values():
        for report in reports:
            assert report["failed"] == 0, report["errors"]
            assert set(report["metrics"]) == {n for n, _ in run.PER_LAYER}


def test_counted_metrics_repeat_exactly(traced_pairs):
    for name, (first, second) in traced_pairs.items():
        for metric in COUNTED:
            assert first["metrics"][metric] == second["metrics"][metric], (name, metric)
    cv18 = traced_pairs["cv18-zipf"][0]["metrics"]
    assert cv18["g2p.match_at.calls"]["value"] > cv18["g2p.words"]["value"] > 0
    assert traced_pairs["eval-longtail"][0]["metrics"]["per.dp_cells"]["value"] > 0
    assert traced_pairs["kde-dense"][0]["metrics"]["density.kernel_evals"]["value"] \
        == 4 * 16 * 2048 ** 2


def test_self_times_account_for_the_op(traced_pairs):
    for reports in traced_pairs.values():
        for op in reports[0]["traced_ops"]:
            layers = op["layers"]
            self_total = sum(own for _, own, _ in layers.values())
            root = layers["cli.main"][0]
            assert self_total == pytest.approx(root, rel=1e-9)
            # what the spans miss is the root wrapper's own call, nothing more
            assert 0.98 * op["op_s"] <= root <= op["op_s"]


def test_layer_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(gen.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kde-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
