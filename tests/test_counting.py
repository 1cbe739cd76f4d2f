"""The corpus -> counts path through `cli.main` on the toy data.

`pipeline` and `sim matrix` count phonemes per distinct word over each
whole corpus. These tests pin what that must not change: the artifact
bytes under transformations of the corpora that keep every phoneme
count's ratio, and the G2P error of the first failing utterance, with
its offset, as the utterance-by-utterance conversion reports it. The
artifact bytes also hold under changes of the registry that keep every
family's weights, and `sim matrix` over a subset of the corpora writes
the matching cells of the full run's matrix.
"""

import itertools
import shutil

import pytest

from phonosim import cli
from phonosim.formats import fmt_float
from phonosim.pipeline import ARTIFACT_NAMES

MANIFEST_HEADER_LINES = 6


def toy_copy(toy_dir, tmp_path):
    """Writable copies of the toy corpus and rules directories."""
    for name in ("corpus", "rules"):
        shutil.copytree(toy_dir / name, tmp_path / name)
    return tmp_path / "corpus", tmp_path / "rules"


def run_pipeline(toy_dir, corpus, rules, out, registry=None):
    """Exit code of the toy `pipeline` over `corpus`, `rules` and `registry`
    (default: the toy registry)."""
    return cli.main([
        "pipeline", "--corpus-dir", str(corpus), "--rules-dir", str(rules),
        "--registry", str(registry or toy_dir / "registry.csv"),
        "--policy", str(toy_dir / "policy.txt"),
        "--target", "aaa", "--out", str(out)])


def run_sim_matrix(toy_dir, corpus, rules, out):
    """Exit code of `sim matrix --distributions`; writes out/{matrix,dists}.csv."""
    return cli.main([
        "sim", "matrix", "--corpus-dir", str(corpus), "--rules-dir", str(rules),
        "--policy", str(toy_dir / "policy.txt"),
        "--out", str(out / "matrix.csv"), "--distributions", str(out / "dists.csv")])


def rewrite_corpora(corpus, transform):
    """Replace each corpus file's lines by transform(lines)."""
    for path in sorted(corpus.glob("*.tsv")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(transform(lines)), encoding="utf-8")


def manifest_rows(manifest):
    """(header lines, [(language, [row lines])]) of a manifest.tsv text."""
    lines = manifest.splitlines(keepends=True)
    groups = []
    for line in lines[MANIFEST_HEADER_LINES:]:
        code = line.split("\t", 1)[0]
        if not groups or groups[-1][0] != code:
            groups.append((code, []))
        groups[-1][1].append(line)
    return lines[:MANIFEST_HEADER_LINES], groups


# each transform of a corpus file's lines, with what it does to one
# language's manifest rows
TRANSFORMS = {
    "repeated": (lambda lines: lines + lines, lambda rows: rows + rows),
    "reversed": (lambda lines: lines[::-1], lambda rows: rows[::-1]),
}


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_count_preserving_corpus_changes_keep_artifact_bytes(toy_dir, tmp_path,
                                                             capsys, name):
    transform, in_manifest = TRANSFORMS[name]
    corpus, rules = toy_copy(toy_dir, tmp_path)
    rewrite_corpora(corpus, transform)
    out = tmp_path / "out"
    assert run_pipeline(toy_dir, corpus, rules, out) == 0
    golden = toy_dir / "golden"
    for artifact in ARTIFACT_NAMES:
        if artifact != "manifest.tsv":
            assert ((out / artifact).read_bytes()
                    == (golden / artifact).read_bytes()), artifact
    header, groups = manifest_rows(
        (golden / "manifest.tsv").read_text(encoding="utf-8"))
    assert manifest_rows((out / "manifest.tsv").read_text(encoding="utf-8")) == (
        header, [(code, in_manifest(rows)) for code, rows in groups])

    # sim matrix counts through the same path
    assert run_sim_matrix(toy_dir, corpus, rules, tmp_path) == 0
    assert ((tmp_path / "matrix.csv").read_bytes()
            == (out / "similarity.csv").read_bytes())
    assert ((tmp_path / "dists.csv").read_bytes()
            == (out / "distributions.csv").read_bytes())
    capsys.readouterr()


TOY_CODES = ("aaa", "aab", "aba", "abb")


@pytest.mark.parametrize("subset", [
    subset for n in (2, 3) for subset in itertools.combinations(TOY_CODES, n)],
    ids="-".join)
def test_sim_matrix_over_a_subset_writes_the_full_runs_cells(toy_dir, tmp_path,
                                                             capsys, subset):
    # each cell depends only on its two languages' counts
    corpus, rules = toy_copy(toy_dir, tmp_path)
    for code in set(TOY_CODES) - set(subset):
        (corpus / f"{code}.tsv").unlink()
    assert run_sim_matrix(toy_dir, corpus, rules, tmp_path) == 0
    full = [line.split(",") for line in (toy_dir / "golden" / "similarity.csv")
            .read_text(encoding="utf-8").splitlines()]
    keep = [0] + [full[0].index(code) for code in subset]
    expected = "".join(",".join(full[i][j] for j in keep) + "\n" for i in keep)
    assert (tmp_path / "matrix.csv").read_text(encoding="utf-8") == expected
    capsys.readouterr()


def hours_times_four(rows):
    """Registry data rows with each hours cell (the last) times 4, exactly."""
    scaled = []
    for row in rows:
        *cells, hours = row.rstrip("\n").split(",")
        scaled.append(",".join(cells + [repr(4 * float(hours))]) + "\n")
    return scaled


# each transform of the registry's data rows, with the factor it applies
# to the manifest's total hours; the family weights (hours over their
# family mean) and every ranking by hours stay the same
REGISTRY_TRANSFORMS = {
    "reversed": (lambda rows: rows[::-1], 1),
    "hours-times-4": (hours_times_four, 4),
}


@pytest.mark.parametrize("name", sorted(REGISTRY_TRANSFORMS))
def test_weight_preserving_registry_changes_keep_artifact_bytes(toy_dir, tmp_path,
                                                                capsys, name):
    transform, hours_factor = REGISTRY_TRANSFORMS[name]
    header, *rows = (toy_dir / "registry.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    registry = tmp_path / "registry.csv"
    registry.write_text(header + "".join(transform(rows)), encoding="utf-8")
    out = tmp_path / "out"
    assert run_pipeline(toy_dir, toy_dir / "corpus", toy_dir / "rules", out,
                        registry) == 0
    golden = toy_dir / "golden"
    for artifact in ARTIFACT_NAMES:
        expected = (golden / artifact).read_bytes()
        if artifact == "manifest.tsv":
            total = b"#total_hours\t48.5\n"
            assert total in expected
            expected = expected.replace(
                total, f"#total_hours\t{fmt_float(48.5 * hours_factor)}\n".encode())
        assert (out / artifact).read_bytes() == expected, artifact
    capsys.readouterr()


# (rule added to aab.rules or None, {utterance number: new text}, message);
# the failing word sits in several utterances and the first one is named,
# with the offset the utterance's own conversion reports; the first failing
# word in text order wins, so a tokenize error before an unmatched grapheme
# is the one reported
FAILURES = {
    "unmatched": (None, {3: "chik squt mabe", 5: "shemi tus squt",
                         7: "squt mek bitu shan"},
                  "aab: utterance 3: no rule matches 'q' at offset 6"),
    "tokenize": ("x\t\u0303", {2: "bis axa tukan mesh", 4: "nesta xa betu kim",
                               6: "xa sube china task"},
                 "aab: utterance 4: word 'xa': combining mark COMBINING TILDE "
                 "with no base symbol at offset 0"),
    "unmatched-after-tokenize": (
        "x\t\u0303", {4: "nesta xa betu kiqm", 6: "xa sube china task"},
        "aab: utterance 4: word 'xa': combining mark COMBINING TILDE with no base "
        "symbol at offset 0"),
}


def broken_toy(toy_dir, tmp_path, name):
    rule, texts, message = FAILURES[name]
    corpus, rules = toy_copy(toy_dir, tmp_path)
    if rule is not None:
        with open(rules / "aab.rules", "a", encoding="utf-8") as f:
            f.write(rule + "\n")
    tsv = corpus / "aab.tsv"
    lines = tsv.read_text(encoding="utf-8").splitlines(keepends=True)
    for n, text in texts.items():
        audio = lines[n - 1].split("\t", 1)[0]
        lines[n - 1] = f"{audio}\t{text}\n"
    tsv.write_text("".join(lines), encoding="utf-8")
    return corpus, rules, message


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_pipeline_names_the_first_failing_utterance(toy_dir, tmp_path, capsys,
                                                    name):
    corpus, rules, message = broken_toy(toy_dir, tmp_path, name)
    assert run_pipeline(toy_dir, corpus, rules, tmp_path / "out") == 2
    assert capsys.readouterr() == ("", f"phonosim: error: [g2p] {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_sim_matrix_names_the_first_failing_utterance(toy_dir, tmp_path, capsys,
                                                      name):
    corpus, rules, message = broken_toy(toy_dir, tmp_path, name)
    assert run_sim_matrix(toy_dir, corpus, rules, tmp_path) == 2
    assert capsys.readouterr() == ("", f"phonosim: error: {message}\n")
    assert not (tmp_path / "matrix.csv").exists()


def test_lone_cr_inside_a_corpus_line_separates_words(toy_dir, tmp_path, capsys):
    # lines end at LF (or CRLF); a lone CR stays in the utterance, where it
    # separates words like a space, so the counts are the golden ones
    corpus, rules = toy_copy(toy_dir, tmp_path)
    tsv = corpus / "aaa.tsv"
    data = tsv.read_bytes()
    assert data.startswith(b"clips/aaa_0001.mp3\tmati shuna kicha\n")
    tsv.write_bytes(data.replace(b"mati shuna kicha\n", b"mati shuna\rkicha\r\n", 1))
    assert run_sim_matrix(toy_dir, corpus, rules, tmp_path) == 0
    golden = toy_dir / "golden"
    assert (tmp_path / "matrix.csv").read_bytes() == (golden / "similarity.csv").read_bytes()
    assert (tmp_path / "dists.csv").read_bytes() == (golden / "distributions.csv").read_bytes()
    capsys.readouterr()
