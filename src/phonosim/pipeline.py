"""End-to-end pipeline: corpora -> G2P -> distributions -> similarity ->
PCA -> family contours -> selection -> training manifest.

Everything is deterministic (no RNG anywhere), so rerunning on identical
inputs reproduces byte-identical artifacts. Partial outputs go to a
temporary directory and are only moved into place once every stage has
succeeded.

Corpus layout: `<corpus_dir>/<code>.tsv` with `audio_path<TAB>text` lines,
rule files at `<rules_dir>/<code>.rules`. Languages present in both the
registry and the corpus directory are analyzed; a corpus without a rule
file, or whose rule file declares another `@language`, aborts the G2P
stage naming the language. The G2P stage only counts phonemes
(`count_corpora`, shared with `sim matrix`): each corpus becomes a word
table, and each distinct word is converted once. Utterance sequences are
built (`convert_corpora`, one `g2p.transliterate_lines` call per corpus)
only for the manifest's languages, the target and its sources, after
selection. Distributions and similarity live in `stats`
(`phoneme_distributions`, `similarity_matrix`).
"""

import configparser
import dataclasses
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

from .density import (KDEParams, check_level, check_resolution, kde_contours,
                      silverman_bandwidths, weights_from_hours,
                      write_contours_json)
from .errors import DataError, ParseError, PhonosimError, PipelineError
from .g2p import load_ruleset, phoneme_counts, transliterate_lines
from .ipa import default_policy, load_policy
from .pca import pca_project, write_coords_csv
from .registry import Registry, code_problem, load_registry
from .render import render_svg
from .selection import (check_selection, emit_manifest, select_strategy,
                        write_manifest_tsv, write_selection_report)
from .stats import (family_mean_similarities, phoneme_distributions,
                    similarity_matrix, write_distributions_csv, write_matrix_csv)
from .formats import data_lines, fmt_float, parse_bool, utf8_errors, write_lines

ARTIFACT_NAMES = (
    "distributions.csv", "similarity.csv", "pca.csv", "contours.json",
    "contours.svg", "family_report.txt", "selection.tsv", "manifest.tsv",
)


def _number(kind, name, value):
    try:
        number = kind(value)
        if kind is int and not isinstance(value, str) and number != value:
            raise ValueError  # int() would truncate 2.5 to 2
        return number
    except (ValueError, OverflowError):
        raise DataError(f"setting {name!r} must be "
                        f"{'an integer' if kind is int else 'a number'}, "
                        f"got {value!r}") from None


@dataclasses.dataclass
class PipelineConfig:
    """Pipeline settings; each field name is also its `[pipeline]` key and,
    with `-` for `_`, its `phonosim pipeline` flag."""
    corpus_dir: Path
    rules_dir: Path
    registry: Path
    out: Path
    target: str
    strategy: str = "corpus_sim"
    policy: Path | None = None
    k: int = 3
    level: float = 0.1
    relative: bool = False
    resolution: int = 512

    def __post_init__(self):
        for name in ("corpus_dir", "rules_dir", "registry", "out"):
            setattr(self, name, Path(getattr(self, name)))
        self.policy = Path(self.policy) if self.policy else None
        self.k = _number(int, "k", self.k)
        self.resolution = _number(int, "resolution", self.resolution)
        self.level = _number(float, "level", self.level)
        if isinstance(self.relative, str):
            try:
                self.relative = parse_bool(self.relative, None, None)
            except ParseError:
                raise DataError("setting 'relative' must be a boolean, "
                                f"got {self.relative!r}") from None
        check_selection(self.strategy, self.k)
        check_level(self.level)
        check_resolution(self.resolution)


def load_config(path=None, overrides=None) -> PipelineConfig:
    """PipelineConfig from a `[pipeline]` INI section and/or overrides.

    Keys are the PipelineConfig field names; overrides (key -> value) win
    over the file. Relative paths resolve against the file's directory
    (the cwd without a file); fields without a default are required. The
    file's own values are converted first, so that an error in one of
    them names the file and an override replaces a bad file value.
    """
    section, base = {}, Path()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        with utf8_errors(path):
            if not parser.read(path, encoding="utf-8"):
                raise ParseError("config file not found or unreadable", path)
        if not parser.has_section("pipeline"):
            raise ParseError("missing [pipeline] section", path)
        section, base = dict(parser["pipeline"]), Path(path).parent
    fields = dataclasses.fields(PipelineConfig)
    unknown = set(section) - {f.name for f in fields}
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(sorted(unknown))}", path)
    overrides = overrides or {}
    settings = {**section, **overrides}
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and not settings.get(f.name)]
    if missing:
        raise DataError(f"missing required settings: {', '.join(missing)}")
    for f in fields:
        if f.type in (Path, Path | None) and settings.get(f.name):
            settings[f.name] = base / settings[f.name]
    # the file's values, with the required ones it lacks (which convert
    # without error) from the overrides
    own = {f.name: settings[f.name] for f in fields
           if (f.name in section and f.name not in overrides)
           or f.default is dataclasses.MISSING}
    try:
        config = PipelineConfig(**own)
    except DataError as e:
        raise DataError(f"{e} (in {path})") from None
    return dataclasses.replace(config, **{k: settings[k] for k in overrides})


def read_corpus_tsv(path):
    """List of (audio_path, text) from `audio<TAB>text` lines."""
    utterances = []
    for line_no, line in data_lines(path):
        if "\t" not in line:
            raise ParseError("expected 'audio_path<TAB>text'", path, line_no)
        audio, _, text = line.partition("\t")
        utterances.append((audio.strip(), text))
    return utterances


def corpus_languages(corpus_dir):
    """Sorted codes of the `<code>.tsv` files in `corpus_dir`; no such file,
    or one whose name is no valid code, is an error."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise DataError(f"corpus directory {corpus_dir} does not exist")
    paths = sorted(corpus_dir.glob("*.tsv"))
    if not paths:
        raise DataError(f"no .tsv corpus files in {corpus_dir}")
    for path in paths:
        problem = code_problem(path.stem)
        if problem:
            raise DataError(f"{path}: {problem}")
    return [path.stem for path in paths]


def _corpus(code, corpus_dir, rules_dir):
    """(Ruleset, [(audio_path, text)]) of one language; a missing rule file,
    or one whose `@language` is not `code`, is an error."""
    rules_path = Path(rules_dir) / f"{code}.rules"
    if not rules_path.is_file():
        raise DataError(f"missing rules file for language {code!r} "
                        f"(expected {rules_path})")
    rs = load_ruleset(rules_path)
    if rs.language_code != code:
        raise DataError(f"{rules_path}: @language {rs.language_code!r} "
                        f"does not match corpus code {code!r}")
    return rs, read_corpus_tsv(Path(corpus_dir) / f"{code}.tsv")


def _convert(code, rs, utterances, policy, mode):
    seqs = []
    converted = transliterate_lines((t for _, t in utterances), rs, policy, mode)
    try:
        for (audio, _), seq in zip(utterances, converted):
            seqs.append((audio, seq))
    except PhonosimError as e:
        raise DataError(f"{code}: utterance {len(seqs) + 1}: {e}") from e
    return seqs


def convert_corpora(codes, corpus_dir, rules_dir, policy, mode="error"):
    """Code -> [(audio_path, phonemes)] from `<corpus_dir>/<code>.tsv` and
    `<rules_dir>/<code>.rules`; G2P errors name the language and utterance."""
    return {code: _convert(code, *_corpus(code, corpus_dir, rules_dir),
                           policy, mode)
            for code in codes}


def count_corpora(codes, corpus_dir, rules_dir, policy, mode="error"):
    """Code -> Counter of the phonemes of convert_corpora, errors included.

    Each corpus is prepared in one call over its texts joined with LF,
    which equals preparing them one by one: NFC cannot compose across LF,
    and casefold and the punctuation table act per character. On an
    error the utterances are converted one by one, only so that the error
    names the first failing utterance and counts its offset in it.
    """
    counts = {}
    for code in codes:
        rs, utterances = _corpus(code, corpus_dir, rules_dir)
        try:
            counts[code] = phoneme_counts(
                "\n".join(text for _, text in utterances), rs, policy, mode)
        except PhonosimError:
            _convert(code, rs, utterances, policy, mode)  # names the utterance
            raise
    return counts


@contextmanager
def _stage(name):
    try:
        yield
    except PhonosimError as e:
        raise PipelineError(name, str(e)) from e


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every stage; returns artifact name -> final path.

    Any stage failure raises PipelineError naming the stage; partial
    outputs are discarded with the temporary directory.
    """
    with _stage("output"):
        # a file at or above the output directory fails before any work
        found = next(p for p in (cfg.out, *cfg.out.parents) if p.exists())
        if not found.is_dir():
            raise DataError(f"{found} exists and is not a directory")

    with _stage("registry"):
        if not cfg.registry.exists():
            raise DataError(f"registry file {cfg.registry} does not exist")
        reg = load_registry(cfg.registry)
        reg.get(cfg.target)  # unknown target fails here

    with _stage("policy"):
        policy = load_policy(cfg.policy) if cfg.policy else default_policy()

    with _stage("corpus-scan"):
        langs = sorted(set(reg.codes).intersection(corpus_languages(cfg.corpus_dir)))
        if cfg.target not in langs:
            raise DataError(f"no corpus file for target language {cfg.target!r}")

    with _stage("g2p"):
        counts = count_corpora(langs, cfg.corpus_dir, cfg.rules_dir, policy)

    # temp dir next to the output so os.replace stays on one filesystem
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.TemporaryDirectory(prefix=".phonosim-", dir=cfg.out.parent)
    try:
        tmp_dir = Path(tmp.name)

        with _stage("distributions"):
            if not counts[cfg.target]:
                raise DataError(f"target {cfg.target!r} corpus produced no phonemes")
            dists = phoneme_distributions(counts)
            write_distributions_csv(dists, tmp_dir / "distributions.csv")

        with _stage("similarity"):
            matrix = similarity_matrix(dists)
            write_matrix_csv(matrix, tmp_dir / "similarity.csv")
            rows = family_mean_similarities(matrix, reg.families())
            lines = ["family\tmean_similarity\tn_languages"]
            lines += [f"{family}\t{fmt_float(mean)}\t{n}" for family, mean, n in rows]
            if rows:
                lines.append(f"highest\t{rows[0][0]}")
            write_lines(tmp_dir / "family_report.txt", lines)

        with _stage("pca"):
            proj = pca_project(matrix.values, matrix.codes)
            write_coords_csv(proj, tmp_dir / "pca.csv")

        with _stage("contours"):
            contour_sets = compute_family_contours(
                proj.codes, proj.coords, reg,
                level=cfg.level, relative=cfg.relative,
                resolution=cfg.resolution)
            write_contours_json(contour_sets, tmp_dir / "contours.json")
            render_svg(proj.codes, proj.coords, reg, contour_sets,
                       tmp_dir / "contours.svg")

        with _stage("selection"):
            sel = select_strategy(cfg.target, cfg.strategy, reg,
                                  matrix=matrix, k=cfg.k)
            write_selection_report(sel, tmp_dir / "selection.tsv")

        with _stage("manifest"):
            # utterance sequences only for the training languages
            corpora = convert_corpora(sel.languages, cfg.corpus_dir,
                                      cfg.rules_dir, policy)
            manifest = emit_manifest(sel, corpora, reg)
            write_manifest_tsv(manifest, tmp_dir / "manifest.tsv")

        cfg.out.mkdir(parents=True, exist_ok=True)
        artifacts = {}
        for name in ARTIFACT_NAMES:
            final = cfg.out / name
            os.replace(tmp_dir / name, final)
            artifacts[name] = final
        return artifacts
    finally:
        tmp.cleanup()


def compute_family_contours(codes, coords, reg: Registry, level, resolution,
                            relative=False):
    """Per-family KDE contour sets over projected coordinates.

    Weights follow recording hours (mean-one within the family); families
    with any nonpositive hours fall back to unit weights, families with a
    single point are skipped, both with warnings.
    """
    by_family: dict = {}
    for code, (x, y) in zip(codes, coords):
        record = reg.get(code)
        by_family.setdefault(record.family, []).append(
            (code, float(x), float(y), record.recording_hours))

    contour_sets = []
    for family in sorted(by_family):
        members = by_family[family]
        if len(members) < 2:
            warnings.warn(
                f"family {family!r} has only {len(members)} projected point(s); "
                "no contour")
            continue
        pts = [(x, y) for _, x, y, _ in members]
        hours = [h for _, _, _, h in members]
        if min(hours) <= 0:
            warnings.warn(
                f"family {family!r} has languages with zero recorded hours; "
                "using unit weights")
            hours = [1.0] * len(members)
        try:
            weights = weights_from_hours(hours)
            h_x, h_y = silverman_bandwidths(pts, weights)
            params = KDEParams(h_x, h_y, weights)
        except DataError as exc:
            raise DataError(f"family {family!r}: {exc}") from None
        contour_sets.append(kde_contours(pts, params, resolution=resolution,
                                         level=level, relative=relative,
                                         family=family))
    return contour_sets
