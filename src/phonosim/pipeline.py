"""End-to-end pipeline: corpora -> G2P -> distributions -> similarity ->
PCA -> family contours -> selection -> training manifest.

Everything is deterministic (no RNG anywhere), so rerunning on identical
inputs reproduces byte-identical artifacts. Partial outputs go to a
temporary directory and are only moved into place once every stage has
succeeded.

Corpus layout: `<corpus_dir>/<code>.tsv` with `audio_path<TAB>text` lines,
rule files at `<rules_dir>/<code>.rules`. Languages present in both the
registry and the corpus directory are analyzed; a corpus without a rule
file aborts the G2P stage naming the language.
"""

import configparser
import dataclasses
import math
import os
import tempfile
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from .density import (KDEParams, contour_grid, extract_contours,
                      silverman_bandwidths, weights_from_hours,
                      write_contours_json)
from .errors import DataError, ParseError, PhonosimError, PipelineError
from .g2p import load_ruleset, transliterate
from .ipa import default_policy, load_policy
from .pca import pca_project, write_coords_csv
from .registry import Registry, code_problem, load_registry
from .render import render_svg
from .selection import (Strategy, emit_manifest, select_strategy,
                        write_manifest_tsv, write_selection_report)
from .stats import (build_vocabulary, family_mean_similarities,
                    similarity_matrix, to_distribution,
                    write_distributions_csv, write_matrix_csv)
from .formats import data_lines, fmt_float, parse_bool, write_lines

ARTIFACT_NAMES = (
    "distributions.csv", "similarity.csv", "pca.csv", "contours.json",
    "contours.svg", "family_report.txt", "selection.tsv", "manifest.tsv",
)


def _number(kind, name, value):
    try:
        return kind(value)
    except ValueError:
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
        if self.k < 1:
            raise DataError("k must be at least 1")
        if not (math.isfinite(self.level) and self.level > 0):
            raise DataError("setting 'level' must be finite and positive, "
                            f"got {self.level!r}")
        if self.resolution < 16:
            raise DataError("resolution must be at least 16")
        try:
            Strategy(self.strategy)
        except ValueError:
            raise DataError(f"unknown selection strategy {self.strategy!r}") from None


def load_config(path=None, overrides=None) -> PipelineConfig:
    """PipelineConfig from a `[pipeline]` INI section and/or overrides.

    Keys are the PipelineConfig field names; overrides (key -> value) win
    over the file. Relative paths resolve against the file's directory
    (the cwd without a file); fields without a default are required.
    """
    section, base = {}, Path()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        if not parser.read(path, encoding="utf-8"):
            raise ParseError("config file not found or unreadable", path)
        if not parser.has_section("pipeline"):
            raise ParseError("missing [pipeline] section", path)
        section, base = dict(parser["pipeline"]), Path(path).parent
    fields = dataclasses.fields(PipelineConfig)
    unknown = set(section) - {f.name for f in fields}
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(sorted(unknown))}", path)
    section.update(overrides or {})
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and not section.get(f.name)]
    if missing:
        raise DataError(f"missing required settings: {', '.join(missing)}")
    for f in fields:
        if f.type in (Path, Path | None) and section.get(f.name):
            section[f.name] = base / section[f.name]
    if "relative" in section:
        section["relative"] = parse_bool(section["relative"], path, None)
    return PipelineConfig(**section)


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


def convert_corpora(codes, corpus_dir, rules_dir, policy, mode="error"):
    """Code -> [(audio_path, phonemes)] from `<corpus_dir>/<code>.tsv` and
    `<rules_dir>/<code>.rules`; G2P errors name the language and utterance."""
    converted = {}
    for code in codes:
        rules_path = Path(rules_dir) / f"{code}.rules"
        if not rules_path.is_file():
            raise DataError(f"missing rules file for language {code!r} "
                            f"(expected {rules_path})")
        rs = load_ruleset(rules_path)
        utterances = read_corpus_tsv(Path(corpus_dir) / f"{code}.tsv")
        seqs = []
        for n, (audio, text) in enumerate(utterances, 1):
            try:
                seqs.append((audio, transliterate(text, rs, policy, mode=mode)))
            except PhonosimError as e:
                raise DataError(f"{code}: utterance {n}: {e}") from e
        converted[code] = seqs
    return converted


def phoneme_distributions(converted):
    """(vocabulary, distributions) in `converted` order. Languages without
    phonemes are dropped with a warning; fewer than 2 left is an error."""
    counts = {}
    for code, seqs in converted.items():
        c = Counter()
        for _, seq in seqs:
            c.update(seq)
        if not c:
            warnings.warn(f"language {code!r} has an empty corpus; excluded")
            continue
        counts[code] = c
    if len(counts) < 2:
        raise DataError("need at least 2 languages with nonempty corpora")
    vocab = build_vocabulary(counts.values())
    return vocab, [to_distribution(c, vocab, language_code=code)
                   for code, c in counts.items()]


@contextmanager
def _stage(name):
    try:
        yield
    except PipelineError:
        raise
    except PhonosimError as e:
        raise PipelineError(name, str(e)) from e


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every stage; returns artifact name -> final path.

    Any stage failure raises PipelineError naming the stage; partial
    outputs are discarded with the temporary directory.
    """
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
        converted = convert_corpora(langs, cfg.corpus_dir, cfg.rules_dir, policy)

    # temp dir next to the output so os.replace stays on one filesystem
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.TemporaryDirectory(prefix=".phonosim-", dir=cfg.out.parent)
    try:
        tmp_dir = Path(tmp.name)

        with _stage("distributions"):
            if not any(seq for _, seq in converted[cfg.target]):
                raise DataError(f"target {cfg.target!r} corpus produced no phonemes")
            vocab, dists = phoneme_distributions(converted)
            write_distributions_csv(dists, vocab, tmp_dir / "distributions.csv")

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
            proj = pca_project(matrix.values, matrix.codes, dims=2)
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
            # selection operates over the analyzed languages only: the
            # manifest needs a corpus for every chosen source
            sub_registry = Registry([reg.get(c) for c in matrix.codes])
            sel = select_strategy(cfg.target, cfg.strategy, sub_registry,
                                  matrix=matrix, k=cfg.k)
            write_selection_report(sel, tmp_dir / "selection.tsv")

        with _stage("manifest"):
            manifest = emit_manifest(sel, converted, reg)
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
                            relative=False, robust=False):
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
            weights = [1.0] * len(members)
        else:
            weights = weights_from_hours(hours)
        h_x, h_y = silverman_bandwidths(pts, weights, robust=robust)
        params = KDEParams(h_x, h_y, weights)
        grid, cutoff = contour_grid(pts, params, resolution=resolution,
                                    level=level, relative=relative)
        contour_sets.append(extract_contours(grid, cutoff, family=family))
        del grid  # not alive while the next family's grid is built
    return contour_sets
