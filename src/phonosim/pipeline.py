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
import os
import tempfile
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .density import (KDEParams, extract_contours, rasterize,
                      silverman_bandwidths, weights_from_hours,
                      write_contours_json)
from .errors import DataError, ParseError, PhonosimError, PipelineError
from .g2p import load_ruleset, transliterate
from .ipa import _parse_bool, default_policy, load_policy
from .pca import pca_project, write_coords_csv
from .registry import Registry, load_registry
from .render import render_svg
from .selection import (Strategy, emit_manifest, select_strategy,
                        write_manifest_tsv, write_selection_report)
from .stats import (build_vocabulary, family_mean_similarities,
                    similarity_matrix, to_distribution,
                    write_distributions_csv, write_matrix_csv)
from .formats import fmt_float

ARTIFACT_NAMES = (
    "distributions.csv", "similarity.csv", "pca.csv", "contours.json",
    "contours.svg", "family_report.txt", "selection.tsv", "manifest.tsv",
)


@dataclass
class PipelineConfig:
    corpus_dir: Path
    rules_dir: Path
    registry_path: Path
    output_dir: Path
    target: str
    strategy: str = "corpus_sim"
    policy_path: Path | None = None
    k: int = 3
    contour_level: float = 0.1
    relative_level: bool = False
    resolution: int = 512

    def __post_init__(self):
        for name in ("corpus_dir", "rules_dir", "registry_path", "output_dir"):
            setattr(self, name, Path(getattr(self, name)))
        if self.policy_path is not None:
            self.policy_path = Path(self.policy_path)
        self.k = int(self.k)
        self.resolution = int(self.resolution)
        self.contour_level = float(self.contour_level)
        if self.k < 1:
            raise DataError("k must be at least 1")
        if self.contour_level <= 0:
            raise DataError("contour level must be positive")
        if self.resolution < 16:
            raise DataError("resolution must be at least 16")
        try:
            Strategy(self.strategy)
        except ValueError:
            raise DataError(f"unknown selection strategy {self.strategy!r}") from None


_CONFIG_KEYS = {
    "corpus_dir", "rules_dir", "registry", "policy", "target", "strategy",
    "k", "level", "relative", "resolution", "out",
}


def load_config(path, overrides=None) -> PipelineConfig:
    """Read a `[pipeline]` INI section; overrides (from flags) win."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ParseError("config file not found or unreadable", path)
    if not parser.has_section("pipeline"):
        raise ParseError("missing [pipeline] section", path)
    section = dict(parser["pipeline"])
    unknown = set(section) - _CONFIG_KEYS
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(sorted(unknown))}", path)
    if overrides:
        section.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_mapping(section, base=Path(path).parent, path=path)


def config_from_mapping(section, base=Path("."), path=None) -> PipelineConfig:
    def path_of(key):
        value = section.get(key)
        if value is None:
            raise DataError(f"missing required setting {key!r}")
        p = Path(value)
        return p if p.is_absolute() else base / p

    relative = section.get("relative", "false")
    if isinstance(relative, str):
        relative = _parse_bool(relative, path, None)
    policy = section.get("policy")
    return PipelineConfig(
        corpus_dir=path_of("corpus_dir"),
        rules_dir=path_of("rules_dir"),
        registry_path=path_of("registry"),
        output_dir=path_of("out"),
        target=section.get("target") or "",
        strategy=section.get("strategy", "corpus_sim"),
        policy_path=(Path(policy) if Path(policy).is_absolute() else base / policy)
        if policy else None,
        k=section.get("k", 3),
        contour_level=section.get("level", 0.1),
        relative_level=relative,
        resolution=section.get("resolution", 512),
    )


def read_corpus_tsv(path):
    """List of (audio_path, text) from `audio<TAB>text` lines."""
    utterances = []
    with open(path, encoding="utf-8") as f:
        for line_no, raw in enumerate(f, 1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                raise ParseError("expected 'audio_path<TAB>text'", path, line_no)
            audio, _, text = line.partition("\t")
            utterances.append((audio.strip(), text))
    return utterances


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
        if not cfg.registry_path.exists():
            raise DataError(f"registry file {cfg.registry_path} does not exist")
        reg = load_registry(cfg.registry_path)
        if not cfg.target:
            raise DataError("no target language configured")
        reg.get(cfg.target)  # unknown target fails here

    with _stage("policy"):
        policy = load_policy(cfg.policy_path) if cfg.policy_path else default_policy()

    with _stage("corpus-scan"):
        if not cfg.corpus_dir.is_dir():
            raise DataError(f"corpus directory {cfg.corpus_dir} does not exist")
        langs = [r.code for r in reg if (cfg.corpus_dir / f"{r.code}.tsv").is_file()]
        if cfg.target not in langs:
            raise DataError(f"no corpus file for target language {cfg.target!r}")

    converted = {}
    with _stage("g2p"):
        for code in langs:
            rules_path = cfg.rules_dir / f"{code}.rules"
            if not rules_path.is_file():
                raise DataError(f"missing rules file for language {code!r} "
                                f"(expected {rules_path})")
            rs = load_ruleset(rules_path)
            utterances = read_corpus_tsv(cfg.corpus_dir / f"{code}.tsv")
            seqs = []
            for line_no, (audio, text) in enumerate(utterances, 1):
                try:
                    seqs.append((audio, transliterate(text, rs, policy)))
                except PhonosimError as e:
                    raise DataError(f"{code}: utterance {line_no}: {e}") from e
            converted[code] = seqs

    # temp dir next to the output so os.replace stays on one filesystem
    cfg.output_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.TemporaryDirectory(prefix=".phonosim-",
                                      dir=cfg.output_dir.parent)
    try:
        tmp_dir = Path(tmp.name)

        with _stage("distributions"):
            counts = {}
            for code in langs:
                c = Counter()
                for _, seq in converted[code]:
                    c.update(seq)
                if not c:
                    warnings.warn(f"language {code!r} has an empty corpus; excluded")
                    continue
                counts[code] = c
            if cfg.target not in counts:
                raise DataError(f"target {cfg.target!r} corpus produced no phonemes")
            if len(counts) < 2:
                raise DataError("need at least 2 languages with nonempty corpora")
            analyzed = [c for c in langs if c in counts]
            vocab = build_vocabulary(counts[c] for c in analyzed)
            dists = [to_distribution(counts[c], vocab, language_code=c)
                     for c in analyzed]
            write_distributions_csv(dists, vocab, tmp_dir / "distributions.csv")

        with _stage("similarity"):
            matrix = similarity_matrix(dists)
            write_matrix_csv(matrix, tmp_dir / "similarity.csv")
            rows = family_mean_similarities(matrix, reg.families())
            with open(tmp_dir / "family_report.txt", "w", encoding="utf-8",
                      newline="\n") as f:
                f.write("family\tmean_similarity\tn_languages\n")
                for family, mean, n in rows:
                    f.write(f"{family}\t{fmt_float(mean)}\t{n}\n")
                if rows:
                    f.write(f"highest\t{rows[0][0]}\n")

        with _stage("pca"):
            proj = pca_project(matrix.values, matrix.codes, dims=2)
            write_coords_csv(proj, tmp_dir / "pca.csv")

        with _stage("contours"):
            contour_sets = compute_family_contours(
                proj.codes, proj.coords, reg,
                level=cfg.contour_level, relative=cfg.relative_level,
                resolution=cfg.resolution)
            write_contours_json(contour_sets, tmp_dir / "contours.json")
            points = [(code, float(x), float(y), reg.get(code).family)
                      for code, (x, y) in zip(proj.codes, proj.coords)]
            render_svg(points, contour_sets, tmp_dir / "contours.svg")

        with _stage("selection"):
            # selection operates over the analyzed languages only: the
            # manifest needs a corpus for every chosen source
            sub_registry = Registry(
                [reg.get(c) for c in analyzed],
                low_resource_threshold_hours=reg.low_resource_threshold_hours)
            sel = select_strategy(cfg.target, cfg.strategy, sub_registry,
                                  matrix=matrix, k=cfg.k)
            write_selection_report(sel, tmp_dir / "selection.tsv")

        with _stage("manifest"):
            manifest = emit_manifest(sel, converted, reg)
            write_manifest_tsv(manifest, tmp_dir / "manifest.tsv")

        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        artifacts = {}
        for name in ARTIFACT_NAMES:
            final = cfg.output_dir / name
            os.replace(tmp_dir / name, final)
            artifacts[name] = final
        return artifacts
    finally:
        tmp.cleanup()


def compute_family_contours(codes, coords, reg: Registry, level=0.1,
                            relative=False, resolution=512, robust=False):
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
        params = KDEParams(h_x, h_y, weights, family=family)
        grid = rasterize(pts, params, resolution=resolution)
        cutoff = level * float(grid.values.max()) if relative else level
        contour_sets.append(extract_contours(grid, cutoff, family=family))
    return contour_sets
