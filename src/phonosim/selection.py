"""Source-language selection strategies and training manifest assembly.

STRATEGIES: monolingual (no sources), family (same-family languages),
all (every other language), corpus_sim (the k languages with the highest
cosine similarity to the target; k defaults to 3). k must be at least 1
under every strategy. Given a matrix, family and all take only the
languages it holds, so `select --matrix` picks the pipeline's sources.
The manifest always trains on the target alongside its sources, and its
phoneme inventory is the union over target plus sources so every target
utterance stays representable.
"""

import warnings
from dataclasses import dataclass
from itertools import chain

from .errors import DataError
from .formats import fmt_float, write_lines
from .registry import Registry


STRATEGIES = ("monolingual", "family", "all", "corpus_sim")


@dataclass(frozen=True)
class SelectionResult:
    target: str
    strategy: str    # one of STRATEGIES
    sources: tuple   # (code, similarity score or None) pairs, selection order

    @property
    def k(self):
        return len(self.sources)

    @property
    def languages(self):
        """The training languages: the target first, then the sources in order."""
        return (self.target,) + self.source_codes()

    def source_codes(self):
        return tuple(code for code, _ in self.sources)


@dataclass
class TrainingManifest:
    selection: SelectionResult
    utterances: list                 # (language code, audio path, phoneme list)
    phonemes: tuple                  # sorted union over the utterances
    total_hours: float


def check_selection(strategy, k):
    """DataError unless strategy is one of STRATEGIES and k is at least 1."""
    if strategy not in STRATEGIES:
        raise DataError(f"unknown selection strategy {strategy!r}")
    if k < 1:
        raise DataError("k must be at least 1")


def select_strategy(target, strategy, reg: Registry, matrix=None, k=3) -> SelectionResult:
    """The target's sources under one of STRATEGIES; k must be at least 1,
    and a given matrix must hold the target.

    family and all list the other registry languages (of the target's
    family) in code order; given a matrix, only those it holds.
    corpus_sim ranks the other matrix codes by similarity, ties broken by
    greater recording hours (0 for a code the registry lacks), then code;
    k beyond the candidates truncates with a warning.
    """
    check_selection(strategy, k)
    family = reg.get(target).family
    row = None if matrix is None else matrix.values[matrix.index(target)]
    if strategy == "monolingual":
        return SelectionResult(target, strategy, ())
    if strategy != "corpus_sim":
        return SelectionResult(target, strategy, tuple(
            (r.code, None) for r in reg
            if r.code != target and (matrix is None or r.code in matrix.codes)
            and (strategy == "all" or r.family == family)))
    if matrix is None:
        raise DataError("strategy corpus_sim requires a similarity matrix")
    hours = {r.code: r.recording_hours for r in reg}
    candidates = sorted(
        ((code, float(row[j])) for j, code in enumerate(matrix.codes) if code != target),
        key=lambda cs: (-cs[1], -hours.get(cs[0], 0.0), cs[0]))
    if k > len(candidates):
        warnings.warn(
            f"k={k} exceeds the {len(candidates)} available languages; truncated")
    return SelectionResult(target, strategy, tuple(candidates[:k]))


def emit_manifest(selection: SelectionResult, corpora, reg: Registry) -> TrainingManifest:
    """Assemble the training manifest for a selection.

    corpora maps each selected code -> list of (audio_path, phoneme list).
    Utterances are grouped by language, target first then sources in
    selection order. The inventory is the union of the utterances'
    phonemes, so every transcription is written in it by construction.
    The utterances hold the corpora's phoneme lists themselves, not
    copies.
    """
    languages = selection.languages
    utterances = [(code, audio_path, seq)
                  for code in languages for audio_path, seq in corpora[code]]
    phonemes = tuple(sorted({ph for _, _, seq in utterances for ph in seq}))
    total_hours = sum(reg.get(code).recording_hours for code in languages)
    return TrainingManifest(selection, utterances, phonemes, float(total_hours))


def selection_report(selection: SelectionResult) -> str:
    lines = [
        f"target\t{selection.target}",
        f"strategy\t{selection.strategy}",
        f"k\t{selection.k}",
    ]
    for code, score in selection.sources:
        if score is None:
            lines.append(f"source\t{code}")
        else:
            lines.append(f"source\t{code}\t{fmt_float(score)}")
    return "\n".join(lines) + "\n"


def write_selection_report(selection: SelectionResult, path):
    write_lines(path, selection_report(selection).splitlines())


def write_manifest_tsv(manifest: TrainingManifest, path):
    """Structured header block, then `lang<TAB>audio_path<TAB>ipa` rows."""
    sources = " ".join(
        code if score is None else f"{code}:{fmt_float(score)}"
        for code, score in manifest.selection.sources)
    header = [
        f"#target\t{manifest.selection.target}",
        f"#strategy\t{manifest.selection.strategy}",
        f"#sources\t{sources}",
        "#inventory\t" + " ".join(manifest.phonemes),
        f"#total_hours\t{fmt_float(manifest.total_hours)}",
        "lang\taudio_path\tipa",
    ]
    rows = (f"{code}\t{audio_path}\t{' '.join(seq)}"
            for code, audio_path, seq in manifest.utterances)
    write_lines(path, chain(header, rows))
