"""Seeded input generator for the phonosim benchmark.

Every workload is built from the seed alone, with string-seeded
random.Random streams (stable across interpreters and hash seeds), so the
same seed gives byte-identical input files. The generator also carries an
independent reference G2P for the rule files it writes: each rule outputs
a fixed list of IPA segments, every segment starts with a base letter and
carries no composable mark, so tokenizing the concatenated output gives
back exactly those segments and normalization only applies the default
sʲ→ʃ / zʲ→ʒ merge. That oracle is what the evaluation references and
hypotheses are built from, and what the benchmark checks G2P output
against; it never imports phonosim.
"""

import bisect
import random
from dataclasses import dataclass, field
from pathlib import Path

# The 22 Common Voice 18 languages of tests/data/cv18_registry.csv, copied
# so the benchmark does not depend on the layout of the test data.
CV18_REGISTRY = (
    ("pa", "Punjabi", "Indo-Iranian", "Indo-Aryan", "2.29"),
    ("hi", "Hindi", "Indo-Iranian", "Indo-Aryan", "14.71"),
    ("bn", "Bengali", "Indo-Iranian", "Indo-Aryan", "53.62"),
    ("ur", "Urdu", "Indo-Iranian", "Indo-Aryan", "63.69"),
    ("ku", "Kurdish", "Indo-Iranian", "Iranian", "67.83"),
    ("fa", "Persian", "Indo-Iranian", "Iranian", "365.64"),
    ("az", "Azeri", "Turkic", "Oghuz", "0.33"),
    ("kk", "Kazakh", "Turkic", "Kipchak", "2.15"),
    ("tk", "Turkmen", "Turkic", "Oghuz", "2.75"),
    ("sah", "Sakha", "Turkic", "Siberian", "8.35"),
    ("tt", "Tatar", "Turkic", "Kipchak", "30.66"),
    ("uz", "Uzbek", "Turkic", "Karluk", "99.81"),
    ("tr", "Turkish", "Turkic", "Oghuz", "120.05"),
    ("ug", "Uyghur", "Turkic", "Karluk", "232.67"),
    ("ba", "Bashkir", "Turkic", "Kipchak", "258.04"),
    ("ti", "Tigrinya", "Afro-Asiatic", "Semitic", "0.03"),
    ("tig", "Tigre", "Afro-Asiatic", "Semitic", "1.12"),
    ("am", "Amharic", "Afro-Asiatic", "Semitic", "1.60"),
    ("ha", "Hausa", "Afro-Asiatic", "Chadic", "3.95"),
    ("mt", "Maltese", "Afro-Asiatic", "Semitic", "8.64"),
    ("ar", "Arabic", "Afro-Asiatic", "Semitic", "90.44"),
    ("kab", "Kabyle", "Afro-Asiatic", "Berber", "567.32"),
)

POLICY_TEXT = (
    "# default normalization policy, written out\n"
    "strip_stress = true\n"
    "strip_voqs = true\n"
    "strip_diacritics = .\n"
    "[merge]\n"
    "sʲ\tʃ\n"
    "zʲ\tʒ\n"
)
MERGES = {"sʲ": "ʃ", "zʲ": "ʒ"}

VOWELS = "aeiou"
CONSONANTS = "bcdfghjklmnpqrstvwxyz"
# Per-letter alternatives a family template or a language may pick from.
# Each value is one output; an output is a tuple of segments.
LETTER_CHOICES = {
    "a": [("a",), ("ɑ",), ("æ",)], "e": [("e",), ("ɛ",), ("ə",)],
    "i": [("i",), ("ɪ",), ("ɨ",)], "o": [("o",), ("ɔ",), ("ø",)],
    "u": [("u",), ("ʊ",), ("y",)],
    "b": [("b",), ("β",)], "c": [("t͡ʃ",), ("k",), ("d͡ʒ",), ("t͡s",)],
    "d": [("d",), ("ð",)], "f": [("f",), ("ɸ",)], "g": [("g",), ("ɣ",)],
    "h": [("h",), ("x",), ("ħ",), ()], "j": [("j",), ("d͡ʒ",), ("ʒ",)],
    "k": [("k",), ("kʰ",)], "l": [("l",), ("ɫ",), ("ɬ",)],
    "m": [("m",)], "n": [("n",)], "p": [("p",), ("pʰ",)],
    "q": [("q",), ("k",), ("ʔ",), ()], "r": [("r",), ("ɾ",), ("ʁ",)],
    "s": [("s",)], "t": [("t",), ("tʰ",)], "v": [("v",), ("ʋ",)],
    "w": [("w",), ("v",)], "x": [("χ",), ("k", "s"), ("ʃ",)],
    "y": [("j",), ("ɨ",), ("y",)], "z": [("z",), ("zʲ",)],
}
DIGRAPHS = {
    "sh": ("ʃ",), "ch": ("t͡ʃ",), "zh": ("ʒ",), "kh": ("χ",), "gh": ("ɣ",),
    "th": ("θ",), "ng": ("ŋ",), "ts": ("t͡s",), "sy": ("sʲ",),
    "aa": ("aː",), "ee": ("eː",), "ii": ("iː",), "oo": ("oː",),
    "uu": ("uː",), "ny": ("ɲ",), "dj": ("d͡ʒ",),
}
# (grapheme, output, left context, right context, priority)
CONTEXT_RULES = (
    ("n", ("ŋ",), "", "[kg]", 1),
    ("s", ("sʲ",), "", "[ie]", 1),     # merged to ʃ by the policy
    ("e", ("j", "e"), "#", "", 1),
    ("d", ("t",), "", "#", 1),
    ("k", ("q",), "", "[aou]", 1),
    ("l", ("ʎ",), "[i]", "", 1),
    ("t", ("t͡ʃ",), "", "[i]", 2),
)
PUNCTUATION = ",.?!"


@dataclass
class Rule:
    grapheme: str
    output: tuple
    left: str = ""
    right: str = ""
    priority: int = 0


@dataclass
class Language:
    code: str
    family: str
    rules: list = field(default_factory=list)

    def rule_text(self):
        lines = [f"# generated orthography for {self.code}",
                 f"@language {self.code}"]
        for r in self.rules:
            lines.append("\t".join((r.grapheme, "".join(r.output), r.left,
                                    r.right, str(r.priority))))
        return "\n".join(lines) + "\n"

    def onsets(self):
        return [r.grapheme for r in self.rules if not r.left and not r.right
                and r.grapheme[0] in CONSONANTS]

    def nuclei(self):
        return [r.grapheme for r in self.rules if not r.left and not r.right
                and r.grapheme[0] in VOWELS and r.output]


def family_template(rng):
    letters = {ch: rng.choice(opts) for ch, opts in LETTER_CHOICES.items()}
    letters.update({v: (v,) for v in VOWELS if rng.random() < 0.7})
    digraphs = {g: out for g, out in DIGRAPHS.items() if rng.random() < 0.5}
    contexts = [r for r in CONTEXT_RULES if rng.random() < 0.6]
    return letters, digraphs, contexts


def derive_language(code, family, template, rng):
    """A family member: the template with about a fifth of it mutated."""
    letters, digraphs, contexts = template
    rules = []
    for ch in VOWELS + CONSONANTS:
        out = letters[ch]
        if rng.random() < 0.2:
            out = rng.choice(LETTER_CHOICES[ch])
        if ch in VOWELS and not out:
            out = (ch,)
        rules.append(Rule(ch, out))
    for g, out in DIGRAPHS.items():
        keep = g in digraphs
        if rng.random() < 0.15:
            keep = not keep
        if keep:
            rules.append(Rule(g, out))
    for g, out, left, right, prio in CONTEXT_RULES:
        keep = any(c[0] == g and c[2] == left and c[3] == right for c in contexts)
        if rng.random() < 0.15:
            keep = not keep
        if keep:
            rules.append(Rule(g, out, left, right, prio))
    rng.shuffle(rules)
    return Language(code, family, rules)


# -- reference G2P ---------------------------------------------------------

def _parse_context(text, side):
    anchored = False
    if side == "left" and text.startswith("#"):
        anchored, text = True, text[1:]
    elif side == "right" and text.endswith("#"):
        anchored, text = True, text[:-1]
    units = []
    i = 0
    while i < len(text):
        if text[i] == "[":
            j = text.index("]", i)
            units.append(frozenset(text[i + 1:j]))
            i = j + 1
        else:
            units.append(frozenset(text[i]))
            i += 1
    return units, anchored


class ReferenceG2P:
    """Greedy longest-match G2P over one generated language.

    Candidates are tried longest grapheme first, then higher priority,
    then file order; contexts are literal or class units with an optional
    '#' boundary anchor at the outer end.
    """

    def __init__(self, lang: Language):
        order = sorted(range(len(lang.rules)),
                       key=lambda k: (-len(lang.rules[k].grapheme),
                                      -lang.rules[k].priority, k))
        self._rules = []
        for k in order:
            r = lang.rules[k]
            left = _parse_context(r.left, "left") if r.left else None
            right = _parse_context(r.right, "right") if r.right else None
            out = tuple(MERGES.get(s, s) for s in r.output)
            self._rules.append((r.grapheme, left, right, out))
        self._memo = {}

    @staticmethod
    def _left_ok(ctx, word, pos):
        units, anchored = ctx
        j = pos - len(units)
        if j < 0 or any(word[j + k] not in u for k, u in enumerate(units)):
            return False
        return not anchored or j == 0

    @staticmethod
    def _right_ok(ctx, word, pos):
        units, anchored = ctx
        if pos + len(units) > len(word):
            return False
        if any(word[pos + k] not in u for k, u in enumerate(units)):
            return False
        return not anchored or pos + len(units) == len(word)

    def word(self, word):
        segs = self._memo.get(word)
        if segs is not None:
            return segs
        out = []
        i = 0
        while i < len(word):
            for g, left, right, o in self._rules:
                if (word.startswith(g, i)
                        and (left is None or self._left_ok(left, word, i))
                        and (right is None or self._right_ok(right, word, i + len(g)))):
                    out.extend(o)
                    i += len(g)
                    break
            else:
                raise ValueError(f"no rule for {word[i]!r} in {word!r}")
        self._memo[word] = segs = tuple(out)
        return segs

    def utterance(self, text):
        segs = []
        for w in prepare(text).split():
            segs.extend(self.word(w))
        return segs


def prepare(text):
    """The generator's texts are ASCII: lowercase and drop punctuation."""
    return "".join(c for c in text.lower() if c not in PUNCTUATION)


# -- corpora ---------------------------------------------------------------

def make_word(lang_onsets, lang_nuclei, rng, syllables):
    parts = []
    for _ in range(syllables):
        if rng.random() < 0.85:
            parts.append(rng.choice(lang_onsets))
        parts.append(rng.choice(lang_nuclei))
        if rng.random() < 0.25:
            parts.append(rng.choice(lang_onsets))
    return "".join(parts)


def make_vocabulary(lang, rng, size, min_syll=1, max_syll=3):
    onsets, nuclei = lang.onsets(), lang.nuclei()
    seen = set()
    words = []
    while len(words) < size:
        # syllable count cycles with the Zipf rank, so the few words that
        # make up most tokens have the same lengths whatever the seed
        syllables = min_syll + len(words) % (max_syll - min_syll + 1)
        w = make_word(onsets, nuclei, rng, syllables)
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def zipf_sampler(n, exponent, rng):
    cum = []
    total = 0.0
    for rank in range(1, n + 1):
        total += rank ** -exponent
        cum.append(total)
    return lambda: bisect.bisect_left(cum, rng.random() * total)


def decorate(words, rng):
    """Sentence case and a little punctuation, which Ruleset.prepare drops."""
    words = list(words)
    words[0] = words[0][0].upper() + words[0][1:]
    for k in range(len(words)):
        if rng.random() < 0.08:
            words[k] += rng.choice(PUNCTUATION)
    return " ".join(words)


def write_corpus(path, code, texts):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for n, text in enumerate(texts, 1):
            f.write(f"clips/{code}_{n:05d}.mp3\t{text}\n")


def write_registry(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("code,name,family,branch,hours\n")
        for row in rows:
            f.write(",".join(row) + "\n")


# -- workloads -------------------------------------------------------------

@dataclass
class PipelineInputs:
    corpus_dir: Path
    rules_dir: Path
    registry: Path
    policy: Path
    target: str
    resolution: int
    properties: dict


@dataclass
class EvalInputs:
    policy: Path
    parts: list            # (rules path, texts path) per ruleset
    hyp: Path              # hypotheses for all parts, in part order
    references: list       # expected G2P output lines, all parts in order
    hypotheses: list       # hypothesis segment lists, aligned
    properties: dict


def _languages(seed, tag, families):
    """families: [(family name, [codes])] -> {code: Language}."""
    langs = {}
    for fam, codes in families:
        template = family_template(random.Random(f"{seed}:{tag}:fam:{fam}"))
        for code in codes:
            rng = random.Random(f"{seed}:{tag}:lang:{code}")
            langs[code] = derive_language(code, fam, template, rng)
    return langs


def _pipeline_inputs(out, seed, tag, registry_rows, target, resolution,
                     utterances, vocab_size, words_per_utt, exponent):
    corpus_dir, rules_dir = out / "corpus", out / "rules"
    corpus_dir.mkdir(parents=True)
    rules_dir.mkdir()
    families = {}
    for code, _, fam, _, _ in registry_rows:
        families.setdefault(fam, []).append(code)
    langs = _languages(seed, tag, sorted(families.items()))
    n_words = 0
    distinct = 0
    for code, lang in langs.items():
        (rules_dir / f"{code}.rules").write_text(lang.rule_text(), encoding="utf-8")
        rng = random.Random(f"{seed}:{tag}:corpus:{code}")
        vocab = make_vocabulary(lang, rng, vocab_size)
        draw = zipf_sampler(len(vocab), exponent, rng)
        texts = []
        seen = set()
        for _ in range(utterances):
            ws = [vocab[draw()] for _ in range(rng.randint(words_per_utt - 2,
                                                           words_per_utt + 2))]
            n_words += len(ws)
            seen.update(ws)
            texts.append(decorate(ws, rng))
        distinct += len(seen)
        write_corpus(corpus_dir / f"{code}.tsv", code, texts)
    registry = out / "registry.csv"
    write_registry(registry, registry_rows)
    policy = out / "policy.txt"
    policy.write_text(POLICY_TEXT, encoding="utf-8")
    fam_sizes = sorted(len(c) for c in families.values())
    props = {
        "languages": len(langs), "families": len(families),
        "n_per_family": f"{fam_sizes[0]}-{fam_sizes[-1]}",
        "resolution": resolution, "utterances": utterances * len(langs),
        "words": n_words, "distinct_word_ratio": round(distinct / n_words, 4),
    }
    return PipelineInputs(corpus_dir, rules_dir, registry, policy, target,
                          resolution, props)


def cv18_zipf(out, seed):
    """The paper's setting: 22 CV18 languages, Zipfian corpora, R=512."""
    return _pipeline_inputs(out, seed, "cv18", CV18_REGISTRY, "kk", 512,
                            utterances=500, vocab_size=2000, words_per_utt=8,
                            exponent=1.1)


def kde_dense(out, seed):
    """64 languages in 4 families of 16, small corpora, R=2048."""
    rng = random.Random(f"{seed}:kde:registry")
    rows = []
    for f, fam in enumerate(("Alpha", "Beta", "Gamma", "Delta")):
        for k in range(16):
            code = f"{fam[0].lower()}{k:02d}"
            hours = f"{rng.lognormvariate(2.5, 1.2):.2f}"
            rows.append((code, f"{fam}-{k}", fam, "", hours))
    return _pipeline_inputs(out, seed, "kde", rows, "a00", 2048,
                            utterances=20, vocab_size=300, words_per_utt=8,
                            exponent=1.1)


def perturb(ref, inventory, rng, rate=0.2):
    """Hypothesis with about `rate` edits per reference segment."""
    hyp = []
    for seg in ref:
        r = rng.random()
        if r < rate / 2:
            hyp.append(rng.choice([s for s in inventory if s != seg]))
        elif r < rate * 3 / 4:
            continue
        else:
            hyp.append(seg)
            if r > 1 - rate / 4:
                hyp.append(rng.choice(inventory))
    return hyp


def eval_longtail(out, seed):
    """2k held-out transcripts over 4 rulesets, words almost never repeat."""
    out.mkdir(parents=True)
    langs = _languages(seed, "eval", [("East", ["e1", "e2"]),
                                      ("West", ["w1", "w2"])])
    policy = out / "policy.txt"
    policy.write_text(POLICY_TEXT, encoding="utf-8")
    parts, refs, hyps = [], [], []
    n_words = 0
    seen = set()
    for code, lang in sorted(langs.items()):
        rules = out / f"{code}.rules"
        rules.write_text(lang.rule_text(), encoding="utf-8")
        oracle = ReferenceG2P(lang)
        rng = random.Random(f"{seed}:eval:corpus:{code}")
        onsets, nuclei = lang.onsets(), lang.nuclei()
        inventory = sorted({MERGES.get(s, s) for r in lang.rules for s in r.output})
        texts = []
        for _ in range(500):
            ws = [make_word(onsets, nuclei, rng, rng.randint(2, 3))
                  for _ in range(rng.randint(7, 10))]
            n_words += len(ws)
            seen.update((code, w) for w in ws)
            text = decorate(ws, rng)
            ref = oracle.utterance(text)
            texts.append(text)
            refs.append(" ".join(ref))
            hyps.append(perturb(ref, inventory, rng))
        texts_path = out / f"{code}.txt"
        texts_path.write_text("\n".join(texts) + "\n", encoding="utf-8")
        parts.append((rules, texts_path))
    hyp = out / "hyp.txt"
    hyp.write_text("\n".join(" ".join(h) for h in hyps) + "\n", encoding="utf-8")
    props = {
        "languages": 4, "families": 2, "utterances": len(refs),
        "words": n_words, "distinct_word_ratio": round(len(seen) / n_words, 4),
        "segments_per_utt": round(sum(len(r.split()) for r in refs) / len(refs), 1),
    }
    return EvalInputs(policy, parts, hyp, refs, hyps, props)


WORKLOADS = {
    "cv18-zipf": cv18_zipf,
    "kde-dense": kde_dense,
    "eval-longtail": eval_longtail,
}
