"""Layer spans for the traced benchmark run, recorded from outside phonosim.

Tracing replaces the public names that each caller module imported
(`phonosim.cli.*`, `phonosim.pipeline.*`, and `tokenize_ipa`/`normalize`
inside `phonosim.g2p`) with wrappers that record a span per call: name,
start, end, parent span and op id. Spans stay in memory; summarize()
folds them into per-name inclusive and self times once the op is over.
Names a later version no longer imports are skipped, so their layer
simply reads zero.

A span name is `<layer>.<function>`; the layer is what the per-layer
metrics are grouped by.
"""

import importlib
from time import perf_counter

# (module that calls the function, attribute, span name)
TRACED = (
    ("phonosim.cli", "load_registry", "registry.load_registry"),
    ("phonosim.cli", "load_policy", "ipa.load_policy"),
    ("phonosim.cli", "load_ruleset", "g2p.load_ruleset"),
    ("phonosim.cli", "transliterate", "g2p.transliterate"),
    ("phonosim.cli", "corpus_per", "per.corpus_per"),
    ("phonosim.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("phonosim.pipeline", "load_registry", "registry.load_registry"),
    ("phonosim.pipeline", "load_policy", "ipa.load_policy"),
    ("phonosim.pipeline", "load_ruleset", "g2p.load_ruleset"),
    ("phonosim.pipeline", "transliterate", "g2p.transliterate"),
    ("phonosim.pipeline", "read_corpus_tsv", "pipeline.read_corpus_tsv"),
    ("phonosim.pipeline", "build_vocabulary", "stats.build_vocabulary"),
    ("phonosim.pipeline", "to_distribution", "stats.to_distribution"),
    ("phonosim.pipeline", "write_distributions_csv", "stats.write_distributions_csv"),
    ("phonosim.pipeline", "similarity_matrix", "stats.similarity_matrix"),
    ("phonosim.pipeline", "write_matrix_csv", "stats.write_matrix_csv"),
    ("phonosim.pipeline", "family_mean_similarities", "stats.family_mean_similarities"),
    ("phonosim.pipeline", "pca_project", "pca.pca_project"),
    ("phonosim.pipeline", "write_coords_csv", "pca.write_coords_csv"),
    ("phonosim.pipeline", "compute_family_contours", "pipeline.compute_family_contours"),
    ("phonosim.pipeline", "weights_from_hours", "density.weights_from_hours"),
    ("phonosim.pipeline", "silverman_bandwidths", "density.silverman_bandwidths"),
    ("phonosim.pipeline", "rasterize", "density.rasterize"),
    ("phonosim.pipeline", "extract_contours", "density.extract_contours"),
    ("phonosim.pipeline", "write_contours_json", "density.write_contours_json"),
    ("phonosim.pipeline", "render_svg", "render.render_svg"),
    ("phonosim.pipeline", "select_strategy", "selection.select_strategy"),
    ("phonosim.pipeline", "write_selection_report", "selection.write_selection_report"),
    ("phonosim.pipeline", "emit_manifest", "selection.emit_manifest"),
    ("phonosim.pipeline", "write_manifest_tsv", "selection.write_manifest_tsv"),
    ("phonosim.g2p", "tokenize_ipa", "ipa.tokenize_ipa"),
    ("phonosim.g2p", "normalize", "ipa.normalize"),
)
ROOT = "cli.main"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rasterize(args, kwargs, grid):
    cells = int(grid.values.size)
    return {"density.cells": cells,
            "density.kernel_evals": cells * len(_arg(args, kwargs, 0, "coords"))}


def _count_per(args, kwargs, report):
    pairs = list(_arg(args, kwargs, 0, "pairs"))
    return {"per.pairs": len(pairs),
            "per.dp_cells": sum(len(r) * len(h) for r, h in pairs)}


# span name -> counts taken from its arguments and result
COUNTERS = {
    "g2p.transliterate": lambda a, k, r: {"g2p.utterances": 1},
    "ipa.normalize": lambda a, k, r: {"ipa.segments": len(r)},
    "stats.build_vocabulary": lambda a, k, r: {"stats.vocab_size": len(r)},
    "stats.similarity_matrix": lambda a, k, r: {
        "stats.cosine_pairs": len(r.codes) * (len(r.codes) - 1) // 2},
    "density.rasterize": _count_rasterize,
    "density.extract_contours": lambda a, k, r: {
        "density.contour_vertices": sum(len(p) for p in r.polylines)},
    "selection.emit_manifest": lambda a, k, r: {
        "selection.manifest_rows": len(r.utterances)},
    "per.corpus_per": _count_per,
}


class Tracer:
    """In-memory span recorder for one op in one process."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []        # [name, start, end, parent index, op id]
        self.counts = {}
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op_id]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return traced

    def install(self):
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                self._patched.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def summarize(spans):
    """{name: [inclusive s, self s, calls]} from a list of spans.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the roots'
    durations.
    """
    out = {}
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
    for s, own in zip(spans, self_time):
        entry = out.setdefault(s[0], [0.0, 0.0, 0])
        entry[0] += s[2] - s[1]
        entry[1] += own
        entry[2] += 1
    return out
