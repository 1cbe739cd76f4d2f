"""Output checks for benchmark ops, independent of phonosim's own code.

Each check raises CheckError with a reason. They re-derive what they can
from the artifacts themselves: the similarity matrix from the exported
distributions, the top-k selection from the similarity matrix, and PER
totals from a bit-parallel edit distance (Myers/Hyyrö), which shares no
logic with phonosim's dynamic programme.
"""

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

ARTIFACTS = ("distributions.csv", "similarity.csv", "pca.csv", "contours.json",
             "contours.svg", "family_report.txt", "selection.tsv", "manifest.tsv")
SVG_NUMERIC = ("x", "y", "cx", "cy", "r", "width", "height")


class CheckError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckError(message)


def finite(text, where):
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: not a number: {text!r}") from None
    require(math.isfinite(value), f"{where}: non-finite value {text!r}")
    return value


def _csv(data, name):
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except csv.Error as e:
        raise CheckError(f"{name}: not CSV: {e}") from None
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    require(buf.getvalue().encode("utf-8") == data, f"{name}: CSV does not round-trip")
    return rows


def _labelled_matrix(rows, name):
    values = []
    for row in rows:
        values.append([finite(v, f"{name} row {row[0]}") for v in row[1:]])
    return [row[0] for row in rows], np.array(values)


def edit_distance(a, b):
    """Levenshtein distance between two symbol sequences (bit-parallel)."""
    m = len(a)
    if m == 0:
        return len(b)
    peq = {}
    for i, sym in enumerate(a):
        peq[sym] = peq.get(sym, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for sym in b:
        eq = peq.get(sym, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    return score


def check_pipeline(files, target, k):
    """All 8 artifacts parse, hold finite numbers and agree with each other."""
    for name in ARTIFACTS:
        require(name in files, f"missing artifact {name}")

    dist_rows = _csv(files["distributions.csv"], "distributions.csv")
    require(dist_rows[0][0] == "code", "distributions.csv: bad header")
    codes, dists = _labelled_matrix(dist_rows[1:], "distributions.csv")
    require(dists.shape == (len(codes), len(dist_rows[0]) - 1),
            "distributions.csv: ragged rows")
    require((dists >= 0).all(), "distributions.csv: negative probability")
    require(np.allclose(dists.sum(axis=1), 1.0, atol=1e-9),
            "distributions.csv: rows do not sum to 1")

    sim_rows = _csv(files["similarity.csv"], "similarity.csv")
    require(sim_rows[0][1:] == codes, "similarity.csv: codes differ from distributions")
    sim_codes, sim = _labelled_matrix(sim_rows[1:], "similarity.csv")
    require(sim_codes == codes, "similarity.csv: row labels differ")
    require((np.diag(sim) == 1.0).all(), "similarity.csv: diagonal is not 1")
    require((sim == sim.T).all(), "similarity.csv: not symmetric")
    norms = np.linalg.norm(dists, axis=1)
    expected = np.clip((dists @ dists.T) / np.outer(norms, norms), 0.0, 1.0)
    np.fill_diagonal(expected, 1.0)
    worst = float(np.abs(expected - sim).max())
    require(worst <= 1e-9, f"similarity.csv: off the numpy cosine by {worst:.3g}")

    pca_rows = _csv(files["pca.csv"], "pca.csv")
    require(pca_rows[0] == ["id", "x", "y", "ev1", "ev2"], "pca.csv: bad header")
    pca_codes, _ = _labelled_matrix(pca_rows[1:], "pca.csv")
    require(pca_codes == codes, "pca.csv: codes differ")

    def no_constants(token):
        raise CheckError(f"contours.json: non-finite literal {token}")

    contours = json.loads(files["contours.json"], parse_constant=no_constants)
    require(isinstance(contours, list), "contours.json: not a list")
    for cs in contours:
        finite(cs["level"], "contours.json level")
        for polyline in cs["polylines"]:
            for x, y in polyline:
                finite(x, "contours.json vertex")
                finite(y, "contours.json vertex")

    try:
        svg = ET.fromstring(files["contours.svg"])
    except ET.ParseError as e:
        raise CheckError(f"contours.svg: not XML: {e}") from None
    for el in svg.iter():
        for attr in SVG_NUMERIC:
            if attr in el.attrib:
                finite(el.attrib[attr], f"contours.svg {attr}")
        if "points" in el.attrib:
            for pair in el.attrib["points"].split():
                for v in pair.split(","):
                    finite(v, "contours.svg points")

    report = files["family_report.txt"].decode("utf-8").splitlines()
    require(report[0] == "family\tmean_similarity\tn_languages",
            "family_report.txt: bad header")
    for line in report[1:]:
        fields = line.split("\t")
        if fields[0] != "highest":
            require(len(fields) == 3, "family_report.txt: bad row")
            finite(fields[1], "family_report.txt mean")

    selection = [line.split("\t") for line in
                 files["selection.tsv"].decode("utf-8").splitlines()]
    require(selection[0] == ["target", target], "selection.tsv: wrong target")
    chosen = [(row[1], finite(row[2], "selection.tsv score"))
              for row in selection if row[0] == "source"]
    row = sim[codes.index(target)]
    others = sorted((-row[j], c) for j, c in enumerate(codes) if c != target)
    require(len(chosen) == min(k, len(others)), "selection.tsv: wrong source count")
    for (code, score), (neg, _) in zip(chosen, others):
        require(abs(score + neg) <= 1e-9 and
                abs(score - row[codes.index(code)]) <= 1e-9,
                f"selection.tsv: {code} is not among the top-{k} sources")

    manifest = files["manifest.tsv"].decode("utf-8").splitlines()
    header = dict(line[1:].split("\t", 1) for line in manifest if line.startswith("#"))
    require(header.get("target") == target, "manifest.tsv: wrong target")
    finite(header["total_hours"], "manifest.tsv total_hours")
    body = [line for line in manifest if not line.startswith("#")]
    require(body[0] == "lang\taudio_path\tipa", "manifest.tsv: bad column header")
    langs = {target} | {c for c, _ in chosen}
    inventory = set(header["inventory"].split())
    for line in body[1:]:
        fields = line.split("\t")
        require(len(fields) == 3 and fields[0] in langs, "manifest.tsv: bad row")
        require(set(fields[2].split()) <= inventory,
                "manifest.tsv: phoneme outside the inventory")
    return len(body) - 1


def parse_per(stdout):
    values = {}
    for line in stdout.decode("utf-8").splitlines():
        key, _, value = line.partition("\t")
        values[key] = value
    try:
        return ({k: int(values[k]) for k in
                 ("substitutions", "insertions", "deletions", "reference_length")},
                finite(values["per_percent"], "per_percent"))
    except (KeyError, ValueError):
        raise CheckError(f"per: unexpected output {stdout[:200]!r}") from None


def check_per(stdout, expected_errors, expected_ref_len):
    counts, percent = parse_per(stdout)
    total = counts["substitutions"] + counts["insertions"] + counts["deletions"]
    require(total == expected_errors,
            f"per: S+I+D = {total}, independent edit distance gives {expected_errors}")
    require(counts["reference_length"] == expected_ref_len, "per: wrong reference length")
    require(abs(percent - 100.0 * total / expected_ref_len) <= 1e-9,
            "per: per_percent does not match the counts")
