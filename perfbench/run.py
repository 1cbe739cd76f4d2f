"""phonosim benchmark: seeded batch workloads driven through `phonosim.cli.main`.

    python3 perfbench/run.py --workload cv18-zipf --seed 1 --seconds 30 --trace 0

Each op runs the CLI in fresh child processes (see child.py), one step
per process and one op at a time (a closed loop with a single client), so
no state survives from one op to the next, as for a user running the
command. The workloads (gen.py) stress different layers:

  cv18-zipf      the paper's setting; G2P is nearly all of an op and words
                 repeat (Zipf), so a G2P cache or index shows here.
  kde-dense      64 languages at R=2048; KDE rasterization, contours and
                 SVG dominate, G2P is small.
  eval-longtail  g2p over 2k transcripts whose words almost never repeat,
                 then PER against seeded hypotheses; density never runs.

Every op's outputs are checked (checks.py); a failed check, a non-zero
exit or a timeout fails the op. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced ops
(spans.py) and reports per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The benchmark builds phonosim from the checkout's own `src/` and exits 2
without a result when it is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from checks import (ARTIFACTS, CheckError, check_per, check_pipeline,  # noqa: E402
                    edit_distance)

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
STEP_TIMEOUT_S = 60
RUN_DEADLINE_S = 150       # stop starting ops; the run must end within 180 s
NPROC = len(os.sched_getaffinity(0))

# sha256 of every op's output bytes on DEFAULT_SEED (artifacts for the
# pipeline workloads, G2P output plus the PER report for eval-longtail).
# A change that alters any output byte fails here: ROADMAP's byte-identity
# rule. Update only together with a CHANGES.md note on why the bytes moved.
PINNED_DIGESTS = {
    "cv18-zipf": "579ccce283765e8505aff8404904b6449fb0e95d5f8348b12a6695e6f0d20226",
    "kde-dense": "8c085ffca93501ace6a47f0e3abea9249d4bba3c9ef93bb8bc242cd904ce10c8",
    "eval-longtail": "14c4f02b616dec11f9b6865e7e2d7674d6ed0993c884f726af47590349e9bcc1",
}

END_TO_END = (
    ("op_s.p50", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
)
PER_LAYER = (
    ("cli.main.s", "s"), ("registry.load_registry.s", "s"),
    ("ipa.load_policy.s", "s"), ("ipa.tokenize_ipa.s", "s"),
    ("ipa.normalize.s", "s"), ("ipa.segments", "count"),
    ("g2p.load_ruleset.s", "s"), ("g2p.transliterate.s", "s"),
    ("g2p.transliterate.self_s", "s"), ("g2p.utt_per_s", "1/s"),
    ("g2p.words", "count"), ("g2p.distinct_word_ratio", "ratio"),
    ("g2p.match_at.calls", "count"),
    ("pipeline.read_corpus_tsv.s", "s"), ("pipeline.compute_family_contours.s", "s"),
    ("pipeline.untraced_s", "s"),
    ("stats.similarity_matrix.s", "s"), ("stats.cosine_pairs", "count"),
    ("stats.vocab_size", "count"), ("stats.write_csv.s", "s"),
    ("pca.pca_project.s", "s"),
    ("density.rasterize.s", "s"), ("density.kernel_evals", "count"),
    ("density.cells_per_s", "1/s"), ("density.extract_contours.s", "s"),
    ("density.contour_vertices", "count"), ("density.write_contours_json.s", "s"),
    ("render.render_svg.s", "s"),
    ("selection.emit_manifest.s", "s"), ("selection.write_manifest_tsv.s", "s"),
    ("selection.manifest_rows", "count"),
    ("per.corpus_per.s", "s"), ("per.dp_cells", "count"), ("per.pairs_per_s", "1/s"),
    ("trace.overhead_s", "s"),
)


class Step(NamedTuple):
    """One CLI invocation: argv plus where its stdin and stdout go."""
    argv: list
    stdin: Path | None = None
    stdout: Path | None = None
    append: bool = False


class PipelineWorkload:
    def __init__(self, inputs: gen.PipelineInputs, work: Path):
        self.inputs, self.out = inputs, work / "out"
        self.k = 3
        self.properties = inputs.properties
        self._checked = set()

    def steps(self):
        i = self.inputs
        return [Step(["pipeline", "--corpus-dir", str(i.corpus_dir),
                      "--rules-dir", str(i.rules_dir), "--registry", str(i.registry),
                      "--policy", str(i.policy), "--target", i.target,
                      "--strategy", "corpus_sim", "--k", str(self.k),
                      "--resolution", str(i.resolution), "--out", str(self.out)])]

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self):
        files = {}
        for name in ARTIFACTS:
            path = self.out / name
            if path.is_file():
                files[name] = path.read_bytes()
        digest = hashlib.sha256()
        for name in sorted(files):
            digest.update(name.encode() + b"\0" + files[name] + b"\0")
        digest = digest.hexdigest()
        if digest not in self._checked:
            check_pipeline(files, self.inputs.target, self.k)
            self._checked.add(digest)
        return digest


class EvalWorkload:
    def __init__(self, inputs: gen.EvalInputs, work: Path):
        self.inputs = inputs
        self.properties = inputs.properties
        self.refs = work / "ref.txt"
        self.per_out = work / "per.txt"
        self.expected_refs = ("\n".join(inputs.references) + "\n").encode("utf-8")
        self.expected_errors = sum(
            edit_distance(r.split(), h) for r, h in zip(inputs.references, inputs.hypotheses))
        self.ref_len = sum(len(r.split()) for r in inputs.references)

    def steps(self):
        i = self.inputs
        steps = [Step(["g2p", "--rules", str(rules), "--policy", str(i.policy)],
                      stdin=texts, stdout=self.refs, append=True)
                 for rules, texts in i.parts]
        steps.append(Step(["per", "--ref", str(self.refs), "--hyp", str(i.hyp)],
                          stdout=self.per_out))
        return steps

    def reset(self):
        for path in (self.refs, self.per_out):
            path.unlink(missing_ok=True)

    def check(self):
        refs = self.refs.read_bytes()
        if refs != self.expected_refs:
            raise CheckError("g2p output differs from the reference G2P")
        report = self.per_out.read_bytes()
        check_per(report, self.expected_errors, self.ref_len)
        return hashlib.sha256(refs + b"\0" + report).hexdigest()


def make_workload(name, seed, work):
    inputs = gen.WORKLOADS[name](work / "inputs", seed)
    if isinstance(inputs, gen.EvalInputs):
        return EvalWorkload(inputs, work)
    return PipelineWorkload(inputs, work)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PERFBENCH_SRC"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(NPROC)
    return env


def run_step(step, mode, op_id, work, env):
    """Run one step in a fresh interpreter; returns the child's result dict."""
    result_path = work / "step.json"
    err_path = work / "step.err"
    result_path.unlink(missing_ok=True)
    stdin = open(step.stdin, "rb") if step.stdin else subprocess.DEVNULL
    stdout = (open(step.stdout, "ab" if step.append else "wb") if step.stdout
              else subprocess.DEVNULL)
    try:
        with open(err_path, "wb") as stderr:
            cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
                   repr(time.monotonic()), mode, str(op_id), "--", *step.argv]
            proc = subprocess.Popen(cmd, stdin=stdin, stdout=stdout, stderr=stderr,
                                    cwd=work, env=env)
            try:
                proc.wait(timeout=STEP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise CheckError(f"{step.argv[0]}: timed out after {STEP_TIMEOUT_S} s")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    finally:
        for f in (stdin, stdout):
            if f is not subprocess.DEVNULL:
                f.close()
    if proc.returncode != 0 or not result_path.is_file():
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
        raise CheckError(f"{step.argv[0]}: child exited {proc.returncode}: {tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["rc"] != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
        raise CheckError(f"{step.argv[0]}: phonosim exited {result['rc']}: {tail}")
    return result


def run_op(workload, mode, op_id, work, env):
    """One op: every step in order, then the output checks."""
    workload.reset()
    record = {"mode": mode, "op_s": 0.0, "setup_s": [], "peak_rss_kb": 0,
              "layers": {}, "counts": {}, "error": None, "ran": False}
    t0 = time.monotonic()
    try:
        for step in workload.steps():
            res = run_step(step, mode, op_id, work, env)
            record["op_s"] += res.get("op_s", 0.0)
            record["setup_s"].append(res["setup_s"])
            record["peak_rss_kb"] = max(record["peak_rss_kb"], res["peak_rss_kb"])
            for name, (incl, own, calls) in res.get("layers", {}).items():
                acc = record["layers"].setdefault(name, [0.0, 0.0, 0])
                acc[0] += incl
                acc[1] += own
                acc[2] += calls
            for name, n in res.get("counts", {}).items():
                record["counts"][name] = record["counts"].get(name, 0) + n
        record["ran"] = True
        record["digest"] = workload.check()
    except Exception as e:  # any failure here fails the op, and the run goes on
        record["error"] = f"{type(e).__name__}: {e}"
    record["wall_s"] = time.monotonic() - t0
    return record


def layer_metrics(op, counts):
    """Per-layer values of one traced op; counts come from the count pass."""
    layers, c = op["layers"], {**op["counts"], **counts}

    def t(name):
        return layers.get(name, [0.0, 0.0, 0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.main.s": t("cli.main"),
        "registry.load_registry.s": t("registry.load_registry"),
        "ipa.load_policy.s": t("ipa.load_policy"),
        "ipa.tokenize_ipa.s": t("ipa.tokenize_ipa"),
        "ipa.normalize.s": t("ipa.normalize"),
        "ipa.segments": c.get("ipa.segments", 0),
        "g2p.load_ruleset.s": t("g2p.load_ruleset"),
        "g2p.transliterate.s": t("g2p.transliterate"),
        "g2p.transliterate.self_s": layers.get("g2p.transliterate", [0, 0.0])[1],
        "g2p.utt_per_s": ratio(c.get("g2p.utterances", 0), t("g2p.transliterate")),
        "g2p.words": c.get("g2p.words", 0),
        "g2p.distinct_word_ratio": ratio(c.get("g2p.distinct_words", 0),
                                         c.get("g2p.words", 0)),
        "g2p.match_at.calls": c.get("g2p.match_at.calls", 0),
        "pipeline.read_corpus_tsv.s": t("pipeline.read_corpus_tsv"),
        "pipeline.compute_family_contours.s": t("pipeline.compute_family_contours"),
        "pipeline.untraced_s": layers.get("pipeline.run_pipeline", [0, 0.0])[1],
        "stats.similarity_matrix.s": t("stats.similarity_matrix"),
        "stats.cosine_pairs": c.get("stats.cosine_pairs", 0),
        "stats.vocab_size": c.get("stats.vocab_size", 0),
        "stats.write_csv.s": t("stats.write_matrix_csv") + t("stats.write_distributions_csv"),
        "pca.pca_project.s": t("pca.pca_project"),
        "density.rasterize.s": t("density.rasterize"),
        "density.kernel_evals": c.get("density.kernel_evals", 0),
        "density.cells_per_s": ratio(c.get("density.cells", 0), t("density.rasterize")),
        "density.extract_contours.s": t("density.extract_contours"),
        "density.contour_vertices": c.get("density.contour_vertices", 0),
        "density.write_contours_json.s": t("density.write_contours_json"),
        "render.render_svg.s": t("render.render_svg"),
        "selection.emit_manifest.s": t("selection.emit_manifest"),
        "selection.write_manifest_tsv.s": t("selection.write_manifest_tsv"),
        "selection.manifest_rows": c.get("selection.manifest_rows", 0),
        "per.corpus_per.s": t("per.corpus_per"),
        "per.dp_cells": c.get("per.dp_cells", 0),
        "per.pairs_per_s": ratio(c.get("per.pairs", 0), t("per.corpus_per")),
    }


def tail_percentile(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


def run_benchmark(workload_name, seed, seconds, trace):
    """Generate the inputs, run ops for `seconds`, return the report dict."""
    t_begin = time.monotonic()
    work = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    try:
        workload = make_workload(workload_name, seed, work)
        try:    # first import writes the bytecode caches; not an op
            run_step(Step(["--version"]), "plain", 0, work, env)
        except CheckError:
            pass    # every op will fail the same way and say why
        ops = []
        counts = {}
        if trace:
            count_op = run_op(workload, "count", 0, work, env)
            ops.append(count_op)
            counts = count_op["counts"]
        start = time.monotonic()
        timed = []
        while True:
            mode = "trace" if trace and len(timed) % 2 else "plain"
            op = run_op(workload, mode, len(ops), work, env)
            ops.append(op)
            timed.append(op)
            now = time.monotonic()
            # start another op only if most of it would fall inside the window
            typical = statistics.median(o["wall_s"] for o in timed)
            enough = (now - start + typical / 2 >= seconds
                      and (not trace or len(timed) >= 2))
            if enough or now - t_begin >= RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pinned = PINNED_DIGESTS[workload_name] if seed == DEFAULT_SEED else None
    first = next((op["digest"] for op in ops if not op["error"]), None)
    for op in ops:
        if op["error"]:
            continue
        if pinned and op["digest"] != pinned:
            op["error"] = f"output digest {op['digest']} differs from the pinned {pinned}"
        elif op["digest"] != first:
            op["error"] = "output bytes differ from the run's first op"
    errors = [op["error"] for op in ops if op["error"]]
    failed = len(errors)

    # ops that ran to the end are timed even when their outputs failed a
    # check; the failures show in ok_ratio and in `failed`
    ran = [op for op in timed if op["ran"]]
    plain = [op for op in ran if op["mode"] == "plain"]
    report = {
        "workload": workload_name, "seed": seed, "properties": workload.properties,
        "attempted": len(ops), "failed": failed, "errors": errors,
        "ops": len(timed), "op_s": [op["op_s"] for op in plain],
        "digest": first,
    }
    if trace:
        traced = [op for op in ran if op["mode"] == "trace"]
        per_op = [layer_metrics(op, counts) for op in traced]
        metrics = {name: statistics.median(m[name] for m in per_op)
                   for name, _ in PER_LAYER if name != "trace.overhead_s"} if per_op else {}
        if traced and plain:
            metrics["trace.overhead_s"] = (statistics.median(op["op_s"] for op in traced)
                                           - statistics.median(op["op_s"] for op in plain))
        report["traced_ops"] = traced
        report["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in PER_LAYER if name in metrics}
    elif plain:
        report["metrics"] = {
            "op_s.p50": {"value": statistics.median(report["op_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(s for op in plain for s in op["setup_s"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": max(op["peak_rss_kb"] for op in plain) / 1024,
                            "unit": "MB"},
            "ok_ratio": {"value": 1 - sum(1 for op in timed if op["error"]) / len(timed),
                         "unit": "ratio"},
        }
        report["tail"] = tail_percentile(report["op_s"])
    else:
        report["metrics"] = {}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phonosim" / "__init__.py").is_file():
        print(f"perfbench: no phonosim sources under {SRC}", file=sys.stderr)
        return 2

    report = run_benchmark(args.workload, args.seed, args.seconds, args.trace == 1)
    for error in report["errors"][:5]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    wanted = PER_LAYER if args.trace else END_TO_END
    if set(report["metrics"]) != {name for name, _ in wanted}:
        print("perfbench: no successful op to measure", file=sys.stderr)
        return 1

    props = " ".join(f"{k}={v}" for k, v in report["properties"].items())
    print(f"workload {args.workload} seed {args.seed}: {props}")
    print(f"ops {report['ops']} (+{report['attempted'] - report['ops']} count pass), "
          f"failed {report['failed']} of {report['attempted']}")
    if not args.trace:
        tail = report["tail"]
        print("op_s tail: " + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else
                               f"none (fewer than 10 samples beyond p50 in {report['ops']} ops)"))
    for name, m in report["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
