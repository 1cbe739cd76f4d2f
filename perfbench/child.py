"""One benchmark op step: a fresh interpreter that runs `phonosim.cli.main` once.

    python3 child.py RESULT SPAWN_T MODE OP_ID -- CLI_ARGS...

SPAWN_T is the parent's time.monotonic() just before the spawn (the clock
is system-wide on Linux), so set-up time covers interpreter start and
`import phonosim`. MODE is `plain`, `trace` (layer spans, see spans.py) or
`count` (an untimed pass that counts Ruleset.match_at calls and words, so
a per-character wrapper never sits inside a timed op). The CLI's own
stdin/stdout are whatever the parent connected; the measurements go to
RESULT as JSON.
"""

import json
import os
import sys
import time


def _peak_rss_kb():
    # VmHWM belongs to this process image; ru_maxrss would also carry the
    # parent's peak across the fork
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _count_pass(cli):
    """Run the op with Ruleset.match_at counted and every G2P input seen."""
    from phonosim import g2p, pipeline

    counts = {"g2p.match_at.calls": 0, "g2p.words": 0}
    seen = set()
    match_at = getattr(g2p.Ruleset, "match_at", None)

    def counting_match_at(self, word, i):
        counts["g2p.match_at.calls"] += 1
        return match_at(self, word, i)

    def recording(fn):
        def transliterate(text, rs, *args, **kwargs):
            words = rs.prepare(text).split()
            counts["g2p.words"] += len(words)
            seen.update((rs.language_code, w) for w in words)
            return fn(text, rs, *args, **kwargs)
        return transliterate

    if match_at is not None:
        g2p.Ruleset.match_at = counting_match_at
    for module in (cli, pipeline):
        if hasattr(module, "transliterate"):
            module.transliterate = recording(module.transliterate)
    rc = cli.main(sys.argv[6:])
    counts["g2p.distinct_words"] = len(seen)
    return rc, counts


def main():
    result_path, spawn_t, mode, op_id = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py RESULT SPAWN_T MODE OP_ID -- ARGS...")
    import phonosim
    import phonosim.cli as cli
    setup_s = time.monotonic() - float(spawn_t)

    src = os.environ["PERFBENCH_SRC"]
    if not os.path.realpath(phonosim.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported phonosim from {phonosim.__file__}, not {src}")

    result = {"setup_s": setup_s}
    if mode == "count":
        rc, result["counts"] = _count_pass(cli)
    elif mode == "trace":
        from spans import ROOT, Tracer, summarize
        tracer = Tracer(op_id)
        tracer.install()
        main_fn = tracer.wrap(ROOT, cli.main)
        t0 = time.perf_counter()
        rc = main_fn(sys.argv[6:])
        result["op_s"] = time.perf_counter() - t0
        tracer.uninstall()
        result["layers"] = summarize(tracer.spans)
        result["counts"] = tracer.counts
    else:
        t0 = time.perf_counter()
        rc = cli.main(sys.argv[6:])
        result["op_s"] = time.perf_counter() - t0
    sys.stdout.flush()
    result["rc"] = rc
    result["peak_rss_kb"] = _peak_rss_kb()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
