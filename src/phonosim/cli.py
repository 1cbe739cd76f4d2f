"""phonosim command line interface.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
error. All configuration is explicit; no environment variables are read.
"""

import argparse
import sys
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

from . import __version__
from .density import check_level, check_resolution, write_contours_json
from .errors import DataError, ParseError, PhonosimError
from .formats import fmt_float, stdin_lines, utf8_errors
from .g2p import MODES, load_ruleset, transliterate_lines
from .ipa import default_policy, load_policy, normalize, tokenize_ipa
from .pca import pca_project, read_coords_csv, write_coords_csv
from .per import corpus_per
from .pipeline import (PipelineConfig, compute_family_contours,
                       corpus_languages, count_corpora, load_config,
                       run_pipeline)
from .registry import DEFAULT_LOW_RESOURCE_THRESHOLD_HOURS, load_registry
from .render import render_svg
from .selection import (STRATEGIES, select_strategy, selection_report,
                        write_selection_report)
from .stats import (phoneme_distributions, read_matrix_csv, similarity_matrix,
                    write_distributions_csv, write_matrix_csv)
from .typology import IMPUTE_METHODS, impute, load_feature_matrix


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for data
    # errors here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _policy_from(args):
    return load_policy(args.policy) if args.policy else default_policy()


def _cmd_registry_validate(args):
    reg = load_registry(args.path)
    low = reg.low_resource_codes(args.threshold)
    print(f"languages\t{len(reg)}")
    print("low_resource\t" + " ".join(low))
    families = Counter(reg.families().values())
    print("families\t" + " ".join(f"{fam}:{n}" for fam, n in sorted(families.items())))
    return 0


def _print_lines(sequences):
    """Print the segments of each stdin line, space-separated; an error
    while reading or converting a line names that line."""
    done = 0
    try:
        for done, segments in enumerate(sequences, 1):
            print(" ".join(segments))
    except PhonosimError as e:
        raise ParseError(str(e), "<stdin>", done + 1) from e


def _cmd_ipa_tokenize(args):
    policy = _policy_from(args)
    sequences = map(tokenize_ipa, stdin_lines())
    _print_lines(sequences if args.raw
                 else (normalize(segments, policy) for segments in sequences))
    return 0


def _cmd_g2p(args):
    _print_lines(transliterate_lines(stdin_lines(), load_ruleset(args.rules),
                                     _policy_from(args), args.mode))
    return 0


def _cmd_sim_matrix(args):
    if args.distributions and Path(args.distributions).resolve() == Path(args.out).resolve():
        raise DataError(f"--out and --distributions both name {args.out}")
    policy = _policy_from(args)
    codes = corpus_languages(args.corpus_dir)
    counts = count_corpora(codes, args.corpus_dir, args.rules_dir, policy,
                           mode=args.mode)
    dists = phoneme_distributions(counts)
    matrix = similarity_matrix(dists)
    write_matrix_csv(matrix, args.out)
    if args.distributions:
        write_distributions_csv(dists, args.distributions)
    print(f"wrote {len(matrix.codes)}x{len(matrix.codes)} matrix to {args.out}")
    return 0


def _cmd_pca(args):
    matrix = read_matrix_csv(getattr(args, "in"))
    proj = pca_project(matrix.values, matrix.codes)
    write_coords_csv(proj, args.out)
    ev1, ev2 = proj.explained_variance[:2]
    print(f"explained variance: {fmt_float(ev1)} {fmt_float(ev2)}")
    return 0


def _cmd_contours(args):
    out = Path(args.out)
    if out.suffix.lower() not in (".json", ".svg"):
        raise DataError("output must end in .json or .svg")
    check_level(args.level)
    check_resolution(args.resolution)
    codes, coords = read_coords_csv(args.coords)
    reg = load_registry(args.registry)
    contour_sets = compute_family_contours(
        codes, coords, reg, level=args.level, relative=args.relative,
        resolution=args.resolution)
    if out.suffix.lower() == ".svg":
        render_svg(codes, coords, reg, contour_sets, out)
    else:
        write_contours_json(contour_sets, out)
    print(f"wrote {len(contour_sets)} family contour set(s) to {out}")
    return 0


def _cmd_typology(args):
    fm = load_feature_matrix(args.features)
    values = impute(fm, method=args.impute)
    proj = pca_project(values, fm.language_ids)
    families = load_registry(args.registry).families() if args.registry else None
    write_coords_csv(proj, args.out, families=families)
    ev1, ev2 = proj.explained_variance[:2]
    print(f"projected {len(fm.language_ids)} languages over "
          f"{len(fm.feature_ids)} features; explained variance "
          f"{fmt_float(ev1)} {fmt_float(ev2)}")
    return 0


def _cmd_select(args):
    reg = load_registry(args.registry)
    matrix = read_matrix_csv(args.matrix) if args.matrix else None
    sel = select_strategy(args.target, args.strategy, reg, matrix=matrix, k=args.k)
    if args.out:
        write_selection_report(sel, args.out)
    else:
        sys.stdout.write(selection_report(sel))
    return 0


def _read_sequences(path):
    """Each line's segments, split on whitespace; lines end at LF only. Every
    distinct segment is one interned string, whichever file it comes from."""
    with utf8_errors(path), open(path, encoding="utf-8", newline="\n") as f:
        return [list(map(sys.intern, line.split())) for line in f]


def _cmd_per(args):
    refs = _read_sequences(args.ref)
    hyps = _read_sequences(args.hyp)
    if len(refs) != len(hyps):
        raise DataError(
            f"reference has {len(refs)} lines but hypothesis has {len(hyps)}")
    report = corpus_per(list(zip(refs, hyps)), macro=args.macro)
    print(f"substitutions\t{report.substitutions}")
    print(f"insertions\t{report.insertions}")
    print(f"deletions\t{report.deletions}")
    print(f"reference_length\t{report.reference_length}")
    print(f"per_percent\t{fmt_float(report.per_percent)}")
    return 0


def _absolute(value):
    # flag paths resolve against the cwd even when a config file
    # (whose own paths resolve against its directory) is in play
    return Path(value).absolute()


def _cmd_pipeline(args):
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                 if getattr(args, f.name) is not None}
    artifacts = run_pipeline(load_config(args.config, overrides))
    for name in sorted(artifacts):
        print(f"wrote {artifacts[name]}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="phonosim",
                     description="Language similarity toolkit: G2P, phoneme "
                                 "distributions, PCA/KDE maps, source selection, PER.")
    parser.add_argument("--version", action="version", version=f"phonosim {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("registry", help="registry file operations")
    rsub = p.add_subparsers(dest="subcommand", parser_class=_Parser)
    v = rsub.add_parser("validate", help="load a registry and print a summary")
    v.add_argument("path")
    v.add_argument("--threshold", type=float,
                   default=DEFAULT_LOW_RESOURCE_THRESHOLD_HOURS,
                   help="low-resource threshold in hours (default %(default)g)")
    v.set_defaults(func=_cmd_registry_validate)

    p = sub.add_parser("ipa", help="IPA utilities")
    isub = p.add_subparsers(dest="subcommand", parser_class=_Parser)
    t = isub.add_parser("tokenize", help="tokenize stdin lines into segments")
    t.add_argument("--policy", help="normalization policy file")
    t.add_argument("--raw", action="store_true", help="skip normalization")
    t.set_defaults(func=_cmd_ipa_tokenize)

    p = sub.add_parser("g2p", help="convert stdin text lines to phonemes")
    p.add_argument("--rules", required=True, help="rule file")
    p.add_argument("--policy", help="normalization policy file")
    p.add_argument("--mode", choices=MODES, default="error")
    p.set_defaults(func=_cmd_g2p)

    p = sub.add_parser("sim", help="similarity computations")
    ssub = p.add_subparsers(dest="subcommand", parser_class=_Parser)
    m = ssub.add_parser("matrix", help="build the cosine similarity matrix")
    m.add_argument("--corpus-dir", required=True)
    m.add_argument("--rules-dir", required=True)
    m.add_argument("--policy")
    m.add_argument("--out", required=True)
    m.add_argument("--distributions", help="also export distribution vectors")
    m.add_argument("--mode", choices=MODES, default="error")
    m.set_defaults(func=_cmd_sim_matrix)

    p = sub.add_parser("pca", help="project matrix rows to 2D")
    p.add_argument("--in", required=True, help="similarity matrix CSV")
    p.add_argument("--out", required=True, help="coordinates CSV")
    p.set_defaults(func=_cmd_pca)

    p = sub.add_parser("contours", help="family KDE contours from coordinates")
    p.add_argument("--coords", required=True, help="coordinates CSV")
    p.add_argument("--registry", required=True)
    p.add_argument("--level", type=float, default=PipelineConfig.level)
    p.add_argument("--relative", action="store_true",
                   help="treat level as a fraction of each family's peak")
    p.add_argument("--resolution", type=int, default=PipelineConfig.resolution)
    p.add_argument("--out", required=True, help=".json or .svg")
    p.set_defaults(func=_cmd_contours)

    p = sub.add_parser("typology", help="PCA of a binary feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--impute", choices=IMPUTE_METHODS, default="none")
    p.add_argument("--registry", help="adds a family column to the output")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_typology)

    p = sub.add_parser("select", help="pick source languages for a target")
    p.add_argument("--target", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--k", type=int, default=PipelineConfig.k)
    p.add_argument("--registry", required=True)
    p.add_argument("--matrix", help="similarity matrix CSV (corpus_sim)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("per", help="phoneme error rate between two files")
    p.add_argument("--ref", required=True, help="reference sequences, one per line")
    p.add_argument("--hyp", required=True, help="hypothesis sequences, line-aligned")
    p.add_argument("--macro", action="store_true",
                   help="average per-utterance percentages instead of pooling")
    p.set_defaults(func=_cmd_per)

    p = sub.add_parser("pipeline", help="run the full analysis pipeline")
    p.add_argument("--config", help="INI file with a [pipeline] section")
    p.add_argument("--corpus-dir", type=_absolute)
    p.add_argument("--rules-dir", type=_absolute)
    p.add_argument("--registry", type=_absolute)
    p.add_argument("--policy", type=_absolute)
    p.add_argument("--target")
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--k", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--relative", action="store_const", const=True)
    p.add_argument("--resolution", type=int)
    p.add_argument("--out", type=_absolute)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    previous = warnings.showwarning
    warnings.showwarning = _print_warning
    try:
        args = parser.parse_args(argv)
        func = getattr(args, "func", None)
        if func is None:
            parser.print_help(sys.stderr)
            return 1
        return func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except BrokenPipeError:
        return 0
    except (PhonosimError, OSError) as e:
        print(f"phonosim: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"phonosim: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    finally:
        warnings.showwarning = previous


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
