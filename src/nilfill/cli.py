"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 usage error or a file that
cannot be read or written.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import bench as bench_mod
from . import oracle as oracle_mod
from .compression import power_compression_sequence
from .corpus import corpus_generate, save_corpus
from .errors import NilfillError, TraceSyntaxError
from .filler import fill_with_report
from .presentations import (
    build_chain_presentation,
    build_filler_presentation,
    load_presentation,
    read_text,
    save_presentation,
)
from .traces import format_ok, load_trace, save_trace, verdict_line
from .words import parse_word


# built once per process: parsing reads the parser and never changes it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nilfill")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present", help="write a presentation file")
    p.add_argument("--class", dest="nclass", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--chain", type=int, help="chain presentation P_k")
    g.add_argument("--gens", type=int, help="filler presentation on m generators")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compress", help="emit a power compression trace")
    p.add_argument("--class", dest="nclass", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spec", help="chain letters (default x1..xc)")
    p.add_argument("--trace", required=True)
    p.add_argument("--presentation-out")

    p = sub.add_parser("fill", help="fill a null-homotopic word")
    p.add_argument("--class", dest="nclass", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--word", required=True, help="word text or a file holding it")
    p.add_argument("--trace", required=True)
    p.add_argument("--presentation-out")

    p = sub.add_parser("validate", help="replay and verify a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--presentation", required=True)
    p.add_argument("--null", action="store_true",
                   help="additionally require the final word to be empty")

    p = sub.add_parser("corpus", help="generate null-homotopic words")
    p.add_argument("--class", dest="nclass", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="file instead of stdout")

    p = sub.add_parser("oracle", help="series evaluation")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    for name in ("eval", "check"):
        op = osub.add_parser(name)
        op.add_argument("--class", dest="nclass", type=int, required=True)
        op.add_argument("word")

    p = sub.add_parser("bench", help="scaling experiments")
    bsub = p.add_subparsers(dest="bench_command", required=True)
    bc = bsub.add_parser("compression")
    bc.add_argument("--class", dest="nclass", type=int, required=True)
    bc.add_argument("--n-min", type=int, default=2)
    bc.add_argument("--n-max", type=int, required=True)
    bc.add_argument("--csv", required=True)
    bc.add_argument("--no-timing", action="store_true",
                    help="zero the seconds column for reproducible files")
    bc.add_argument("--trace-dir", help="keep benchmark traces here")
    bf = bsub.add_parser("fill")
    bf.add_argument("--class", dest="nclass", type=int, required=True)
    bf.add_argument("--gens", type=int, required=True)
    bf.add_argument("--n", type=int, required=True)
    bf.add_argument("--count", type=int, required=True)
    bf.add_argument("--seed", type=int, required=True)
    bf.add_argument("--csv", required=True)
    bf.add_argument("--no-timing", action="store_true")
    bf.add_argument("--trace-dir")
    return ap


def _read_word_arg(value: str, pres):
    if os.path.exists(value):
        value = read_text(value, lambda line, reason: NilfillError(
            f"word file line {line}: {reason}"))
    return pres.parse_word(value)


def _save_presentation_for(trace_path, explicit, pres) -> str:
    path = explicit or trace_path + ".pres"
    save_presentation(pres, path)
    return path


def cmd_present(args) -> int:
    if args.chain is not None:
        pres = build_chain_presentation(args.nclass, args.chain)
    else:
        pres = build_filler_presentation(args.nclass, args.gens)
    save_presentation(pres, args.out)
    print(f"wrote {args.out}: {pres.rank} generators, "
          f"{len(pres.relators)} relators, class {pres.nclass}")
    return 0


def cmd_compress(args) -> int:
    pres = build_chain_presentation(args.nclass, 1)
    if args.spec is not None:
        names = re.split(r"[,\s]+", args.spec.strip())
        unknown = [nm for nm in names if nm not in pres.name_to_index]
        if unknown:
            raise NilfillError(f"unknown generator {unknown[0]!r} in --spec")
        chain = tuple(pres.name_to_index[nm] for nm in names)
        if len(chain) != args.nclass:
            raise NilfillError(f"spec must name {args.nclass} letters")
        if len(chain) > 1 and chain[-1] == chain[-2]:
            # [a, a] freely reduces to nothing, so z_1 does too, and the
            # chain presentation prunes every freely trivial relator
            raise NilfillError(
                f"chain {','.join(names)} ends in a repeated letter: [{names[-2]}, "
                f"{names[-1]}] freely reduces to nothing, so z_1 does too and no "
                "transport relator moves it")
    else:
        chain = tuple(range(1, args.nclass + 1))
    seq = power_compression_sequence(pres, chain, args.n)
    pres_path = _save_presentation_for(args.trace, args.presentation_out, pres)
    save_trace(seq, args.trace, pres_path)
    print(format_ok(seq.metrics))
    return 0


def cmd_fill(args) -> int:
    pres = build_filler_presentation(args.nclass, args.gens)
    w = _read_word_arg(args.word, pres)
    seq, report = fill_with_report(w, pres)
    pres_path = _save_presentation_for(args.trace, args.presentation_out, pres)
    save_trace(seq, args.trace, pres_path)
    print(format_ok(seq.metrics)
          + f" max_register={report.max_register}"
            f" register_bound={report.register_bound}")
    return 0


def cmd_validate(args) -> int:
    try:
        pres = load_presentation(args.presentation)
        seq, _ = load_trace(args.trace, pres)
    except TraceSyntaxError as exc:
        print(f"error line={exc.line} {exc.reason}")
        return 1
    code, line = verdict_line(seq, require_null=args.null)
    print(line)
    return code


def cmd_corpus(args) -> int:
    pres = build_filler_presentation(args.nclass, args.gens)
    words = corpus_generate(pres, args.n, args.count, args.seed)
    if args.out:
        save_corpus(words, pres, args.out)
        print(f"wrote {len(words)} words to {args.out}")
    else:
        for w in words:
            print(pres.format_word(w))
    return 0


def _oracle_tables(word_text: str):
    """Symbols by first appearance; the CLI treats every name as weight 1."""
    names = []
    for tok in word_text.split():
        name = tok.split("^")[0]
        if name not in names:
            names.append(name)
    table = {n: i + 1 for i, n in enumerate(names)}
    return names, table


def cmd_oracle(args) -> int:
    names, table = _oracle_tables(args.word)
    w = parse_word(args.word, table)
    m = max(1, len(names))
    vec = oracle_mod.eval_word(w, m, args.nclass)
    if args.oracle_command == "check":
        ok = oracle_mod.is_unit(vec)
        print("identity" if ok else "nontrivial")
        return 0 if ok else 1
    ctx = oracle_mod.series_context(m, args.nclass)
    for idx, coeff in enumerate(vec):
        if coeff:
            mono = ctx.monomials[idx]
            label = ".".join(names[s - 1] for s in mono) if mono else "1"
            print(f"{label} {coeff}")
    return 0


def cmd_bench(args) -> int:
    timing = not args.no_timing
    if args.bench_command == "compression":
        records, fit = bench_mod.bench_compression(
            args.nclass, range(args.n_min, args.n_max + 1),
            timing=timing, trace_dir=args.trace_dir)
        bench_mod.write_csv(records, args.csv)
        if fit is not None:
            print(f"area exponent {fit.slope:.3f} over n in {fit.n_range}")
        else:
            print("area exponent not fitted (zero areas or too few points)")
        # smallest constants valid over this grid
        xi_area = max(r.area / r.n ** (args.nclass + 1) for r in records)
        surplus = max((r.fl - r.len_initial) / r.n for r in records)
        print(f"xi_area = {xi_area:.3f}  max (fl - len_initial)/n = {surplus:.2f}")
        return 0
    records, certificate, _ = bench_mod.bench_fill(
        args.nclass, args.gens, args.n, args.count, args.seed,
        timing=timing, trace_dir=args.trace_dir)
    bench_mod.write_csv(records, args.csv)
    print(f"filled {certificate.count} words: lambda={certificate.lam:.3f} "
          f"(area {certificate.lam_area:.3f}, fl {certificate.lam_fl:.3f})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "present": cmd_present,
        "compress": cmd_compress,
        "fill": cmd_fill,
        "validate": cmd_validate,
        "corpus": cmd_corpus,
        "oracle": cmd_oracle,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except NilfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
