import os

import pytest

from nilfill import engine, presentations
from nilfill.cli import main
from nilfill.corpus import corpus_generate
from nilfill.presentations import (Presentation, build_chain_presentation,
                                   build_filler_presentation, load_presentation)
from nilfill.traces import load_trace, verdict_line


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_present_chain(tmp_path, capsys):
    out_path = tmp_path / "p.pres"
    code, out = run(capsys, "present", "--class", "2", "--chain", "1",
                    "--out", str(out_path))
    assert code == 0
    pres = load_presentation(out_path)
    assert pres.names == ("x1", "x2")
    assert pres.nclass == 2


def test_present_filler(tmp_path, capsys):
    out_path = tmp_path / "f.pres"
    code, _ = run(capsys, "present", "--class", "2", "--gens", "2",
                  "--out", str(out_path))
    assert code == 0
    pres = load_presentation(out_path)
    assert "g12" in pres.names


def test_compress_validate_roundtrip(tmp_path, capsys):
    trace = tmp_path / "c.trace"
    code, built = run(capsys, "compress", "--class", "2", "--n", "3",
                      "--trace", str(trace))
    assert code == 0
    code, out = run(capsys, "validate", "--trace", str(trace),
                    "--presentation", str(trace) + ".pres")
    assert code == 0
    assert out.startswith("ok area=72 ")
    # the builder's metrics, printed without a replay, are the validator's
    assert built == out
    # a compression trace is not a null-sequence
    code, out = run(capsys, "validate", "--null", "--trace", str(trace),
                    "--presentation", str(trace) + ".pres")
    assert code == 1
    assert out.startswith("error line=")


def test_compress_custom_spec(tmp_path, capsys):
    trace = tmp_path / "c.trace"
    code, _ = run(capsys, "compress", "--class", "2", "--n", "2",
                  "--spec", "x2 x1", "--trace", str(trace))
    assert code == 0


def test_compress_any_chain_ordering_validates(tmp_path, capsys):
    # any ordering of the chain letters compresses, and the validator
    # replays the certificate to the builder's metrics
    trace = tmp_path / "c.trace"
    code, built = run(capsys, "compress", "--class", "3", "--n", "3",
                      "--spec", "x2,x1,x3", "--trace", str(trace))
    assert code == 0
    code, out = run(capsys, "validate", "--trace", str(trace),
                    "--presentation", str(trace) + ".pres")
    assert code == 0
    assert out.startswith("ok ")
    assert built == out


def test_fill_and_validate_null(tmp_path, capsys):
    trace = tmp_path / "f.trace"
    code, built = run(capsys, "fill", "--class", "2", "--gens", "2",
                      "--word", "x1^-1 x2^-1 x1 x2 g12^-1", "--trace", str(trace))
    assert code == 0
    assert "max_register=" in built
    code, out = run(capsys, "validate", "--null", "--trace", str(trace),
                    "--presentation", str(trace) + ".pres")
    assert code == 0
    assert built.split(" max_register=")[0] == out.rstrip("\n")


def test_fill_word_from_file(tmp_path, capsys):
    word_file = tmp_path / "w.txt"
    word_file.write_text("g12 g12^-1\n")
    trace = tmp_path / "f.trace"
    code, _ = run(capsys, "fill", "--class", "2", "--gens", "2",
                  "--word", str(word_file), "--trace", str(trace))
    assert code == 0


def test_fill_nontrivial_word_fails(tmp_path, capsys):
    trace = tmp_path / "f.trace"
    code = main(["fill", "--class", "2", "--gens", "2",
                 "--word", "x1 x2", "--trace", str(trace)])
    assert code == 1


def test_corpus_stdout(capsys):
    code, out = run(capsys, "corpus", "--class", "2", "--gens", "2",
                    "--n", "10", "--count", "3", "--seed", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_corpus_out_file(tmp_path, capsys):
    out_path = tmp_path / "words.txt"
    code, out = run(capsys, "corpus", "--class", "2", "--gens", "2", "--n", "10",
                    "--count", "3", "--seed", "1", "--out", str(out_path))
    assert code == 0
    assert out == f"wrote 3 words to {out_path}\n"
    assert len(out_path.read_text().splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ("corpus", "--class", "2", "--gens", "2", "--n", "1", "--count", "3", "--seed", "1"),
    ("bench", "fill", "--class", "2", "--gens", "2", "--n", "1", "--count", "3",
     "--seed", "1", "--csv", "OUT", "--no-timing"),
], ids=["corpus", "bench-fill"])
def test_budget_one_runs(tmp_path, capsys, argv):
    # a length budget of 1 draws one-letter words, not a traceback
    code = main([str(tmp_path / "out") if a == "OUT" else a for a in argv])
    assert code == 0


def test_oracle_eval_and_check(capsys):
    code, out = run(capsys, "oracle", "eval", "--class", "2", "x1^-1 x2^-1 x1 x2")
    assert code == 0
    lines = out.strip().splitlines()
    assert "1 1" in lines
    assert "x1.x2 1" in lines
    assert "x2.x1 -1" in lines
    code, out = run(capsys, "oracle", "check", "--class", "2", "x1 x1^-1")
    assert code == 0 and out.strip() == "identity"
    code, out = run(capsys, "oracle", "check", "--class", "2", "x1^-1 x2^-1 x1 x2")
    assert code == 1 and out.strip() == "nontrivial"


def test_bench_compression_csv_deterministic(tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    code, out = run(capsys, "bench", "compression", "--class", "2",
                    "--n-max", "5", "--csv", str(csv1), "--no-timing")
    assert code == 0
    assert "area exponent" in out
    code, _ = run(capsys, "bench", "compression", "--class", "2",
                  "--n-max", "5", "--csv", str(csv2), "--no-timing")
    assert code == 0
    assert csv1.read_bytes() == csv2.read_bytes()


@pytest.mark.parametrize("argv,message", [
    pytest.param(("compress", "--class", "3", "--n", "3", "--spec", "x1,x9,x3",
                  "--trace", "OUT"), "unknown generator 'x9'", id="spec-unknown"),
    pytest.param(("compress", "--class", "3", "--n", "3", "--spec", ",",
                  "--trace", "OUT"), "unknown generator ''", id="spec-empty-name"),
    pytest.param(("compress", "--class", "3", "--n", "3", "--spec", "",
                  "--trace", "OUT"), "unknown generator ''", id="spec-empty"),
    pytest.param(("present", "--class", "2", "--gens", "10", "--out", "OUT"),
                 "generator naming supports at most 9 weight-1 letters",
                 id="present-gens-10"),
    pytest.param(("corpus", "--class", "2", "--gens", "2", "--n", "0", "--count", "2",
                  "--seed", "1"), "need n >= 1, got 0", id="corpus-n-0"),
    pytest.param(("oracle", "eval", "--class", "0", "x y"),
                 "need m >= 1 and c >= 1", id="oracle-class-0"),
    pytest.param(("bench", "compression", "--class", "2", "--n-min", "5",
                  "--n-max", "3", "--csv", "OUT"), "empty n grid", id="bench-empty-grid"),
    pytest.param(("corpus", "--class", "2", "--gens", "2", "--n", "20", "--count", "-1",
                  "--seed", "7"), "need count >= 0", id="corpus-negative-count"),
    pytest.param(("bench", "fill", "--class", "2", "--gens", "2", "--n", "12", "--count",
                  "-2", "--seed", "3", "--csv", "OUT"), "need count >= 0",
                 id="bench-fill-negative-count"),
    pytest.param(("bench", "fill", "--class", "2", "--gens", "2", "--n", "12", "--count",
                  "0", "--seed", "3", "--csv", "OUT"), "empty corpus",
                 id="bench-fill-empty-corpus"),
    pytest.param(("corpus", "--class", "1", "--gens", "1", "--n", "4", "--count", "2",
                  "--seed", "1", "--out", "OUT"), "no relators", id="corpus-no-relators"),
    pytest.param(("bench", "fill", "--class", "1", "--gens", "1", "--n", "4", "--count",
                  "2", "--seed", "1", "--csv", "OUT"), "no relators",
                 id="bench-fill-no-relators"),
    pytest.param(("compress", "--class", "2", "--n", "1", "--trace", "OUT"),
                 "base must be at least 2, got 1", id="compress-base-1"),
    pytest.param(("compress", "--class", "2", "--n", "100000", "--trace", "OUT"),
                 "word longer than 1000000 letters", id="compress-n-huge"),
    pytest.param(("compress", "--class", "2", "--n", "10000000000", "--trace", "OUT"),
                 "word longer than 1000000 letters", id="compress-n-overflow"),
    pytest.param(("compress", "--class", "3", "--n", "2", "--spec", "x1,x2",
                  "--trace", "OUT"), "spec must name 3 letters", id="spec-too-short"),
    # a chain ending in a repeated letter has a freely trivial z_1
    pytest.param(("compress", "--class", "2", "--n", "2", "--spec", "x1,x1",
                  "--trace", "OUT"), "chain x1,x1 ends in a repeated letter: [x1, x1] "
                 "freely reduces to nothing", id="spec-repeated-x1x1"),
    pytest.param(("compress", "--class", "3", "--n", "2", "--spec", "x1,x2,x2",
                  "--trace", "OUT"), "chain x1,x2,x2 ends in a repeated letter: [x2, x2] "
                 "freely reduces to nothing", id="spec-repeated-x1x2x2"),
    pytest.param(("compress", "--class", "3", "--n", "2", "--spec", "x2 x1 x1",
                  "--trace", "OUT"), "chain x2,x1,x1 ends in a repeated letter",
                 id="spec-repeated-x2x1x1"),
    pytest.param(("compress", "--class", "4", "--n", "2", "--spec", "x1,x1,x2,x2",
                  "--trace", "OUT"), "chain x1,x1,x2,x2 ends in a repeated letter: [x2, x2] "
                 "freely reduces to nothing, so z_1 does too and no transport relator "
                 "moves it", id="spec-repeated-x1x1x2x2"),
    # tables past their bounds are refused before they are allocated
    pytest.param(("present", "--class", "7", "--chain", "1", "--out", "OUT"),
                 "8-entry commutators over 14 letters would hold more than 10000000 letters",
                 id="present-chain-class-7"),
    pytest.param(("present", "--class", "10", "--gens", "2", "--out", "OUT"),
                 "11-entry commutators over 4 letters would hold more than 10000000 letters",
                 id="present-gens-class-10"),
    pytest.param(("present", "--class", "7", "--gens", "9", "--out", "OUT"),
                 "8-entry commutators over 18 letters would hold more than 10000000 letters",
                 id="present-gens-9-class-7"),
    pytest.param(("present", "--class", "100000000", "--chain", "1", "--out", "OUT"),
                 "100000001-entry commutators over 200000000 letters would hold more than "
                 "10000000 letters", id="present-chain-class-100000000"),
    pytest.param(("present", "--class", "100000000", "--gens", "2", "--out", "OUT"),
                 "100000001-entry commutators over 4 letters would hold more than "
                 "10000000 letters", id="present-gens-class-100000000"),
    pytest.param(("compress", "--class", "6", "--n", "2", "--trace", "OUT"),
                 "7-entry commutators over 12 letters would hold more than 10000000 letters",
                 id="compress-class-6"),
    pytest.param(("oracle", "eval", "--class", "30", "x1 x2 x3"),
                 "a series at m=3, c=30 has more than 1000000 coefficients",
                 id="oracle-class-30"),
    pytest.param(("oracle", "check", "--class", "100000", "x1 x1^-1"),
                 "a series at m=1, c=100000 has more than 1000000 coefficients",
                 id="oracle-one-symbol-class-100000"),
])
def test_bad_arguments_give_one_error_line(tmp_path, capsys, argv, message):
    out_path = str(tmp_path / "out")
    code = main([out_path if a == "OUT" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not os.listdir(tmp_path)  # nothing written


@pytest.mark.parametrize("lines,verdict", [
    (1000, "ok area=1000 fl=1000000 height=1000"),
    (1001, "error line=1003 word longer than 1000000 letters"),
])
def test_validate_bounds_the_replayed_word(tmp_path, capsys, lines, verdict):
    # each line inserts a 1,000-letter relator: the replayed word may grow
    # to the bound on every word read, and a move past it is refused
    pres = tmp_path / "grow.pres"
    pres.write_text("class 2\ngen x1 1\ngen x2 1\nrel " + "x1 x2 x1^-1 x2^-1 " * 250 + "\n")
    trace = tmp_path / "grow.trace"
    trace.write_text("word:\npresentation: grow.pres\n" + "ar 0 0 0 0 0\n" * lines + "qed\n")
    code, out = run(capsys, "validate", "--trace", str(trace), "--presentation", str(pres))
    assert (code, out) == (int(lines > 1000), verdict + "\n")


@pytest.mark.parametrize("argv,expected", [
    pytest.param(("present", "--class", "2", "--gens", "2", "--out", "MISSING"), 2,
                 id="present-out"),
    pytest.param(("compress", "--class", "2", "--n", "2", "--trace", "MISSING"), 2,
                 id="compress-trace"),
    pytest.param(("fill", "--class", "2", "--gens", "2", "--word", "DIR",
                  "--trace", "OUT"), 2, id="fill-word-directory"),
    pytest.param(("corpus", "--class", "2", "--gens", "2", "--n", "8", "--count", "3",
                  "--seed", "1", "--out", "MISSING"), 2, id="corpus-out"),
    pytest.param(("bench", "compression", "--class", "2", "--n-max", "3",
                  "--csv", "MISSING"), 2, id="bench-csv"),
    pytest.param(("fill", "--class", "2", "--gens", "2", "--word", "NOT_UTF8",
                  "--trace", "OUT"), 1, id="fill-word-not-utf8"),
])
def test_unusable_files_give_one_error_line(tmp_path, capsys, argv, expected):
    # a file that cannot be read or written is an error line, not a traceback
    not_utf8 = tmp_path / "word.txt"
    not_utf8.write_bytes(b"x1 x1^-1 \xff\n")
    paths = {"MISSING": tmp_path / "missing" / "f", "DIR": tmp_path,
             "OUT": tmp_path / "out", "NOT_UTF8": not_utf8}
    code = main([str(paths.get(a, a)) for a in argv])
    captured = capsys.readouterr()
    assert code == expected and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_bench_fill_csv(tmp_path, capsys):
    csv = tmp_path / "f.csv"
    code, out = run(capsys, "bench", "fill", "--class", "2", "--gens", "2",
                    "--n", "12", "--count", "5", "--seed", "3",
                    "--csv", str(csv), "--no-timing")
    assert code == 0
    assert "lambda=" in out
    assert len(csv.read_text().splitlines()) == 6


def _compress_trace(tmp_path, capsys):
    trace = tmp_path / "c.trace"
    code, _ = run(capsys, "compress", "--class", "2", "--n", "2", "--trace", str(trace))
    assert code == 0
    return trace


@pytest.mark.parametrize("edit,line,reason", [
    pytest.param(lambda lines: lines[:3] + [b""] + lines[3:], 4, "bad trace line ''",
                 id="blank-line"),
    pytest.param(lambda lines: lines[:2] + [b"fr x"] + lines[2:], 3, "bad integer",
                 id="fr-x"),
    pytest.param(lambda lines: lines[:2] + [b"fr 0_0"] + lines[2:], 3,
                 "bad integer in trace line 'fr 0_0'", id="fr-underscore"),
    pytest.param(lambda lines: lines[:2] + [b"fe +0 x1"] + lines[2:], 3,
                 "bad integer in trace line 'fe +0 x1'", id="fe-plus-sign"),
    pytest.param(lambda lines: lines[:2] + ["fr \u0660".encode()] + lines[2:], 3,
                 "bad integer in trace line 'fr \u0660'", id="fr-arabic-indic-zero"),
    pytest.param(lambda lines: lines[:2] + [b"fr\t0"] + lines[2:], 3,
                 "bad trace line 'fr\\t0'", id="fr-tab"),
    pytest.param(lambda lines: lines[:2] + [b"fr  0 "] + lines[2:], 3,
                 "bad trace line 'fr  0 '", id="fr-double-and-trailing-space"),
    pytest.param(lambda lines: lines[:2] + [b"fr 0\x1f"] + lines[2:], 3,
                 "bad trace line 'fr 0\\x1f'", id="fr-unit-separator"),
    pytest.param(lambda lines: lines[:2] + [b"fe 0 x1\x1f"] + lines[2:], 3,
                 "bad trace line 'fe 0 x1\\x1f'", id="fe-unit-separator"),
    pytest.param(lambda lines: lines[:2] + [b"fe 0 nope"] + lines[2:], 3,
                 "unknown generator", id="fe-unknown-letter"),
    pytest.param(lambda lines: lines[:2] + [b"fe 0 x1^2"] + lines[2:], 3,
                 "bad fe letter token 'x1^2'", id="fe-two-letters"),
    pytest.param(lambda lines: lines[:2] + [b"fe 0 x1^1"] + lines[2:], 3,
                 "bad fe letter token 'x1^1'", id="fe-exponent-one"),
    pytest.param(lambda lines: lines[:2] + [b"fe 0 x1^+1"] + lines[2:], 3,
                 "bad fe letter token 'x1^+1'", id="fe-exponent-plus-one"),
    pytest.param(lambda lines: lines[:2] + [b"fe 0 x1^01"] + lines[2:], 3,
                 "bad fe letter token 'x1^01'", id="fe-exponent-zero-padded"),
    pytest.param(lambda lines: lines[:2] + [b"fe 0 x1^-001"] + lines[2:], 3,
                 "bad fe letter token 'x1^-001'", id="fe-exponent-zero-padded-inverse"),
    pytest.param(lambda lines: lines[:-1], None, "missing final qed", id="no-qed"),
    pytest.param(lambda lines: lines[1:], 1, "expected a 'word:' header",
                 id="no-word-header"),
    pytest.param(lambda lines: lines[:4] + [b"f\xffr 0"] + lines[5:], 5, "not UTF-8 text",
                 id="non-utf8"),
    pytest.param(lambda lines: [b"word: x1^10000000000000000000"] + lines[1:], 1,
                 "word longer than 1000000 letters", id="huge-exponent-header"),
])
def test_validate_malformed_trace_gives_verdict(tmp_path, capsys, edit, line, reason):
    trace = _compress_trace(tmp_path, capsys)
    lines = edit(trace.read_bytes().splitlines())
    trace.write_bytes(b"\n".join(lines) + b"\n")
    code = main(["validate", "--trace", str(trace),
                 "--presentation", str(trace) + ".pres"])
    captured = capsys.readouterr()
    want = len(lines) + 1 if line is None else line
    assert code == 1
    assert captured.out.startswith(f"error line={want} {reason}")
    assert captured.err == ""


def test_validate_missing_file_is_usage_error(tmp_path, capsys):
    trace = _compress_trace(tmp_path, capsys)
    code = main(["validate", "--trace", str(tmp_path / "absent.trace"),
                 "--presentation", str(trace) + ".pres"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("edit,line,reason", [
    pytest.param(lambda lines: lines + [b"gen x9"], None, "expected 'gen NAME WEIGHT'",
                 id="gen-without-weight"),
    pytest.param(lambda lines: lines + [b"gen x9 two"], None,
                 "weight 'two' is not a positive integer", id="gen-bad-weight"),
    pytest.param(lambda lines: [b"class"] + lines[1:], 1, "expected 'class C'",
                 id="class-without-value"),
    pytest.param(lambda lines: [b"class x"] + lines[1:], 1,
                 "class 'x' is not a positive integer", id="class-not-integer"),
    pytest.param(lambda lines: lines[:1] + [b"class 3"] + lines[1:], 2,
                 "second class line", id="second-class-line"),
    pytest.param(lambda lines: lines + [b"relator x1"], None, "unknown keyword 'relator'",
                 id="unknown-keyword"),
    pytest.param(lambda lines: lines + [b"rel x1 y7"], None, "unknown generator 'y7'",
                 id="rel-unknown-generator"),
    pytest.param(lambda lines: lines[:2] + [lines[1]] + lines[2:], 3,
                 "duplicate generator 'x1'", id="duplicate-name"),
    pytest.param(lambda lines: lines[:2] + [b"rel x1 \xc3"] + lines[2:], 3,
                 "not UTF-8 text", id="non-utf8"),
    pytest.param(lambda lines: lines + [b"rel x1^10000000000000000000 x2"], None,
                 "word longer than 1000000 letters", id="rel-huge-exponent"),
    pytest.param(lambda lines: [b"class " + b"9" * 5000] + lines[1:], 1,
                 "class has more digits than int() takes", id="class-huge"),
    pytest.param(lambda lines: lines + [b"gen x9 " + b"9" * 5000], None,
                 "weight has more digits than int() takes", id="weight-huge"),
])
def test_validate_malformed_presentation_names_line(tmp_path, capsys, edit, line, reason):
    trace = _compress_trace(tmp_path, capsys)
    pres = tmp_path / "c.trace.pres"
    lines = edit(pres.read_bytes().splitlines())
    pres.write_bytes(b"\n".join(lines) + b"\n")
    code = main(["validate", "--trace", str(trace), "--presentation", str(pres)])
    captured = capsys.readouterr()
    want = len(lines) if line is None else line
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: presentation line {want}: {reason}\n"


def test_validate_presentation_comments_and_missing_class(tmp_path, capsys):
    # comments and blank lines are skipped; a file with no class line is an
    # error of the whole file
    trace = _compress_trace(tmp_path, capsys)
    pres = tmp_path / "c.trace.pres"
    lines = pres.read_bytes().splitlines()
    argv = ["validate", "--trace", str(trace), "--presentation", str(pres)]
    assert main(argv) == 0
    verdict = capsys.readouterr().out
    commented = [b"# a comment", b""] + [line + b"  # note" for line in lines] + [b"  "]
    pres.write_bytes(b"\n".join(commented) + b"\n")
    assert main(argv) == 0
    assert capsys.readouterr().out == verdict
    pres.write_bytes(b"\n".join(lines[1:]) + b"\n")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: presentation file lacks a class line\n"


def _corrupt_run(trace, step):
    """A copy of ``trace`` with a transport run broken, as the console
    checks break one: in the first run of ``ar`` lines whose positions go
    by ``step``, the fifth line past the run's second (or its last, if it
    is shorter) names the next relator id."""
    lines = trace.read_text().splitlines()
    moves = [line.split() for line in lines]

    def continues(n):
        return (moves[n][0] == moves[n - 1][0] == "ar"
                and int(moves[n][1]) == int(moves[n - 1][1]) + step)

    start = n = next(n for n in range(3, len(lines)) if continues(n))
    while n < start + 5 and continues(n + 1):
        n += 1
    lines[n] = " ".join(moves[n][:2] + [str(int(moves[n][2]) + 1)] + moves[n][3:])
    out = trace.with_name("run-" + trace.name)
    out.write_text("\n".join(lines) + "\n")
    return out


def test_validating_twice_in_process_gives_the_fresh_verdicts(tmp_path, capsys):
    # the loader hands one presentation to every load of one text and keeps
    # two, so the second pass validates against warm tables, its filler
    # traces coming after the chain ones (A, B, A); each verdict is the one
    # a cold presentation of its own, built with Presentation(...), gives
    filler = build_filler_presentation(3, 2)
    chain = build_chain_presentation(3, 1)
    jobs = []
    for i, w in enumerate(corpus_generate(filler, 12, 5, seed=1)):
        trace = tmp_path / f"f{i}.trace"
        assert run(capsys, "fill", "--class", "3", "--gens", "2",
                   "--word", filler.format_word(w), "--trace", str(trace))[0] == 0
        jobs += [(t, f"{trace}.pres", filler) for t in (trace, _corrupt_run(trace, 1))]
    for i, spec in enumerate(("x1,x2,x3", "x2,x1,x3")):
        trace = tmp_path / f"c{i}.trace"
        assert run(capsys, "compress", "--class", "3", "--n", "3", "--spec", spec,
                   "--trace", str(trace))[0] == 0
        jobs += [(t, f"{trace}.pres", chain) for t in (trace, _corrupt_run(trace, -1))]
    expected = []
    for trace, _, built in jobs:
        fresh = Presentation(built.names, built.weights, built.relators, built.nclass)
        code, line = verdict_line(load_trace(trace, fresh)[0], require_null=False)
        expected.append((code, line + "\n"))
    assert [code for code, _ in expected] == [0, 1] * 7
    for _ in range(2):
        got = [run(capsys, "validate", "--trace", str(trace), "--presentation", pres)
               for trace, pres, _ in jobs]
        assert got == expected


def _count_templates(monkeypatch):
    """Empty the loader and return the list of the keys of the templates
    ``engine._template`` builds from now on."""
    monkeypatch.setattr(presentations, "_kept_loads", ())
    build, built = engine._template, []

    def counted(pres, key, index):
        built.append(key)
        return build(pres, key, index)

    monkeypatch.setattr(engine, "_template", counted)
    return built


def test_a_second_validation_builds_no_template(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "f.trace"
    assert run(capsys, "fill", "--class", "3", "--gens", "2",
               "--word", "x1^-1 x2^-1 x1^-1 x2 x1^2 x1^-1 x2^-1 x1 x2 g112^-1",
               "--trace", str(trace))[0] == 0
    built = _count_templates(monkeypatch)
    argv = ["validate", "--null", "--trace", str(trace), "--presentation", f"{trace}.pres"]
    first = run(capsys, *argv)
    assert first[0] == 0 and built
    built.clear()
    assert run(capsys, *argv) == first
    assert built == []


def test_switching_presentations_builds_no_template_again(tmp_path, capsys, monkeypatch):
    # validate an A certificate, then a B one, then the A one again: the
    # third validation finds A's presentation warm and builds no template
    fill, chain = tmp_path / "f.trace", tmp_path / "c.trace"
    assert run(capsys, "fill", "--class", "3", "--gens", "2",
               "--word", "x1^-1 x2^-1 x1^-1 x2 x1^2 x1^-1 x2^-1 x1 x2 g112^-1",
               "--trace", str(fill))[0] == 0
    assert run(capsys, "compress", "--class", "3", "--n", "2", "--trace", str(chain))[0] == 0
    built = _count_templates(monkeypatch)
    a = ["validate", "--null", "--trace", str(fill), "--presentation", f"{fill}.pres"]
    b = ["validate", "--trace", str(chain), "--presentation", f"{chain}.pres"]
    first = run(capsys, *a)
    assert first[0] == 0 and built
    built.clear()
    assert run(capsys, *b)[0] == 0 and built
    built.clear()
    assert run(capsys, *a) == first
    assert built == []


def test_an_edited_presentation_file_is_loaded_anew(tmp_path, capsys, monkeypatch):
    # one rel line edited, the file keeping its length: the next load
    # builds a new presentation, and a trace valid under the old file gets
    # the verdict that a fresh process, whose loader holds nothing, gives
    pres, trace = tmp_path / "p.pres", tmp_path / "t.trace"
    pres.write_text("class 2\ngen x1 1\ngen x2 1\nrel x1 x2 x1^-1 x2^-1\n")
    trace.write_text("word: x1 x2 x1^-1 x2^-1\npresentation: p.pres\nar 0 0 0 0 4\nqed\n")
    argv = ["validate", "--trace", str(trace), "--presentation", str(pres)]
    assert run(capsys, *argv) == (0, "ok area=1 fl=4 height=1\n")
    old = load_presentation(pres)
    assert old._move_templates
    pres.write_text("class 2\ngen x1 1\ngen x2 1\nrel x2 x1 x2^-1 x1^-1\n")
    new = load_presentation(pres)
    assert new is not old and new.relators == ((2, 1, -2, -1),)
    verdict = run(capsys, *argv)
    assert verdict == (1, "error line=3 word does not carry relator prefix at 0\n")
    monkeypatch.setattr(presentations, "_kept_loads", ())
    assert run(capsys, *argv) == verdict
