"""Adversarial traces, portability digests and append semantics."""

import hashlib

import pytest
from helpers import fill, longest_relator

from nilfill.bench import BenchRecord, write_csv
from nilfill.compression import power_compression_sequence
from nilfill.corpus import corpus_generate
from nilfill.engine import PSequence, replay
from nilfill.errors import NotApplicable
from nilfill.filler import fill_with_report
from nilfill.presentations import (
    build_chain_presentation,
    build_filler_presentation,
    save_presentation,
)
from nilfill.traces import serialize_trace
from nilfill.words import inverse_word

# Frozen digests of the canonical presentations.  Relator ids are embedded
# in trace files, so any change to builder enumeration breaks certificate
# portability and must be deliberate.
PRESENTATION_DIGESTS = {
    ("filler", 2, 2): "7a0d219a5aca81e9",
    ("filler", 3, 2): "55384744a958cab8",
    ("filler", 3, 3): "9f05e32c0c95050d",
    ("filler", 4, 3): "887aedbcc0cfd8fa",
    ("chain", 2, 1): "ba8f0e04b9ad80b9",
    ("chain", 3, 1): "894271d15d0d5819",
    ("chain", 4, 1): "3d049caa87714a6d",
    ("chain", 4, 2): "f44295e7b686c08e",
    ("chain", 3, 2): "f895f2dee06f9670",
}


@pytest.mark.parametrize("kind,a,b", [k for k in PRESENTATION_DIGESTS])
def test_presentation_digests_stable(tmp_path, kind, a, b):
    pres = (build_filler_presentation(a, b) if kind == "filler"
            else build_chain_presentation(a, b))
    path = tmp_path / "p.pres"
    save_presentation(pres, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert digest == PRESENTATION_DIGESTS[(kind, a, b)]
    # a second save writes the text kept from the first
    again = tmp_path / "again.pres"
    save_presentation(pres, again)
    assert again.read_bytes() == path.read_bytes()


# Frozen digests of the serialized fill traces of seeded corpora, keyed by
# (class, generator count, length budget, count, seed) on the filler
# presentation.  With three generators a bank holds up to 8 registers at
# class 3, so absorptions shift the offsets of later registers.  A speedup
# must leave every certificate byte-identical.
FILL_DIGESTS = {
    (2, 2, 24, 16, 11): "27ae7ffadd4b9163",
    (3, 2, 14, 10, 11): "26fddb911b11aa10",
    (3, 3, 12, 10, 11): "4fed38c707f29e0a",
    (2, 3, 16, 12, 11): "0f5ea83522bf4a3f",
    (4, 2, 12, 8, 11): "364fdfdb8cc53dec",
}


def _fill_digest(pres, words):
    h = hashlib.sha256()
    for w in words:
        h.update(serialize_trace(fill(w, pres), "p.pres").encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("c,m,n,count,seed", [k for k in FILL_DIGESTS])
def test_fill_trace_digests_stable(c, m, n, count, seed):
    # twice on one presentation (the second pass reuses every cached
    # register increment), once on a freshly built one (nothing cached)
    pres = build_filler_presentation(c, m)
    words = corpus_generate(pres, n, count, seed)
    fresh = build_filler_presentation.__wrapped__(c, m)
    digests = [_fill_digest(pres, words), _fill_digest(pres, words),
               _fill_digest(fresh, words)]
    assert digests == [FILL_DIGESTS[(c, m, n, count, seed)]] * 3


# Frozen digests of the fill reports over the same corpora: each level's
# (nclass, length, inner_area, initial_top, max_register,
# relator_bound_factor, register_base), one list per fill.
REPORT_DIGESTS = {
    (3, 3, 12, 10, 11): "f93fcfccbfbdab9d",
    (4, 2, 12, 8, 11): "14d2aa29f22c6544",
}


@pytest.mark.parametrize("c,m,n,count,seed", [k for k in REPORT_DIGESTS])
def test_fill_report_digests_stable(c, m, n, count, seed):
    pres = build_filler_presentation(c, m)
    h = hashlib.sha256()
    for w in corpus_generate(pres, n, count, seed):
        report = fill_with_report(w, pres)[1]
        levels = []
        while report is not None:
            levels.append((report.nclass, report.length, report.inner_area,
                           report.initial_top, report.max_register,
                           report.relator_bound_factor, report.register_base))
            report = report.inner
        h.update(repr(levels).encode())
    assert h.hexdigest()[:16] == REPORT_DIGESTS[(c, m, n, count, seed)]


# Frozen digests of serialized power compression traces on the chain
# presentation, keyed by (class, chain ordering, n).
COMPRESSION_DIGESTS = {
    (2, (1, 2), 12): "5f4dd2ec5dbd2e36",
    (3, (1, 2, 3), 6): "0987bc57f6d96958",
    (3, (3, 2, 1), 6): "4b50f23f4bc704df",
    (3, (1, 3, 2), 6): "c5004a55e3d733e1",
    (3, (2, 3, 1), 6): "3c83355d547c1c70",
    (4, (1, 2, 3, 4), 2): "c9f6b545bff27acd",
    (3, (2, 1, 3), 6): "5ec918b1f2be69f5",
    (3, (3, 1, 2), 6): "f685826c90ee92de",
}


@pytest.mark.parametrize("c,chain,n", [k for k in COMPRESSION_DIGESTS])
def test_compression_trace_digests_stable(c, chain, n):
    seq = power_compression_sequence(build_chain_presentation(c, 1), chain, n)
    text = serialize_trace(seq, "p.pres")
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == COMPRESSION_DIGESTS[(c, chain, n)]


def test_corrupt_traces_are_rejected():
    pres = build_chain_presentation(2, 1)
    r = pres.relators[0]
    good = [("ar", 0, 0, 0, 0, 0), ("ar", 0, 0, 0, 1, len(r))]
    assert replay(PSequence(pres, (), list(good)))[1] == ()

    corruptions = [
        [("ar", 1, 0, 0, 0, 0)],                      # stale position
        [("ar", 0, len(pres.relators), 0, 0, 0)],     # unknown relator
        [("ar", 0, 0, len(r), 0, 0)],                 # shift out of range
        [("ar", 0, 0, 0, 0, len(r) + 1)],             # split out of range
        [("ar", 0, 0, 0, 2, 0)],                      # inversion flag not 0 or 1
        [("fr", 0)],                                  # nothing to reduce
        [("fe", 5, 1)],                               # expansion beyond end
        [("fe", 0, pres.rank + 1)],                   # unknown letter
        good[:1] + [("ar", 2, 0, 0, 0, len(r))],      # prefix mismatch
    ]
    for moves in corruptions:
        with pytest.raises(NotApplicable) as exc:
            replay(PSequence(pres, (), moves))
        assert exc.value.move_index == len(moves) - 1


def test_fill_intermediates_oracle_equal_sampled():
    # every sampled intermediate word of a fill represents the input element
    from nilfill.engine import apply_moves

    pres = build_filler_presentation(2, 2)

    for w in corpus_generate(pres, 14, 6, seed=21):
        seq = fill(w, pres)
        word = list(seq.initial)
        step = max(1, len(seq.moves) // 23)
        for i, mv in enumerate(seq.moves):
            apply_moves(word, [mv], pres)
            if i % step == 0:
                assert pres.is_identity(tuple(word) + inverse_word(w))


def test_fill_longest_class_relator_c3():
    pres = build_filler_presentation(3, 2)
    w = next(r for r in pres.relators if len(r) == longest_relator(pres))
    from nilfill.engine import validate_null
    from nilfill.filler import fill_with_report

    seq, report = fill_with_report(w, pres)
    metrics = validate_null(seq)
    assert metrics.area <= 80 * len(w) ** 4
    assert report.max_register <= report.register_bound


def test_csv_append_only(tmp_path):
    path = tmp_path / "rows.csv"
    first = [BenchRecord(2, 2, "compress", 16, 24, 26, 52, 0.0)]
    second = [BenchRecord(2, 3, "compress", 36, 72, 48, 132, 0.0)]
    write_csv(first, path)
    write_csv(second, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("2,2,compress") and lines[2].startswith("2,3,compress")
