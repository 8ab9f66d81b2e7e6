import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcheck import __version__
from gapcheck.checkers import (EvalContext, Kind, RunOpts, Triple, Verdict, catalog,
                               registry, run_all, run_checker, run_many)
from gapcheck.window import GapWindow
from oracles import trial_division_primes


def test_catalog_membership_and_size():
    cat = catalog()
    ids = [c.id for c in cat]
    assert "conj-gap-sq" in ids
    assert len(cat) >= 70
    assert all(c.source for c in cat)
    assert ids == sorted(ids)


def test_conj_gap_sq_exceptions(mid_store):
    r = run_checker("conj-gap-sq", mid_store, 1, 10 ** 5)
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED
    assert r.violations == [4, 9, 30]
    assert r.conjecture


def test_conj_gap_sq2_exceptions(mid_store):
    r = run_checker("conj-gap-sq2", mid_store, 1, 10 ** 5)
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED
    assert r.violations == [4]


def test_delta_gt_half_survey(mid_store):
    r = run_checker("delta-gt-half", mid_store, 1, 10 ** 5)
    assert r.verdict is Verdict.SURVEY_RESULT
    assert r.survey == [2, 4, 6, 9, 11, 30]
    r2 = run_checker("survey-quarter", mid_store, 1, 10 ** 5)
    assert r2.survey == [2, 4, 6, 9, 11, 30]


def test_andrica_sharp(mid_store):
    r = run_checker("andrica-sharp", mid_store, 1, 10 ** 4)
    assert r.verdict is Verdict.PASS
    assert r.extra["max_at"] == 4
    assert r.extra["max_delta"] == "sqrt(11)-sqrt(7)"


def test_run_all_small_range_no_fail(small_store):
    reports = run_all(small_store, 1, 1000)
    assert all(r.verdict not in (Verdict.FAIL, Verdict.UNDECIDED_PRESENT)
               for r in reports), [
        (r.checker_id, r.verdict) for r in reports
        if r.verdict in (Verdict.FAIL, Verdict.UNDECIDED_PRESENT)]


def test_run_all_deterministic(small_store):
    a = [r.to_json() for r in run_all(small_store, 1, 300)]
    b = [r.to_json() for r in run_all(small_store, 1, 300)]
    assert a == b


def test_run_all_out_of_domain(small_store):
    reports = run_all(small_store, 1, 1)
    by_id = {r.checker_id: r for r in reports}
    # checkers with n_min >= 2 see the whole range as out of domain
    assert by_id["floor-32"].counts.out_of_domain == 1
    assert by_id["floor-32"].counts.holds == 0


def test_counts_partition_range(small_store):
    for r in run_all(small_store, 5, 250):
        assert r.counts.total() == 246, r.checker_id


def test_unknown_checker(small_store):
    with pytest.raises(KeyError):
        run_checker("no-such-id", small_store, 1, 10)


def test_exception_set_missing_exception_fails(small_store):
    # restricting the range so an expected exception cannot appear must
    # narrow the expected set, not fail: {4,9,30} ∩ [1,20] = {4,9}
    r = run_checker("conj-gap-sq", small_store, 1, 20)
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED
    assert r.violations == [4, 9]


def test_survey_expected_sets_recorded():
    spec = registry()["delta-gt-half"]
    assert spec.expected_survey == frozenset({2, 4, 6, 9, 11, 30})
    spec2 = registry()["survey-dsq-p"]
    assert spec2.expected_survey == frozenset({4, 9, 30})


def test_equivalence_checkers_small(small_store):
    for cid in ["eq-15-1", "eq-15-2", "eq-15-3", "eq-15-4", "eq-16-1",
                "eq-16-2", "eq-16-3", "eq-qr", "eq-28-1", "eq-28-2",
                "eq-28-3", "twin-91", "cor-13", "cor-64", "even-73"]:
        r = run_checker(cid, small_store, 1, 2000)
        assert r.verdict is Verdict.PASS, (cid, r.verdict, r.witnesses[:3])


def test_twin_sq_exception(small_store):
    r = run_checker("twin-sq", small_store, 1, 1000)
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED
    assert r.violations == [2]


def test_survey_dh_collects(small_store):
    r = run_checker("survey-dh", small_store, 1, 1000)
    assert 6 in r.survey and 24 in r.survey
    assert r.verdict is Verdict.SURVEY_RESULT


def test_survey_dsq_p_extras(mid_store):
    r = run_checker("survey-dsq-p", mid_store, 1, 10 ** 4)
    assert r.survey == [4, 9, 30]
    assert set(r.extra["delta_gt_half"]) == {2, 4, 6, 9, 11, 30}
    assert 4 in r.extra["d_gt_sqrt_p"]


def test_exception_indices_specific(small_store):
    cases = {
        "gap-half": [1, 2, 4],
        "cor-26": [4],
        "ext-63": [2, 4],
        "even-72": [3],
        "even-74": [3, 8],
        "odd-79": [5],
        "odd-710": [5, 16, 24],
    }
    for cid, expected in cases.items():
        r = run_checker(cid, small_store, 1, 5000)
        assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED, (cid, r.verdict)
        assert r.violations == expected, (cid, r.violations)


def test_trend_reports(small_store):
    r = run_checker("trend-delta", small_store, 1, 4000)
    assert r.verdict is Verdict.TREND_RESULT
    assert r.extra["running_max_attained_at_4"] is True
    r2 = run_checker("trend-mu", small_store, 1, 4000)
    assert r2.verdict is Verdict.TREND_RESULT
    rows = r2.extra["checkpoints"]
    assert rows[-1][1] < 0.01 and rows[-1][2] > 0.99


def test_report_json_schema(small_store):
    r = run_checker("conj-gap-sq", small_store, 1, 100)
    d = json.loads(r.to_json())
    assert d["id"] == "conj-gap-sq"
    assert d["range"] == [1, 100]
    assert set(d["counts"]) == {"holds", "fails", "undecided", "out_of_domain"}
    assert d["verdict"] == "EXCEPTIONS_CONFIRMED"
    assert isinstance(d["conjecture"], bool)
    for w in d["witnesses"]:
        assert {"n", "p", "q", "d"} <= set(w)


def test_resume_equivalence(mid_store):
    ids = ["conj-gap-sq", "twin-95", "andrica-sharp", "fixedgap-mono",
           "delta-gt-half", "twin-913", "alpha-props"]
    single, _ = run_many(ids, mid_store, 1, 4000)
    for split in (2, 137, 3999):
        part1, cp = run_many(ids, mid_store, 1, split)
        resumed, _ = run_many(ids, mid_store, split + 1, 4000, resume=cp)
        for cid in ids:
            assert resumed[cid].to_json() == single[cid].to_json(), (split, cid)


def test_resume_on_larger_store(small_store, mid_store):
    """A checkpoint taken on one sieve continues on a larger one: j depends
    only on the primes, not on the sieve limit."""
    ids = ["conj-gap-sq", "twin-95", "fixedgap-mono", "delta-gt-half", "alpha-props"]
    single, _ = run_many(ids, mid_store, 1, 12000)
    _, cp = run_many(ids, small_store, 1, 5000)
    resumed, _ = run_many(ids, mid_store, 5001, 12000, resume=cp)
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), cid
    # thm-78 counts primes up to N^2 + 2N, past the small sieve near its edge
    split = small_store.prime_count - 7
    _, cp = run_many(["thm-78"], small_store, 1, split)
    resumed, _ = run_many(["thm-78"], mid_store, split + 1, 12000, resume=cp)
    single, _ = run_many(["thm-78"], mid_store, 1, 12000)
    assert resumed["thm-78"].to_json() == single["thm-78"].to_json()
    # a run that used up its sieve skipped its last window's successor
    _, cp = run_many(["gap-next"], small_store, 1, small_store.prime_count - 1)
    with pytest.raises(ValueError):
        run_many(["gap-next"], mid_store, small_store.prime_count, 12000, resume=cp)


def test_resume_old_checkpoint_needs_same_store(small_store, mid_store):
    """A checkpoint without `sieve_edge` cannot tell whether it stopped at
    its sieve's edge, so it resumes only on a sieve of its own limit."""
    ids = ["gap-next", "conj-gap-sq"]
    single, _ = run_many(ids, mid_store, 1, 120)
    _, cp = run_many(ids, mid_store, 1, 50)
    del cp["sieve_edge"]
    cp["store_limit"] = mid_store.limit
    resumed, _ = run_many(ids, mid_store, 51, 120, resume=cp)
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), cid
    cp["store_limit"] = small_store.limit
    with pytest.raises(ValueError):
        run_many(ids, mid_store, 51, 120, resume=cp)


def test_prefix_claims_out_of_domain_on_cold_start(mid_store):
    """Claims over every n < m cannot be decided from a start past n = 1."""
    for cid in ("twin-95", "twin-96", "twin-910"):
        r = run_checker(cid, mid_store, 100001, 101000)
        assert r.verdict is not Verdict.FAIL, cid
        assert r.counts.out_of_domain == 1000 and r.counts.total() == 1000, cid


def test_resume_ignores_old_j_prev(mid_store):
    """Checkpoints no longer carry the twin count j_prev; one written before
    j left the window stream still resumes, its j_prev unread."""
    ids = sorted(registry())
    single, _ = run_many(ids, mid_store, 1, 700)
    _, cp = run_many(ids, mid_store, 1, 300)
    assert "j_prev" not in cp
    cp["j_prev"] = 123
    resumed, _ = run_many(ids, mid_store, 301, 700, resume=json.loads(json.dumps(cp)))
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), cid


def test_resume_mismatch_rejected(mid_store):
    _, cp = run_many(["conj-gap-sq"], mid_store, 1, 50)
    with pytest.raises(ValueError):
        run_many(["conj-gap-sq"], mid_store, 99, 120, resume=cp)
    with pytest.raises(ValueError):
        run_many(["andrica"], mid_store, 51, 120, resume=cp)


def test_resume_with_other_witness_cap_rejected(mid_store):
    """The cap decides which witnesses the first part keeps, so a resume
    under another cap would not equal a single run: it is refused, naming
    the recorded cap.  A checkpoint without the key resumes as before."""
    ids = ["conj-gap-sq", "delta-gt-half", "odd-710", "survey-dh"]
    capped = RunOpts(witness_cap=2)
    _, cp = run_many(ids, mid_store, 1, 1000, capped)
    cp = json.loads(json.dumps(cp))
    assert cp["witness_cap"] == 2
    with pytest.raises(ValueError, match="witness cap 2"):
        run_many(ids, mid_store, 1001, 2000, RunOpts(witness_cap=None), resume=cp)
    single, _ = run_many(ids, mid_store, 1, 2000, capped)
    resumed, _ = run_many(ids, mid_store, 1001, 2000, capped, resume=cp)
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), cid
    _, cp = run_many(ids, mid_store, 1, 1000, RunOpts(witness_cap=None))
    cp = json.loads(json.dumps(cp))
    assert cp["witness_cap"] is None
    with pytest.raises(ValueError, match="witness cap unlimited"):
        run_many(ids, mid_store, 1001, 2000, RunOpts(), resume=cp)
    del cp["witness_cap"]
    run_many(ids, mid_store, 1001, 2000, RunOpts(), resume=cp)


def test_resume_from_other_version_rejected(mid_store):
    """A checkpoint records the version that wrote it; a resume by another
    version is refused, naming both.  A checkpoint without the key resumes
    as before."""
    ids = ["conj-gap-sq", "delta-gt-half", "alpha-props"]
    single, _ = run_many(ids, mid_store, 1, 600)
    _, cp = run_many(ids, mid_store, 1, 250)
    cp = json.loads(json.dumps(cp))
    assert cp["tool_version"] == __version__
    other = dict(cp, tool_version="0.0.1")
    with pytest.raises(ValueError, match=f"gapcheck 0.0.1, this is gapcheck {__version__}"):
        run_many(ids, mid_store, 251, 600, resume=other)
    del cp["tool_version"]
    resumed, _ = run_many(ids, mid_store, 251, 600, resume=cp)
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), cid


# n in 1..1499 next to a twin pair (p_{n+1} - p_n = 2) or a power of two,
# where the trend-* rows are taken: splits the property test below favours
_PRIMES = trial_division_primes(12553)          # p_1 .. p_1500 = 12553
_TWIN_NS = [n for n in range(1, 1500) if _PRIMES[n] - _PRIMES[n - 1] == 2]
_EDGE_SPLITS = sorted({s for n in _TWIN_NS + [2 ** k for k in range(11)]
                       for s in (n - 1, n, n + 1) if 1 <= s <= 1499})


@pytest.fixture(scope="module")
def catalog_1500(mid_store):
    """The whole catalog over 1..1500 in one run: reports and checkpoint."""
    return run_many(sorted(registry()), mid_store, 1, 1500)


@settings(max_examples=10, deadline=None)
@given(st.one_of(st.integers(1, 1499), st.sampled_from(_EDGE_SPLITS)))
def test_resume_at_random_split_equals_single_run(mid_store, catalog_1500, split):
    """The whole catalog run to a split point in 1..1499, its checkpoint
    passed through JSON, then resumed to 1500: the reports' JSON and the
    checkpoint's per-checker block equal those of one run."""
    ids = sorted(registry())
    single, single_cp = catalog_1500
    _, cp = run_many(ids, mid_store, 1, split)
    resumed, resumed_cp = run_many(ids, mid_store, split + 1, 1500,
                                   resume=json.loads(json.dumps(cp)))
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), (split, cid)
    assert (json.dumps(resumed_cp["per"], sort_keys=True)
            == json.dumps(single_cp["per"], sort_keys=True)), split


def _triples(store, n_lo, n_hi) -> list:
    """The (prev, w, nxt) the engine sees over [n_lo, n_hi]: the window before
    the range and after it where the store holds them."""
    def window(n):
        if n < max(1, n_lo - 1) or n + 1 > store.prime_count:
            return None
        return GapWindow(n, store.nth_prime(n), store.nth_prime(n + 1))

    return [Triple(window(n - 1), window(n), window(n + 1)) for n in range(n_lo, n_hi + 1)]


def test_out_of_domain_counts_match_specs(small_store):
    """The engine tests n_min/needs_prev/needs_next on edge windows only;
    every checker's out_of_domain count still equals the count recomputed
    straight from its spec, from n = 1 and on a run ending on the store's
    last window (no successor)."""
    reg = registry()
    ids = sorted(reg)
    last = small_store.prime_count - 1
    for n_lo, n_hi in ((1, 12), (last - 150, last)):
        reports, cp = run_many(ids, small_store, n_lo, n_hi)
        assert cp["sieve_edge"] == (n_hi == last)
        ctx = EvalContext(store=small_store, opts=RunOpts(), n_lo=n_lo, n_hi=n_hi)
        triples = _triples(small_store, n_lo, n_hi)
        for cid in ids:
            spec, rep = reg[cid], reports[cid]
            assert not any("error" in note for note in rep.notes), (cid, rep.notes)
            expected = sum(
                1 for tri in triples
                if tri.w.n < spec.n_min or (spec.needs_prev and tri.prev is None)
                or (spec.needs_next and tri.nxt is None)
                or (spec.domain is not None and not spec.domain(ctx, tri)))
            assert rep.counts.out_of_domain == expected, (cid, n_lo, n_hi)


# sha256 of the JSON reports of all 109 checkers over 1..3000, one line each
# in id order (the stdout of `verify --checker all --n-hi 3000 --format json`),
# recorded before the per-window quantities moved onto RootViews
CATALOG_3000_SHA256 = "23fde644ad951f0b8c68b4b74bc0f4da73a7d8f02e7c8f9def4cffce963b1751"


def test_catalog_digest_pinned(mid_store):
    """Every report byte past the benchmark's n <= 600 is pinned: a single
    run over 1..3000 and a run split at 1234 (checkpoint through JSON) both
    hash to the recorded digest."""
    ids = sorted(registry())
    assert len(ids) == 109

    def digest(reports):
        h = hashlib.sha256()
        for cid in ids:
            h.update(reports[cid].to_json().encode() + b"\n")
        return h.hexdigest()

    single, _ = run_many(ids, mid_store, 1, 3000)
    assert digest(single) == CATALOG_3000_SHA256
    _, cp = run_many(ids, mid_store, 1, 1234)
    resumed, _ = run_many(ids, mid_store, 1235, 3000, resume=json.loads(json.dumps(cp)))
    assert digest(resumed) == CATALOG_3000_SHA256


# the same digest over n = 200000..200400 (p near 2.75e6), cold started there;
# recorded before the two-radicand floor became exact
CATALOG_FAR_SHA256 = "58509bcf91e33377c0158f5729656b4152878946f3d431413a43fb8a0ca0ed9b"


def test_catalog_digest_far_range(mid_store):
    """Reports on integers larger than the pinned 1..3000 reaches: a single
    cold-started run over 200000..200400 and a run split at 200177
    (checkpoint through JSON) both hash to the recorded digest."""
    ids = sorted(registry())

    def digest(reports):
        h = hashlib.sha256()
        for cid in ids:
            h.update(reports[cid].to_json().encode() + b"\n")
        return h.hexdigest()

    single, _ = run_many(ids, mid_store, 200000, 200400)
    assert digest(single) == CATALOG_FAR_SHA256
    _, cp = run_many(ids, mid_store, 200000, 200177)
    resumed, _ = run_many(ids, mid_store, 200178, 200400, resume=json.loads(json.dumps(cp)))
    assert digest(resumed) == CATALOG_FAR_SHA256


def test_witness_cap(small_store):
    r = run_checker("delta-gt-half", small_store, 1, 1000,
                    opts=RunOpts(witness_cap=2))
    assert len(r.witnesses) == 2
    assert r.survey == [2, 4, 6, 9, 11, 30]  # survey list unaffected by cap


def test_kind_partition():
    kinds = {k: 0 for k in Kind}
    for spec in catalog():
        kinds[spec.kind] += 1
    assert kinds[Kind.UNIVERSAL] > 30
    assert kinds[Kind.EXCEPTION_SET] >= 8
    assert kinds[Kind.EQUIVALENCE] >= 12
    assert kinds[Kind.SURVEY] >= 8
    assert kinds[Kind.TREND] == 2


def test_cor27_printed_endpoints(small_store):
    """The excluded range of the sqrt(2x)-interval claim, frozen at the
    printed endpoints: the claim fails at x = 7 and still fails at the
    printed rational endpoint 7.2041684766 (both inside the exclusion)."""
    from fractions import Fraction
    # integer endpoint x = 7: next prime 11 >= 7 + sqrt(14) ~ 10.74
    assert 11 >= 7 and (11 - 7) ** 2 > 2 * 7
    # rational endpoint: x + sqrt(2x) < 11  <=>  2x < (11 - x)^2
    x0 = Fraction("7.2041684766")
    assert 2 * x0 < (11 - x0) ** 2
    # one integer later the claim holds: 11 < 8 + 4
    assert (11 - 8) ** 2 < 2 * 8
    # and the catalog checker reports exactly {4} on a desk range
    r = run_checker("cor-27", small_store, 1, 2000)
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED and r.violations == [4]


def test_checker_error_counts_undecided(monkeypatch, capsys):
    """A checker that raises is the one source of Undecided: its window
    counts undecided, every later one out of domain, and the report is
    UNDECIDED_PRESENT, so `verify` exits 2."""
    import dataclasses

    from gapcheck import cli
    from gapcheck.primes import build_store

    spec = registry()["thm-35"]

    def raising(ctx, tri, st):
        if tri.w.n == 50:
            raise RuntimeError("injected")
        return spec.evaluate(ctx, tri, st)

    monkeypatch.setitem(registry(), "thm-35", dataclasses.replace(spec, evaluate=raising))
    rep = run_many(["thm-35", "thm-34"], build_store(10 ** 4), 1, 100)[0]
    r = rep["thm-35"]
    assert (r.counts.holds, r.counts.fails, r.counts.undecided,
            r.counts.out_of_domain) == (48, 0, 1, 51)
    assert r.notes == ["checker error at n=50: RuntimeError('injected')"]
    assert r.verdict is Verdict.UNDECIDED_PRESENT
    assert rep["thm-34"].verdict is Verdict.PASS
    code = cli.main(["verify", "--checker", "thm-34,thm-35", "--n-hi", "100",
                     "--limit", "10000"])
    assert code == cli.EXIT_UNDECIDED == 2
    assert "thm-35" in capsys.readouterr().out
