import hashlib
import json
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcheck import __version__
from gapcheck.checkers import (Kind, RunOpts, Triple, Verdict, catalog, check_checkpoint,
                               engine, registry, run_many)
from gapcheck.primes import CoverageError, build_store
from gapcheck.window import GapWindow
from oracles import RANDOM_RANGES, random_chain, reads, trial_division_primes


def test_catalog_membership_and_size():
    cat = catalog()
    ids = [c.id for c in cat]
    assert "conj-gap-sq" in ids
    assert len(cat) >= 70
    assert all(c.source for c in cat)
    assert ids == sorted(ids)


def test_conj_gap_sq_exceptions(mid_store):
    r = run_many(["conj-gap-sq"], mid_store, 1, 10 ** 5)[0]["conj-gap-sq"]
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED
    assert r.violations == [4, 9, 30]
    assert r.conjecture


def test_conj_gap_sq2_exceptions(mid_store):
    r = run_many(["conj-gap-sq2"], mid_store, 1, 10 ** 5)[0]["conj-gap-sq2"]
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED
    assert r.violations == [4]


def test_delta_gt_half_survey(mid_store):
    r = run_many(["delta-gt-half"], mid_store, 1, 10 ** 5)[0]["delta-gt-half"]
    assert r.verdict is Verdict.SURVEY_RESULT
    assert r.survey == [2, 4, 6, 9, 11, 30]
    r2 = run_many(["survey-quarter"], mid_store, 1, 10 ** 5)[0]["survey-quarter"]
    assert r2.survey == [2, 4, 6, 9, 11, 30]


def test_andrica_sharp(mid_store):
    r = run_many(["andrica-sharp"], mid_store, 1, 10 ** 4)[0]["andrica-sharp"]
    assert r.verdict is Verdict.PASS
    assert r.extra["max_at"] == 4
    assert r.extra["max_delta"] == "sqrt(11)-sqrt(7)"


def test_run_all_small_range_no_fail(small_store):
    reports = run_many(sorted(registry()), small_store, 1, 1000)[0].values()
    assert all(r.verdict not in (Verdict.FAIL, Verdict.UNDECIDED_PRESENT)
               for r in reports), [
        (r.checker_id, r.verdict) for r in reports
        if r.verdict in (Verdict.FAIL, Verdict.UNDECIDED_PRESENT)]


def test_run_all_deterministic(small_store):
    ids = sorted(registry())
    a = [r.to_json() for r in run_many(ids, small_store, 1, 300)[0].values()]
    b = [r.to_json() for r in run_many(ids, small_store, 1, 300)[0].values()]
    assert a == b


def test_run_all_out_of_domain(small_store):
    by_id = run_many(sorted(registry()), small_store, 1, 1)[0]
    # checkers with n_min >= 2 see the whole range as out of domain
    assert by_id["floor-32"].counts.out_of_domain == 1
    assert by_id["floor-32"].counts.holds == 0


def test_counts_partition_range(small_store):
    for r in run_many(sorted(registry()), small_store, 5, 250)[0].values():
        assert sum(r.counts.as_dict().values()) == 246, r.checker_id


def test_unknown_checker(small_store):
    with pytest.raises(KeyError):
        run_many(["no-such-id"], small_store, 1, 10)


def test_exception_set_missing_exception_fails(small_store):
    # restricting the range so an expected exception cannot appear must
    # narrow the expected set, not fail: {4,9,30} ∩ [1,20] = {4,9}
    r = run_many(["conj-gap-sq"], small_store, 1, 20)[0]["conj-gap-sq"]
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED
    assert r.violations == [4, 9]


# what four surveys collect over 1..1e5, as the source prints them: Delta >
# 1/2 (so Delta^2 >= 1/4) at six n, d^2 > q at three, and remark 2.15 none
EXPECTED_SURVEYS = {
    "delta-gt-half": [2, 4, 6, 9, 11, 30],
    "ishikawa-emp": [],
    "survey-dsq-p": [4, 9, 30],
    "survey-quarter": [2, 4, 6, 9, 11, 30],
}


def test_survey_expected_sets_match_runs(mid_store):
    """Each survey of EXPECTED_SURVEYS collects its recorded set over
    1..1e5."""
    for cid, expected in EXPECTED_SURVEYS.items():
        r = run_many([cid], mid_store, 1, 10 ** 5)[0][cid]
        assert r.survey == expected, cid


def test_equivalence_checkers_small(small_store):
    for cid in ["eq-15-1", "eq-15-2", "eq-15-3", "eq-15-4", "eq-16-1",
                "eq-16-2", "eq-16-3", "eq-qr", "eq-28-1", "eq-28-2",
                "eq-28-3", "twin-91", "cor-13", "cor-64", "even-73"]:
        r = run_many([cid], small_store, 1, 2000)[0][cid]
        assert r.verdict is Verdict.PASS, (cid, r.verdict, r.witnesses[:3])


def test_twin_sq_exception(small_store):
    r = run_many(["twin-sq"], small_store, 1, 1000)[0]["twin-sq"]
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED
    assert r.violations == [2]


def test_survey_dh_collects(small_store):
    r = run_many(["survey-dh"], small_store, 1, 1000)[0]["survey-dh"]
    assert 6 in r.survey and 24 in r.survey
    assert r.verdict is Verdict.SURVEY_RESULT


def test_survey_dsq_p_extras(mid_store):
    r = run_many(["survey-dsq-p"], mid_store, 1, 10 ** 4)[0]["survey-dsq-p"]
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
        r = run_many([cid], small_store, 1, 5000)[0][cid]
        assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED, (cid, r.verdict)
        assert r.violations == expected, (cid, r.violations)


def test_trend_reports(small_store):
    r = run_many(["trend-delta"], small_store, 1, 4000)[0]["trend-delta"]
    assert r.verdict is Verdict.TREND_RESULT
    assert r.extra["running_max_attained_at_4"] is True
    r2 = run_many(["trend-mu"], small_store, 1, 4000)[0]["trend-mu"]
    assert r2.verdict is Verdict.TREND_RESULT
    rows = r2.extra["checkpoints"]
    assert rows[-1][1] < 0.01 and rows[-1][2] > 0.99


def test_report_json_schema(small_store):
    r = run_many(["conj-gap-sq"], small_store, 1, 100)[0]["conj-gap-sq"]
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
    # a run split a few windows before the small sieve's edge resumes on the
    # larger one
    split = small_store.prime_count - 7
    _, cp = run_many(["thm-78"], small_store, 1, split)
    resumed, _ = run_many(["thm-78"], mid_store, split + 1, 12000, resume=cp)
    single, _ = run_many(["thm-78"], mid_store, 1, 12000)
    assert resumed["thm-78"].to_json() == single["thm-78"].to_json()
    # every window of a run has its successor: a run whose last window
    # would have none is refused before it starts
    last = small_store.prime_count - 1
    with pytest.raises(CoverageError, match=f"p_{last + 2} not covered"):
        run_many(["gap-next"], small_store, 1, last)


def test_checkpoint_keeps_no_note_of_its_finalize(monkeypatch, small_store):
    """A finalize that raises notes its error on the report, not on the
    checkpoint returned with it: a run resumed from that checkpoint notes the
    error once, as a single run does."""
    import dataclasses

    def finalize(st, extra):
        raise RuntimeError("injected finalize")

    reg = registry()
    monkeypatch.setitem(reg, "trend-mu", dataclasses.replace(reg["trend-mu"],
                                                             finalize=finalize))
    first, cp = run_many(["trend-mu"], small_store, 1, 100)
    assert first["trend-mu"].notes == ["finalize error: RuntimeError('injected finalize')"]
    assert cp["per"]["trend-mu"]["notes"] == [] and cp["per"]["trend-mu"]["error"] is None
    resumed = run_many(["trend-mu"], small_store, 101, 200,
                       resume=json.loads(json.dumps(cp)))[0]["trend-mu"]
    single = run_many(["trend-mu"], small_store, 1, 200)[0]["trend-mu"]
    assert resumed.to_json() == single.to_json()
    assert resumed.notes.count("finalize error: RuntimeError('injected finalize')") == 1


def test_resume_leaves_its_checkpoint_as_it_was(small_store):
    """run_many only reads the checkpoint it resumes from: it is unchanged
    after the run, and a second resume from the same dict reports what the
    first did and what a single run does."""
    ids = ["survey-dsq-p", "twin-913", "fixedgap-mono"]
    _, cp = run_many(ids, small_store, 1, 100)
    before = json.dumps(cp, sort_keys=True)
    once = _run_json(ids, small_store, 101, 300, resume=cp)
    assert json.dumps(cp, sort_keys=True) == before
    assert _run_json(ids, small_store, 101, 300, resume=cp) == once
    assert once == _run_json(ids, small_store, 1, 300)


def _scribble(obj) -> None:
    """Edit every list and dict inside obj, obj included."""
    if isinstance(obj, list):
        for x in obj:
            _scribble(x)
        obj.append(-1)
    elif isinstance(obj, dict):
        for x in list(obj.values()):
            _scribble(x)
        obj["scribbled"] = True


def test_report_edits_leave_the_checkpoint_as_it_was(small_store):
    """The checkpoint shares no object with the reports returned with it: a
    caller that edits every list and dict of the reports, the lists a
    finalize copies from the state into extra included, leaves it as it
    was, and it still resumes to what a single run reports."""
    ids = ["survey-dsq-p", "survey-last-before-square", "twin-postulate", "twin-913"]
    reports, cp = run_many(ids, small_store, 1, 100)
    before = json.dumps(cp, sort_keys=True)
    assert all(reports[cid].extra for cid in ids[:3])
    for rep in reports.values():
        for part in (rep.witnesses, rep.violations, rep.survey, rep.extra, rep.notes):
            _scribble(part)
    assert json.dumps(cp, sort_keys=True) == before
    assert _run_json(ids, small_store, 101, 300, resume=cp) == _run_json(ids, small_store, 1, 300)


def test_prefix_claims_out_of_domain_on_cold_start(mid_store):
    """Claims over every n < m cannot be decided from a start past n = 1."""
    for cid in ("twin-95", "twin-96", "twin-910"):
        r = run_many([cid], mid_store, 100001, 101000)[0][cid]
        assert r.verdict is not Verdict.FAIL, cid
        assert r.counts.as_dict() == {"holds": 0, "fails": 0, "undecided": 0,
                                      "out_of_domain": 1000}, cid


def test_resume_ignores_old_runmin_keys(mid_store):
    """twin-95, twin-96 and twin-910 each keep only the running extremum they
    read; a checkpoint written when all three carried min, maxF and minfq
    still resumes, the keys a checker does not read left unread."""
    ids = ["twin-95", "twin-96", "twin-910"]
    single, _ = run_many(ids, mid_store, 1, 3000)
    _, cp = run_many(ids, mid_store, 1, 1234)
    assert {cid: set(cp["per"][cid]["state"]) for cid in ids} == \
        {"twin-95": {"min"}, "twin-96": {"maxF"}, "twin-910": {"min"}}
    for cid in ids:
        cp["per"][cid]["state"] = {"min": None, "maxF": None, "minfq": None,
                                   **cp["per"][cid]["state"]}
    resumed, _ = run_many(ids, mid_store, 1235, 3000, resume=json.loads(json.dumps(cp)))
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), cid


def test_resume_ignores_old_pair_samples(mid_store):
    """twin-92, twin-93 and twin-94 keep the previous and the first twin and
    a count; a checkpoint whose pair states still carry the empty "samples"
    list that no code read resumes to the reports of a single run."""
    ids = ["twin-92", "twin-93", "twin-94"]
    single, _ = run_many(ids, mid_store, 1, 3000)
    _, cp = run_many(ids, mid_store, 1, 1234)
    assert {cid: set(cp["per"][cid]["state"]) for cid in ids} == \
        {cid: {"prev", "first", "count"} for cid in ids}
    for cid in ids:
        cp["per"][cid]["state"]["samples"] = []
    resumed, _ = run_many(ids, mid_store, 1235, 3000, resume=json.loads(json.dumps(cp)))
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), cid


def test_resume_mismatch_rejected(mid_store):
    _, cp = run_many(["conj-gap-sq"], mid_store, 1, 50)
    with pytest.raises(ValueError):
        run_many(["conj-gap-sq"], mid_store, 99, 120, resume=cp)
    with pytest.raises(ValueError):
        run_many(["andrica"], mid_store, 51, 120, resume=cp)
    # a key this version does not write, as the j_prev of older checkpoints
    with pytest.raises(ValueError, match="checkpoint does not match this run"):
        run_many(["conj-gap-sq"], mid_store, 51, 120, resume=dict(cp, j_prev=0))


def test_repeated_ids_rejected(small_store):
    """A checker named twice would tally every window twice; run_many
    refuses the run, naming each repeated id once."""
    with pytest.raises(ValueError, match="more than once: gap-half,twin-95$"):
        run_many(["twin-95", "gap-half", "andrica", "gap-half", "twin-95"],
                 small_store, 1, 100)


def _malformed(cp):
    """Copies of the checkpoint cp, each broken in one field, with the
    name the refusal must give."""
    cid = cp["ids"][0]

    def tally(**kw):
        return dict(cp, per={**cp["per"], cid: {**cp["per"][cid], **kw}})

    counts = cp["per"][cid]["counts"]
    return [
        (dict(cp, next_n=str(cp["next_n"])), "next_n"),
        (dict(cp, n_lo=True), "n_lo"),
        (dict(cp, witness_cap=2.0), "witness_cap"),
        (dict(cp, ids=cid), "ids"),
        (dict(cp, ids=[cid, 7]), "ids"),
        (dict(cp, per={}), "per"),
        (tally(witnesses=None), f"per.{cid}.witnesses"),
        (tally(notes="x"), f"per.{cid}.notes"),
        (tally(counts=dict(counts, holds=str(counts["holds"]))), f"per.{cid}.counts"),
        (tally(counts=dict(counts, extra=0)), f"per.{cid}.counts"),
        # values: n_lo past next_n, a negative count (alone, and with the
        # four still summing to the windows done), counts one window off
        (dict(cp, n_lo=cp["next_n"] + 49), "n_lo"),
        (dict(cp, n_lo=0), "n_lo"),
        (tally(counts=dict(counts, holds=-5)), f"per.{cid}.counts"),
        (tally(counts=dict(counts, holds=-5, fails=counts["fails"] + counts["holds"] + 5)),
         f"per.{cid}.counts"),
        (tally(counts=dict(counts, holds=counts["holds"] + 1)), f"per.{cid}.counts"),
        (tally(state=[]), f"per.{cid}.state"),
        (tally(error=1), f"per.{cid}.error"),
        (tally(survey=[], extra=[]), f"per.{cid} is not a tally"),
    ]


def test_malformed_checkpoint_rejected(mid_store):
    """A checkpoint of the right version whose fields have the wrong shape,
    or values no run writes, is refused with a ValueError naming the field,
    before any window is read; a checkpoint that is not an object is
    refused too."""
    ids = ["gap-half", "twin-95"]
    _, cp = run_many(ids, mid_store, 1, 100)
    cp = json.loads(json.dumps(cp))
    assert check_checkpoint(cp) is cp
    for bad, field in _malformed(cp):
        with pytest.raises(ValueError, match=f"checkpoint {field}"):
            run_many(ids, mid_store, 101, 200, resume=bad)
    with pytest.raises(ValueError, match="checkpoint is not a JSON object"):
        run_many(ids, mid_store, 101, 200, resume=[cp])


def test_resume_with_other_witness_cap_rejected(mid_store):
    """The cap decides which witnesses the first part keeps, so a resume
    under another cap would not equal a single run: it is refused, naming
    the recorded cap.  A checkpoint without the key is refused."""
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
    with pytest.raises(ValueError, match="checkpoint does not match this run"):
        run_many(ids, mid_store, 1001, 2000, RunOpts(), resume=cp)


def test_resume_from_other_version_rejected(mid_store):
    """A checkpoint records the version that wrote it; a resume by another
    version is refused, naming both, and so is a checkpoint without the
    key."""
    ids = ["conj-gap-sq", "delta-gt-half", "alpha-props"]
    single, _ = run_many(ids, mid_store, 1, 600)
    _, cp = run_many(ids, mid_store, 1, 250)
    cp = json.loads(json.dumps(cp))
    assert cp["tool_version"] == __version__
    other = dict(cp, tool_version="0.0.1")
    with pytest.raises(ValueError, match=f"gapcheck 0.0.1, this is gapcheck {__version__}"):
        run_many(ids, mid_store, 251, 600, resume=other)
    resumed, _ = run_many(ids, mid_store, 251, 600, resume=cp)
    for cid in ids:
        assert resumed[cid].to_json() == single[cid].to_json(), cid
    del cp["tool_version"]
    with pytest.raises(ValueError, match="rerun the range from its start"):
        run_many(ids, mid_store, 251, 600, resume=cp)


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
    """The (prev, w, nxt) the engine sees over [n_lo, n_hi]: every window
    has both neighbours, but the one at n = 1 has no predecessor."""
    def window(n):
        if n < 1:
            return None
        return GapWindow(n, store.nth_prime(n), store.nth_prime(n + 1))

    return [Triple(window(n - 1), window(n), window(n + 1)) for n in range(n_lo, n_hi + 1)]


def _out_of_domain(spec, tri, report_lo) -> bool:
    """spec's filters exclude tri from a report that starts at report_lo,
    as recomputed straight from the spec: a from_one spec is decided only
    on a report from n = 1."""
    return (tri.w.n < spec.n_min
            or (spec.from_one and report_lo > 1)
            or (spec.domain is not None and not spec.domain(tri)))


def test_out_of_domain_counts_match_specs(small_store):
    """The engine tests n_min on windows below the run's largest n_min only;
    every checker's out_of_domain count still equals the count recomputed
    straight from its spec, from n = 1 and on a run ending on the last
    window the store can give a successor."""
    reg = registry()
    ids = sorted(reg)
    last = small_store.prime_count - 1
    for n_lo, n_hi in ((1, 12), (last - 151, last - 1)):
        reports, _ = run_many(ids, small_store, n_lo, n_hi)
        triples = _triples(small_store, n_lo, n_hi)
        for cid in ids:
            spec, rep = reg[cid], reports[cid]
            assert not any("error" in note for note in rep.notes), (cid, rep.notes)
            expected = sum(1 for tri in triples if _out_of_domain(spec, tri, n_lo))
            assert rep.counts.out_of_domain == expected, (cid, n_lo, n_hi)


# sha256 of the JSON reports of all 109 checkers over 1..3000, one line each
# in id order (the stdout of `verify --checker all --n-hi 3000 --format json`),
# recorded before the per-window quantities became shared window views
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
    r = run_many(["delta-gt-half"], small_store, 1, 1000,
                 opts=RunOpts(witness_cap=2))[0]["delta-gt-half"]
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
    r = run_many(["cor-27"], small_store, 1, 2000)[0]["cor-27"]
    assert r.verdict is Verdict.EXCEPTIONS_CONFIRMED and r.violations == [4]


def test_checker_error_counts_undecided(monkeypatch, capsys):
    """A checker that raises is the one source of Undecided: its window
    counts undecided, every later one out of domain, and the report is
    UNDECIDED_PRESENT, so `verify` exits 2.  A kernel refusal, a sign over
    three radicands raising KernelError, is reported the same way."""
    import dataclasses

    from gapcheck import cli
    from gapcheck.exact import RootExpr, cmp_root
    from gapcheck.primes import build_store

    spec = registry()["thm-35"]

    def raising(tri, st):
        if tri.w.n == 50:
            raise RuntimeError("injected")
        return spec.evaluate(tri, st)

    floor_spec = registry()["floor-31"]

    def three_radicands(tri, st):
        if tri.w.n == 70:
            cmp_root(RootExpr.sqrt(tri.w.p) + RootExpr.sqrt(tri.w.q) - RootExpr.sqrt(2))
        return floor_spec.evaluate(tri, st)

    monkeypatch.setitem(registry(), "thm-35", dataclasses.replace(spec, evaluate=raising))
    monkeypatch.setitem(registry(), "floor-31",
                        dataclasses.replace(floor_spec, evaluate=three_radicands))
    rep = run_many(["thm-35", "thm-34", "floor-31"], build_store(10 ** 4), 1, 100)[0]
    r = rep["thm-35"]
    assert (r.counts.holds, r.counts.fails, r.counts.undecided,
            r.counts.out_of_domain) == (48, 0, 1, 51)
    assert r.notes == ["checker error at n=50: RuntimeError('injected')"]
    assert r.verdict is Verdict.UNDECIDED_PRESENT
    r = rep["floor-31"]
    assert (r.counts.holds, r.counts.fails, r.counts.undecided,
            r.counts.out_of_domain) == (69, 0, 1, 30)
    assert len(r.notes) == 1 and r.notes[0].startswith("checker error at n=70: KernelError(")
    assert r.verdict is Verdict.UNDECIDED_PRESENT
    assert rep["thm-34"].verdict is Verdict.PASS
    code = cli.main(["verify", "--checker", "thm-34,thm-35", "--n-hi", "100"])
    assert code == cli.EXIT_UNDECIDED == 2
    assert "thm-35" in capsys.readouterr().out


def test_partitioned_runs_merge_to_one_run(mid_store, catalog_1500):
    """Each checker asks its own domain, so neither a run's id order nor a
    checker's companions may move its tally.  For seeded random permutations
    and partitions of the catalog, the parts' reports and checkpoint `per`
    blocks, merged as a dict union, equal one run's byte for byte."""
    single, single_cp = catalog_1500
    rng = random.Random(29)
    for _ in range(6):
        ids = sorted(registry())
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, len(ids)), rng.randrange(1, 5)))
        reports, per = {}, {}
        for lo, hi in zip([0] + cuts, cuts + [len(ids)]):
            part_reports, part_cp = run_many(ids[lo:hi], mid_store, 1, 1500)
            reports.update(part_reports)
            per.update(part_cp["per"])
        assert sorted(reports) == sorted(single)
        for cid in reports:
            assert reports[cid].to_json() == single[cid].to_json(), (cuts, cid)
        assert (json.dumps(per, sort_keys=True)
                == json.dumps(single_cp["per"], sort_keys=True)), cuts


def test_shared_domain_error_isolates_its_group(monkeypatch, small_store):
    """The domain that 11 checkers share raises at n = 50, wrapped once per
    checker to see who asks: each checker of the group asks it once per
    window from its n_min through 50 and never after, notes the error and
    counts what a run of that checker alone counts, and no other report
    moves."""
    import dataclasses

    from gapcheck.checkers.catalog_parts import _straddle

    reg = registry()
    ids = sorted(reg)
    clean = run_many(ids, small_store, 1, 100)[0]
    calls = {}

    def raising(cid):
        def domain(tri):
            calls.setdefault(cid, []).append(tri.w.n)
            if tri.w.n == 50:
                raise RuntimeError("injected")
            return _straddle(tri)
        return domain

    group = [cid for cid in ids if reg[cid].domain is _straddle]
    assert len(group) == 11
    for cid in group:
        monkeypatch.setitem(reg, cid, dataclasses.replace(reg[cid], domain=raising(cid)))
    reports = run_many(ids, small_store, 1, 100)[0]
    # each member asks once per window, in n order, from its n_min through
    # the error and none after it
    assert calls == {cid: list(range(reg[cid].n_min, 51)) for cid in group}
    for cid in ids:
        r = reports[cid]
        if cid not in group:
            assert r.to_json() == clean[cid].to_json(), cid
            continue
        alone = run_many([cid], small_store, 1, 100)[0][cid]
        assert r.to_json() == alone.to_json(), cid
        assert r.notes[-1:] == ["checker error at n=50: RuntimeError('injected')"], cid
        assert r.counts.undecided == 1 and r.counts.out_of_domain >= 50, cid
        assert r.verdict is Verdict.UNDECIDED_PRESENT or r.counts.fails, cid



def _run_json(ids, store, n_lo, n_hi, resume=None):
    """run_many's reports as JSON lines in id order, and its checkpoint as
    JSON: the bytes `verify --format json` and a manifest would hold."""
    reports, cp = run_many(ids, store, n_lo, n_hi, resume=resume)
    return ([reports[cid].to_json() for cid in ids],
            json.dumps(cp, sort_keys=True))


@pytest.fixture(scope="module")
def far_store():
    """A sieve holding p_{1000302}, near 1.55e7."""
    return build_store(2 * 10 ** 7)


_BLOCK_RANGES = [(1, 3000), (1000000, 1000300)]


@pytest.fixture(scope="module")
def default_block_runs(mid_store, far_store):
    """The whole catalog over each of _BLOCK_RANGES at the default block
    size, with the store it ran on."""
    ids = sorted(registry())
    return {(n_lo, n_hi): (store, _run_json(ids, store, n_lo, n_hi))
            for (n_lo, n_hi), store in zip(_BLOCK_RANGES, (mid_store, far_store))}


@pytest.mark.parametrize("block", [1, 2, 7, engine.BLOCK])
@pytest.mark.parametrize("n_lo, n_hi", _BLOCK_RANGES)
def test_block_size_does_not_move_a_byte(monkeypatch, default_block_runs,
                                         block, n_lo, n_hi):
    """The whole catalog in one run, and resumed from a split that ends the
    first run on a block edge and from one inside a block: each run's
    report JSON and checkpoint equal those of one run at the default block
    size, whatever the block size."""
    ids = sorted(registry())
    store, single = default_block_runs[n_lo, n_hi]
    monkeypatch.setattr(engine, "BLOCK", block)
    assert _run_json(ids, store, n_lo, n_hi) == single
    edge = n_lo + 3 * block - 1            # the first run ends a block
    inside = edge + (block + 1) // 2       # ... or stops inside one
    for split in sorted({edge, inside}):
        _, cp = run_many(ids, store, n_lo, split)
        assert _run_json(ids, store, split + 1, n_hi,
                         resume=json.loads(json.dumps(cp))) == single, (block, split)


@pytest.mark.parametrize("at", ["inside", "edge", "after_edge"])
def test_errors_at_block_edges(monkeypatch, small_store, at):
    """A shared domain and one checker's evaluate raise at n = BLOCK / 2,
    BLOCK or BLOCK + 1: each checker that reaches the window reports what a
    run of it alone reports, and counts what its run up to the window before
    counts, plus one undecided and every later window out of domain, across
    the block edge too.  No other report moves."""
    import dataclasses

    from gapcheck.checkers.catalog_parts import _straddle

    e = {"inside": engine.BLOCK // 2, "edge": engine.BLOCK,
         "after_edge": engine.BLOCK + 1}[at]
    n_hi = 3 * engine.BLOCK
    reg = registry()
    ids = sorted(reg)
    clean = run_many(ids, small_store, 1, n_hi)[0]
    prefix = run_many(ids, small_store, 1, e - 1)[0]

    def domain(tri):
        if tri.w.n == e:
            raise RuntimeError("injected domain")
        return _straddle(tri)

    spec = reg["thm-35"]

    def evaluate(tri, st):
        if tri.w.n == e:
            raise RuntimeError("injected evaluate")
        return spec.evaluate(tri, st)

    group = [cid for cid in ids if reg[cid].domain is _straddle]
    for cid in group:
        monkeypatch.setitem(reg, cid, dataclasses.replace(reg[cid], domain=domain))
    monkeypatch.setitem(reg, "thm-35", dataclasses.replace(spec, evaluate=evaluate))
    reports = run_many(ids, small_store, 1, n_hi)[0]
    hit = {cid: "domain" for cid in group if reg[cid].n_min <= e}
    hit["thm-35"] = "evaluate"
    assert len(hit) == 12
    for cid in ids:
        r = reports[cid]
        if cid not in hit:
            assert r.to_json() == clean[cid].to_json(), cid
            continue
        assert r.to_json() == run_many([cid], small_store, 1, n_hi)[0][cid].to_json(), cid
        assert r.notes[-1:] == [f"checker error at n={e}: "
                                f"RuntimeError('injected {hit[cid]}')"], cid
        c, before = r.counts, prefix[cid].counts
        assert (c.holds, c.fails, c.undecided, c.out_of_domain) == (
            before.holds, before.fails, before.undecided + 1,
            before.out_of_domain + n_hi - e), cid
        assert r.verdict is Verdict.UNDECIDED_PRESENT or c.fails, cid

# -- which claims need primes --------------------------------------------------
#
# A random integer window is a pair of non-square integers p < q with
# isqrt(q) <= isqrt(p) + 1; primality is not asked (oracles.random_chain).
# A claim that no such window fails is an identity or inequality of
# sqrt(p), sqrt(q), N and h, so over primes it tests arithmetic, not the
# primes.  Only claims are classified: SURVEY and TREND checkers collect.

# stateless claims drawn per p range (the first range holds most of the
# small-N cases that fail) and stateful claims' random sequences per range
_STATELESS_DRAWS = (12000, 1500, 1500)
_SEQUENCES, _SEQUENCE_LENGTH = 100, 24

# the claims no sampled window fails: 26 stateless, then eight stateful
# ones.  Of these eight, alpha-props, twin-98 and twin-913 hold only on
# short chains: they fail past a long stretch without a twin window (p
# about four times the last twin's) or on two twin windows under one
# square with N <= 8 (10, 12 and 13, 15), which short random chains miss
_GENERIC = frozenset({
    "dnh-forms", "dpar-57", "dpar-58", "dpar-59", "eq-15-1", "eq-15-2",
    "eq-15-3", "eq-15-4", "eq-28-3", "eq-61", "even-76", "ids-510", "ids-512",
    "ids-514", "ids-515", "inv-diff", "mu-bounds", "mu-series", "odd-713",
    "par-51", "par-52", "par-53", "par-54", "prop-212", "sq-in-gap", "thm-43",
    "alpha-props", "fixedgap-mono", "twin-913", "twin-92", "twin-93",
    "twin-94", "twin-96", "twin-98",
})

# for each stateless claim outside _GENERIC, the first sampled chain
# p0 < p < q < q1 whose middle window (p, q), at n = 1000, fails it
_FAILS_AT = {
    "andrica": (30, 31, 48, 62),
    "chain-37": (1569, 1601, 1661, 1676),
    "conj-gap-sq": (1569, 1601, 1661, 1676),
    "conj-gap-sq2": (1569, 1601, 1661, 1676),
    "cor-12": (1569, 1601, 1661, 1676),
    "cor-13": (152, 180, 200, 201),
    "cor-14": (30, 31, 48, 62),
    "cor-26": (1569, 1601, 1661, 1676),
    "cor-27": (1569, 1601, 1661, 1676),
    "cor-36": (972, 1021, 1022, 1050),
    "cor-56": (972, 1021, 1022, 1050),
    "cor-62": (626, 658, 709, 714),
    "cor-64": (365, 389, 427, 456),
    "cor-67": (853, 854, 924, 1003),
    "eq-16-1": (972, 1021, 1022, 1050),
    "eq-16-2": (972, 1021, 1022, 1050),
    "eq-16-3": (1450, 1474, 1529, 1627),
    "eq-28-1": (23, 34, 35, 39),
    "eq-28-2": (463, 474, 498, 506),
    "eq-64": (1349, 1368, 1389, 1420),
    "eq-qr": (972, 1021, 1022, 1050),
    "even-72": (11, 18, 24, 29),
    "even-73": (326, 328, 346, 374),
    "even-74": (326, 328, 346, 374),
    "even-75": (1569, 1601, 1661, 1676),
    "even-77": (1569, 1601, 1661, 1676),
    "ext-63": (365, 389, 427, 456),
    "first-after-square": (23, 34, 35, 39),
    "floor-31": (30, 31, 48, 62),
    "floor-32": (853, 854, 924, 1003),
    "frac-33": (972, 1021, 1022, 1050),
    "gap-85": (626, 658, 709, 714),
    "gap-half": (30, 31, 48, 62),
    "gap-next": (8, 10, 17, 28),
    "gap-transfer": (1569, 1601, 1661, 1676),
    "h-def": (23, 34, 35, 39),
    "ids-511": (972, 1021, 1022, 1050),
    "ids-513": (1839, 1931, 1986, 2035),
    "ids-516": (626, 658, 709, 714),
    "ishikawa-plus": (1851, 1853, 1854, 1993),
    "lemma-42": (30, 31, 48, 62),
    "max-gap-61": (626, 658, 709, 714),
    "mono-55": (23, 34, 35, 39),
    "odd-710": (363, 364, 382, 384),
    "odd-711": (372, 373, 393, 395),
    "odd-712": (372, 373, 393, 395),
    "odd-79": (10, 12, 14, 24),
    "ratio-53": (13, 14, 24, 31),
    "ratio-frac": (21, 26, 43, 48),
    "ratio-sqrt": (30, 31, 48, 62),
    "same-71": (1569, 1601, 1661, 1676),
    "straddle-65": (1839, 1931, 1986, 2035),
    "straddle-66": (1839, 1931, 1986, 2035),
    "thm-34": (972, 1021, 1022, 1050),
    "thm-35": (972, 1021, 1022, 1050),
    "thm-78": (92, 105, 119, 120),
    "twin-91": (972, 1021, 1022, 1050),
    "twin-sq": (611, 675, 677, 679),
}


def _chain_triples(chain, n0) -> list:
    """The (prev, w, nxt) triples of the windows of chain, numbered from n0."""
    ws = [GapWindow(n0 + i, p, q) for i, (p, q) in enumerate(zip(chain, chain[1:]))]
    return [Triple(ws[i - 1] if i else None, w, ws[i + 1] if i + 1 < len(ws) else None)
            for i, w in enumerate(ws)]


def _fails(spec, tri, state) -> bool:
    """tri has the neighbours spec's code reads, is in spec's domain, and
    spec's evaluate fails on it."""
    return (not (tri.prev is None and reads(spec, "prev"))
            and not (tri.nxt is None and reads(spec, "nxt"))
            and not _out_of_domain(spec, tri, 1)
            and spec.evaluate(tri, state).res in ("violate", "hard"))


def _first_failures(claims, seed) -> dict:
    """claim id -> the first random chain that fails it.  A stateless claim
    sees the middle window (n = 1000) of chains p0 < p < q < q1; a stateful
    one sees every window of a chain, from n = 1000."""
    rng = random.Random(seed)
    found = {}
    for (lo, hi), draws in zip(RANDOM_RANGES, _STATELESS_DRAWS):
        for _ in range(draws):
            chain = random_chain(rng, lo, hi, 3)
            tri = _chain_triples(chain, 999)[1]
            for cid, spec in claims.items():
                if not spec.state_init and cid not in found and _fails(spec, tri, {}):
                    found[cid] = tuple(chain)
        for _ in range(_SEQUENCES):
            chain = random_chain(rng, lo, hi, _SEQUENCE_LENGTH)
            tris = _chain_triples(chain, 1000)
            for cid, spec in claims.items():
                if spec.state_init and cid not in found:
                    state = spec.state_init()
                    if any(_fails(spec, tri, state) for tri in tris):
                        found[cid] = tuple(chain)
    return found


def test_generic_classification():
    """Seeded random integer windows over p in 5..2000, 1e4..1e7 and
    1e11..1e12 fail every claim outside _GENERIC and none inside it; each
    stateless claim outside fails on its pinned chain.  A claim that crosses
    from one group to the other fails this test."""
    claims = {cid: spec for cid, spec in registry().items()
              if spec.kind not in (Kind.SURVEY, Kind.TREND)}
    found = _first_failures(claims, seed=1)
    assert sorted(set(claims) - set(found)) == sorted(_GENERIC)
    stateless = {cid for cid, spec in claims.items() if not spec.state_init}
    assert sorted(_FAILS_AT) == sorted(stateless - _GENERIC)
    for cid, chain in _FAILS_AT.items():
        assert all(isqrt(x) ** 2 != x for x in chain), cid
        assert _fails(claims[cid], _chain_triples(chain, 999)[1], {}), cid
