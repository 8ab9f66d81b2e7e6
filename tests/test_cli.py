import hashlib
import json
import subprocess
import sys

import pytest

from gapcheck import cli, primes

BASE = [sys.executable, "-m", "gapcheck.cli"]


def run(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_list_prints_catalog():
    r = run("list")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) >= 70
    assert any(line.startswith("conj-gap-sq ") for line in lines)


# sha256 of the stdout of `list`: the id, kind, source and title of each of
# the 109 checkers
LIST_SHA256 = "07363ee1a7a1a8fa0c0281a3e3d15893311611a71b890a68821741a82eb59682"


def test_list_output_pinned():
    r = run("list")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == LIST_SHA256


def test_verify_exception_set_exit_zero():
    r = run("verify", "--checker", "conj-gap-sq", "--n-hi", "1000")
    assert r.returncode == 0
    assert "EXCEPTIONS_CONFIRMED" in r.stdout
    assert "[4, 9, 30]" in r.stdout


def test_verify_json_schema():
    r = run("verify", "--checker", "delta-gt-half", "--n-hi", "500", "--format", "json")
    assert r.returncode == 0
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["id"] == "delta-gt-half"
    assert rec["range"] == [1, 500]
    assert rec["survey"] == [2, 4, 6, 9, 11, 30]


def test_verify_csv_format():
    r = run("verify", "--checker", "gap-half", "--n-hi", "300", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("id,verdict,holds")
    assert lines[1].startswith("gap-half,EXCEPTIONS_CONFIRMED")


def test_verify_usage_error():
    r = run("verify", "--checker", "not-a-checker", "--n-hi", "100")
    assert r.returncode == 3
    for n_lo, n_hi in (("0", "5"), ("10", "9"), ("10", "8")):
        r = run("verify", "--checker", "gap-half", "--n-lo", n_lo, "--n-hi", n_hi)
        assert r.returncode == 3 and r.stdout == "", (n_lo, n_hi)
        assert "need 1 <= n_lo <= n_hi" in r.stderr, (n_lo, n_hi)


def test_verify_repeated_checker_exits_3():
    """A checker named twice would count every window twice: gap-half twice
    reported its witnesses twice, twin-95 twice failed claims that hold."""
    for ids in ("gap-half,gap-half", "twin-95,twin-95", "andrica,gap-half,andrica"):
        r = run("verify", "--checker", ids, "--n-hi", "100", "--format", "json")
        assert r.returncode == 3 and r.stdout == "", ids
        assert "more than once" in r.stderr and ids.split(",")[0] in r.stderr, ids


def test_verify_empty_checker_id_exits_3():
    """An empty id in --checker is named as such, not as an unknown id with
    no name."""
    for ids in ("", "thm-35,", ",gap-half", "gap-half,,andrica"):
        r = run("verify", "--checker", ids, "--n-hi", "100")
        assert r.returncode == 3 and r.stdout == "", ids
        assert "empty checker id" in r.stderr and "unknown" not in r.stderr, ids


def test_verify_negative_witnesses_exits_3():
    """A negative cap would keep no witness in a FAIL report; 0 means
    unlimited."""
    r = run("verify", "--checker", "gap-half", "--n-hi", "300", "--witnesses", "-1")
    assert r.returncode == 3 and r.stdout == ""
    assert "--witnesses" in r.stderr


def _main(capsys, *args):
    """cli.main in process: (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_store_must_hold_the_window_after_the_range(monkeypatch, capsys):
    """p_1229 is the last prime below 10000: on a 10000 sieve the window
    after n_hi = 1228 needs p_1230, so that run exits 3 naming it, and
    n_hi = 1227 runs.  The command sizes its sieve past p_{n_hi+2}, so the
    undersized sieve is put in by hand."""
    monkeypatch.setattr(cli, "limit_for_index", lambda n: 10000)
    code, out, err = _main(capsys, "verify", "--checker", "gap-next", "--n-hi", "1228")
    assert code == 3 and out == ""
    assert "p_1230 not covered by store limit 10000" in err
    code, out, err = _main(capsys, "verify", "--checker", "gap-next", "--n-hi", "1227")
    assert code == 0
    assert "PASS" in out


def test_unknown_command_usage_error():
    r = run("frobnicate")
    assert r.returncode == 3


def test_windows_dump():
    r = run("windows", "--n-hi", "4")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "n,p,q,d,N,h,hq,s,k,r,j"
    assert lines[1] == "1,2,3,1,1,1,2,2,,,0"


def test_windows_bad_range_or_small_store_writes_nothing(monkeypatch, capsys):
    """A bad range or a store without p_{n_hi+1} exits 3 before the CSV
    header is written, so stdout stays empty.  The command sizes its sieve
    past p_{n_hi+2}, so the undersized sieve is put in by hand."""
    r = run("windows", "--n-hi", "0")
    assert r.returncode == 3 and r.stdout == ""
    assert "need 1 <= n_lo <= n_hi" in r.stderr
    monkeypatch.setattr(cli, "limit_for_index", lambda n: 100)
    code, out, err = _main(capsys, "windows", "--n-hi", "2000")
    assert code == 3 and out == ""
    assert "p_2001 not covered by store limit 100" in err


def test_accum_first_row():
    r = run("accum", "--r", "1/3", "--sign", "+", "--n-max", "1000")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "N,p,mu,abs_err"
    assert lines[1].startswith("6,41,")


def test_accum_end_targets_name_the_families():
    for target, family in (("0/1", "--family h_fixed"), ("1/1", "--family top_family")):
        r = run("accum", "--r", target, "--sign", "+", "--n-max", "100")
        assert r.returncode == 3
        assert r.stdout == ""
        assert family in r.stderr and "special_scans" not in r.stderr


def test_accum_past_two_to_64_exits_3():
    for args in (("--r", "1/2"), ("--family", "top_family")):
        r = run("accum", *args, "--n-max", str(2 ** 32))
        assert r.returncode == 3
        assert r.stdout == ""
        assert "2^64" in r.stderr


def test_accum_n_max_below_one_exits_3():
    """A scan with no N exits 3 with a message and no CSV header, as the
    window commands do on an empty range."""
    for args in (("--r", "1/3"), ("--r", "1/3", "--sign", "-"), ("--family", "h_fixed"),
                 ("--family", "near_half_minus")):
        for n_max in ("-1", "0"):
            r = run("accum", *args, "--n-max", n_max)
            assert r.returncode == 3 and r.stdout == "", (args, n_max)
            assert "--n-max must be at least 1" in r.stderr, (args, n_max)
    r = run("accum", "--r", "1/3", "--n-max", "1")
    assert r.returncode == 0 and r.stdout.splitlines() == ["N,p,mu,abs_err"]


def test_accum_h_checked():
    for h in ("-3", "0"):
        r = run("accum", "--family", "h_fixed", "--h", h, "--n-max", "10")
        assert r.returncode == 3
        assert r.stdout == ""
        assert "--h" in r.stderr and "is_prime_u64" not in r.stderr
    for args in (("--family", "top_family"), ("--r", "1/3")):
        r = run("accum", *args, "--h", "2", "--n-max", "10")
        assert r.returncode == 3
        assert r.stdout == ""
        assert "--h applies only to --family h_fixed" in r.stderr
    default = run("accum", "--family", "h_fixed", "--n-max", "100")
    assert default.returncode == 0
    assert run("accum", "--family", "h_fixed", "--h", "1", "--n-max", "100").stdout == default.stdout


def test_accum_family_refuses_target_options():
    """A family scan fixes its own polynomial: --r, --sign or --c next to
    --family exits 3 naming the option, where it used to print the plain
    family scan."""
    for args in (("--r", "2/5"), ("--sign", "-"), ("--sign", "+"), ("--c", "9"),
                 ("--r", "2/5", "--c", "9", "--sign", "-")):
        r = run("accum", "--family", "h_fixed", *args, "--n-max", "100")
        assert r.returncode == 3 and r.stdout == "", args
        assert f"{args[0]} does not apply to --family" in r.stderr, args
    r = run("accum", "--r", "1/3", "--sign", "+", "--c", "1", "--n-max", "1000")
    assert r.returncode == 0
    assert r.stdout == run("accum", "--n-max", "1000").stdout


def test_squares_csv_and_exit():
    r = run("squares", "--n-hi", "40")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("N,count,oppermann")


def test_twins_exit_and_csv():
    r = run("twins", "--n-hi", "50")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("n,j_n,A_n,B_n")


def test_powers_jsonl():
    r = run("powers", "--k", "5", "--n-hi", "3")
    assert r.returncode == 0
    rows = [json.loads(line) for line in r.stdout.splitlines()]
    assert rows[0]["total"] == 11
    assert rows[1]["total"] == 42


def test_squares_and_powers_bad_range_print_nothing():
    """An empty or inverted range exits 3 with the range message before any
    row is printed, as `windows` and `verify` do."""
    for args in (("squares", "--n-lo", "10", "--n-hi", "5"),
                 ("squares", "--n-hi", "1"),
                 ("squares", "--n-lo", "0", "--n-hi", "5"),
                 ("powers", "--k", "3", "--n-hi", "0"),
                 ("powers", "--k", "-1", "--n-hi", "-1")):
        r = run(*args)
        assert r.returncode == 3 and r.stdout == "", args
        assert "need 1 <= n_lo <= n_hi" in r.stderr, args


def test_powers_bad_k_prints_nothing():
    """k below 2 or with 2^k past the 1e8 budget exits 3 with a message.
    The sieve size raises n_hi + 1 to at most the budget's bit length, so a
    huge k costs no huge power."""
    for k, message in (("1", "k >= 2 required"), ("-1", "k >= 2 required"),
                       ("27", "store must cover 2^k"),
                       ("1000000", "store must cover 2^k")):
        r = run("powers", "--k", k, "--n-hi", "1000000")
        assert r.returncode == 3 and r.stdout == "", k
        assert message in r.stderr, k


class _Sized(Exception):
    """Raised by the build_store spy, so no sieve is built."""


# each command's sieve limit, derived from its range
SIEVE_LIMITS = [
    (("verify", "--checker", "gap-half", "--n-hi", "3"), 1000),
    (("verify", "--checker", "gap-half", "--n-hi", "100"), 10 ** 4),
    (("verify", "--checker", "gap-half"), cli.limit_for_index(1000)),
    (("verify", "--n-hi", "1000000"), cli.limit_for_index(10 ** 6)),
    (("twins", "--n-hi", "50"), 10 ** 4),
    (("twins", "--n-hi", "20000"), cli.limit_for_index(20000)),
    (("windows", "--n-hi", "4"), 1000),
    (("windows", "--n-lo", "5000", "--n-hi", "9000"), cli.limit_for_index(9000)),
    (("squares", "--n-hi", "40"), 41 ** 2 + 10),
    (("squares", "--n-lo", "9000", "--n-hi", "9998"), 9999 ** 2 + 10),
    (("powers", "--k", "5", "--n-hi", "10"), 2 ** 20),
    (("powers", "--k", "3", "--n-hi", "460"), 461 ** 3),
    (("powers", "--k", "2", "--n-hi", "20000"), 10 ** 8),
    (("powers", "--k", "13", "--n-hi", "4"), 10 ** 8),
    (("powers", "--k", "1000000", "--n-hi", "1"), 10 ** 8),
]


def test_each_command_sizes_its_sieve_from_its_range(monkeypatch, small_store):
    """verify, twins and windows sieve to limit_for_index(n_hi), which holds
    p_{n_hi+2}; squares to (n_hi + 1)^2 + 10; powers to (n_hi + 1)^k, at
    least 2^20 for the ladder and at most the 1e8 budget."""
    limits = []

    def spy(limit):
        limits.append(limit)
        raise _Sized

    monkeypatch.setattr(cli, "build_store", spy)
    for args, limit in SIEVE_LIMITS:
        with pytest.raises(_Sized):
            cli.main(list(args))
        assert limits.pop() == limit, args
    assert limits == []
    for n in (1, 5, 6, 7, 100, 1228, 9590):
        assert small_store.nth_prime(n + 2) <= cli.limit_for_index(n), n


def test_limit_option_is_gone(capsys):
    """No command takes a sieve limit: --limit exits 3 with nothing on
    stdout, and no --help lists it."""
    for args in (("verify",), ("squares",), ("powers", "--k", "3"), ("twins",),
                 ("windows",)):
        code, out, err = _main(capsys, *args, "--n-hi", "10", "--limit", "100000")
        assert code == 3 and out == "", args
        assert "unrecognized arguments: --limit 100000" in err, args
        code, out, _ = _main(capsys, args[0], "--help")
        assert code == 0 and "--n-hi" in out and "--limit" not in out, args


def test_verify_past_the_sieve_cap_exits_3_before_sieving(monkeypatch, capsys):
    """n_hi = 1e9 needs p_{n_hi+2} near 2.3e10, and its sieve would pass the
    2^34 cap: the run exits 3 with the CapacityError message before it sieves
    the base primes."""
    def no_sieve(n):
        raise AssertionError("sieved")

    monkeypatch.setattr(primes, "_small_sieve", no_sieve)
    code, out, err = _main(capsys, "verify", "--n-hi", "1000000000")
    assert code == 3 and out == ""
    assert f"limit {cli.limit_for_index(10 ** 9)} exceeds budget {primes.LIMIT_CAP}" in err



@pytest.mark.parametrize("command", ["verify", "twins", "windows"])
def test_index_past_float_range_exits_3_before_sieving(monkeypatch, capsys, command):
    """An n_hi of 401 digits is past what a float holds: verify, twins and
    windows still size a sieve for it, an integer bound on p_{n_hi+2}, and
    exit 3 with the CapacityError message before they sieve anything."""
    def no_sieve(n):
        raise AssertionError("sieved")

    monkeypatch.setattr(primes, "_small_sieve", no_sieve)
    code, out, err = _main(capsys, command, "--n-hi", str(10 ** 400))
    assert code == 3 and out == ""
    assert f"exceeds budget {primes.LIMIT_CAP}" in err

def test_manifest_resume_identical(tmp_path):
    m = tmp_path / "m.json"
    r1 = run("verify", "--checker", "conj-gap-sq,twin-95", "--n-hi", "400",
             "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    manifest = json.loads(m.read_text())
    assert manifest["tool_version"]
    assert manifest["checkpoint"]["next_n"] == 401
    r2 = run("verify", "--resume", str(m), "--n-hi", "900", "--format", "json")
    r3 = run("verify", "--checker", "conj-gap-sq,twin-95", "--n-hi", "900",
             "--format", "json")
    assert r2.returncode == 0 and r3.returncode == 0
    assert r2.stdout == r3.stdout


def test_resume_with_other_witnesses_exits_3(tmp_path):
    """A manifest written under --witnesses 2 resumes only under the same
    cap; another cap ends with exit 3 and a message naming the recorded one."""
    m = tmp_path / "m.json"
    ids = "conj-gap-sq,delta-gt-half"
    r1 = run("verify", "--checker", ids, "--n-hi", "1000",
             "--witnesses", "2", "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    r2 = run("verify", "--resume", str(m), "--n-hi", "2000",
             "--witnesses", "0", "--format", "json")
    assert r2.returncode == 3 and r2.stdout == ""
    assert "witness cap 2" in r2.stderr
    r3 = run("verify", "--resume", str(m), "--n-hi", "2000",
             "--witnesses", "2", "--format", "json")
    r4 = run("verify", "--checker", ids, "--n-hi", "2000",
             "--witnesses", "2", "--format", "json")
    assert r3.returncode == 0 and r4.returncode == 0
    assert r3.stdout == r4.stdout


def test_resume_from_other_version_exits_3(tmp_path):
    """A manifest whose checkpoint another version wrote ends with exit 3
    and a message naming both versions, and so does one without the key."""
    m = tmp_path / "m.json"
    ids = "conj-gap-sq,delta-gt-half"
    r1 = run("verify", "--checker", ids, "--n-hi", "400",
             "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    manifest = json.loads(m.read_text())
    version = manifest["checkpoint"]["tool_version"]
    assert version == manifest["tool_version"]
    manifest["checkpoint"]["tool_version"] = "0.0.1"
    m.write_text(json.dumps(manifest))
    r2 = run("verify", "--resume", str(m), "--n-hi", "900", "--format", "json")
    assert r2.returncode == 3 and r2.stdout == ""
    assert "0.0.1" in r2.stderr and version in r2.stderr
    del manifest["checkpoint"]["tool_version"]
    m.write_text(json.dumps(manifest))
    r3 = run("verify", "--resume", str(m), "--n-hi", "900", "--format", "json")
    assert r3.returncode == 3 and r3.stdout == ""
    assert "rerun the range from its start" in r3.stderr


@pytest.fixture(scope="module")
def gap_half_manifest(tmp_path_factory):
    """The manifest of `verify --checker gap-half --n-hi 100`."""
    m = tmp_path_factory.mktemp("manifest") / "m.json"
    r = run("verify", "--checker", "gap-half", "--n-hi", "100",
            "--manifest-out", str(m), "--format", "json")
    assert r.returncode == 0
    return json.loads(m.read_text())


def _next_n_text(cp):
    cp["next_n"] = str(cp["next_n"])
    return cp


def _checkpoint_list(cp):
    return [cp]


def _witnesses_null(cp):
    cp["per"]["gap-half"]["witnesses"] = None
    return cp


def _holds_text(cp):
    cp["per"]["gap-half"]["counts"]["holds"] = "3"
    return cp


def _n_lo_past_next_n(cp):
    cp["n_lo"] = 150   # next_n is 101
    return cp


def _holds_negative(cp):
    cp["per"]["gap-half"]["counts"]["holds"] = -5
    return cp


@pytest.mark.parametrize("breaks, field", [
    (_next_n_text, "next_n"),
    (_checkpoint_list, "checkpoint is not a JSON object"),
    (_witnesses_null, "per.gap-half.witnesses"),
    (_holds_text, "per.gap-half.counts"),
    (_n_lo_past_next_n, "checkpoint n_lo"),
    (_holds_negative, "per.gap-half.counts"),
])
def test_resume_malformed_manifest_exits_3(tmp_path, gap_half_manifest, breaks, field):
    """A checkpoint whose shape or values are wrong ends with exit 3 and a
    message naming the field, not with a traceback and not as Undecided."""
    manifest = json.loads(json.dumps(gap_half_manifest))
    manifest["checkpoint"] = breaks(manifest["checkpoint"])
    m = tmp_path / "m.json"
    m.write_text(json.dumps(manifest))
    r = run("verify", "--resume", str(m), "--n-hi", "200", "--format", "json")
    assert r.returncode == 3 and r.stdout == ""
    assert field in r.stderr and "Traceback" not in r.stderr


def test_resume_refuses_checker_and_n_lo(tmp_path, gap_half_manifest):
    """A checkpoint fixes its checkers and its start: --checker or --n-lo
    next to --resume exits 3 naming the option, where the run used to report
    the checkpoint's checkers from its own start."""
    m = tmp_path / "m.json"
    m.write_text(json.dumps(gap_half_manifest))
    for args in (("--checker", "thm-35"), ("--checker", "gap-half"), ("--n-lo", "7"),
                 ("--n-lo", "1"), ("--checker", "thm-35", "--n-lo", "7")):
        r = run("verify", "--resume", str(m), *args, "--n-hi", "200", "--format", "json")
        assert r.returncode == 3 and r.stdout == "", args
        assert f"{args[0]} does not apply to --resume" in r.stderr, args
    r = run("verify", "--resume", str(m), "--n-hi", "200", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["id"] == "gap-half"


def test_resume_on_the_sieve_of_the_new_n_hi(tmp_path):
    """A resumed run sizes its sieve from its own n_hi, not from the first
    run's: the two parts run on different sieves, and the resumed reports
    equal a single run's."""
    m, m2 = tmp_path / "m.json", tmp_path / "m2.json"
    ids = "conj-gap-sq,twin-95,delta-gt-half"
    r1 = run("verify", "--checker", ids, "--n-hi", "5000",
             "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    r2 = run("verify", "--resume", str(m), "--n-hi", "15000",
             "--manifest-out", str(m2), "--format", "json")
    r3 = run("verify", "--checker", ids, "--n-hi", "15000", "--format", "json")
    assert r2.returncode == 0 and r3.returncode == 0
    assert r2.stdout == r3.stdout
    limits = [json.loads(f.read_text())["store_limit"] for f in (m, m2)]
    assert limits == [cli.limit_for_index(5000), cli.limit_for_index(15000)]


def test_resume_thm78_near_sieve_edge(tmp_path, monkeypatch, capsys):
    """A thm-78 run that ends a few windows before the edge of a 1e5 sieve
    resumes on a larger sieve and equals a single run there.  The command
    sizes its sieve well past p_{n_hi+2}, so the 1e5 sieve of the first
    part is put in by hand."""
    m = tmp_path / "m.json"
    with monkeypatch.context() as mp:
        mp.setattr(cli, "limit_for_index", lambda n: 10 ** 5)
        code, _, _ = _main(capsys, "verify", "--checker", "thm-78", "--n-hi", "9585",
                           "--manifest-out", str(m), "--format", "json")
    assert code == 0
    assert json.loads(m.read_text())["store_limit"] == 10 ** 5
    code, resumed, _ = _main(capsys, "verify", "--resume", str(m), "--n-hi", "15000",
                             "--format", "json")
    assert code == 0
    code, single, _ = _main(capsys, "verify", "--checker", "thm-78", "--n-hi", "15000",
                            "--format", "json")
    assert code == 0
    assert resumed == single


def test_rerun_manifest_reproduces_digests(tmp_path):
    m1, m2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--checker", "andrica,gap-85", "--n-hi", "600", "--format", "json")
    run(*args, "--manifest-out", str(m1))
    run(*args, "--manifest-out", str(m2))
    d1 = json.loads(m1.read_text())
    d2 = json.loads(m2.read_text())
    assert d1["digests"] == d2["digests"]


def test_manifest_records_the_parsed_command(tmp_path, capsys):
    """cli.main called in process records the argv it parsed, not the host
    process's sys.argv."""
    m = tmp_path / "m.json"
    args = ["verify", "--checker", "gap-half", "--n-hi", "100", "--manifest-out", str(m)]
    code, _, _ = _main(capsys, *args)
    assert code == 0
    assert json.loads(m.read_text())["command"] == " ".join(args)
