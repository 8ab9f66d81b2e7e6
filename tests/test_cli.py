import json
import subprocess
import sys

BASE = [sys.executable, "-m", "gapcheck.cli"]


def run(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_list_prints_catalog():
    r = run("list")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) >= 70
    assert any(line.startswith("conj-gap-sq ") for line in lines)


def test_verify_exception_set_exit_zero():
    r = run("verify", "--checker", "conj-gap-sq", "--n-hi", "1000",
            "--limit", "100000")
    assert r.returncode == 0
    assert "EXCEPTIONS_CONFIRMED" in r.stdout
    assert "[4, 9, 30]" in r.stdout


def test_verify_json_schema():
    r = run("verify", "--checker", "delta-gt-half", "--n-hi", "500",
            "--limit", "100000", "--format", "json")
    assert r.returncode == 0
    rec = json.loads(r.stdout.splitlines()[0])
    assert rec["id"] == "delta-gt-half"
    assert rec["range"] == [1, 500]
    assert rec["survey"] == [2, 4, 6, 9, 11, 30]


def test_verify_csv_format():
    r = run("verify", "--checker", "gap-half", "--n-hi", "300",
            "--limit", "100000", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("id,verdict,holds")
    assert lines[1].startswith("gap-half,EXCEPTIONS_CONFIRMED")


def test_verify_usage_error():
    r = run("verify", "--checker", "not-a-checker", "--n-hi", "100",
            "--limit", "100000")
    assert r.returncode == 3


def test_unknown_command_usage_error():
    r = run("frobnicate")
    assert r.returncode == 3


def test_windows_dump():
    r = run("windows", "--n-hi", "4", "--limit", "1000")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "n,p,q,d,N,h,hq,s,k,r,j"
    assert lines[1] == "1,2,3,1,1,1,2,2,,,0"


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


def test_squares_csv_and_exit():
    r = run("squares", "--n-hi", "40", "--limit", "2000")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("N,count,oppermann")


def test_twins_exit_and_csv():
    r = run("twins", "--n-hi", "50", "--limit", "100000")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("n,j_n,A_n,B_n")


def test_powers_jsonl():
    r = run("powers", "--k", "5", "--n-hi", "3", "--limit", "1100000",
            "--budget", "1100000", "--k-max-pow2", "18")
    assert r.returncode == 0
    rows = [json.loads(line) for line in r.stdout.splitlines()]
    assert rows[0]["total"] == 11
    assert rows[1]["total"] == 42


def test_manifest_resume_identical(tmp_path):
    m = tmp_path / "m.json"
    r1 = run("verify", "--checker", "conj-gap-sq,twin-95", "--n-hi", "400",
             "--limit", "100000", "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    manifest = json.loads(m.read_text())
    assert manifest["tool_version"]
    assert manifest["checkpoint"]["next_n"] == 401
    r2 = run("verify", "--resume", str(m), "--n-hi", "900",
             "--limit", "100000", "--format", "json")
    r3 = run("verify", "--checker", "conj-gap-sq,twin-95", "--n-hi", "900",
             "--limit", "100000", "--format", "json")
    assert r2.returncode == 0 and r3.returncode == 0
    assert r2.stdout == r3.stdout


def test_resume_with_other_witnesses_exits_3(tmp_path):
    """A manifest written under --witnesses 2 resumes only under the same
    cap; another cap ends with exit 3 and a message naming the recorded one."""
    m = tmp_path / "m.json"
    ids = "conj-gap-sq,delta-gt-half"
    r1 = run("verify", "--checker", ids, "--n-hi", "1000", "--limit", "100000",
             "--witnesses", "2", "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    r2 = run("verify", "--resume", str(m), "--n-hi", "2000", "--limit", "100000",
             "--witnesses", "0", "--format", "json")
    assert r2.returncode == 3 and r2.stdout == ""
    assert "witness cap 2" in r2.stderr
    r3 = run("verify", "--resume", str(m), "--n-hi", "2000", "--limit", "100000",
             "--witnesses", "2", "--format", "json")
    r4 = run("verify", "--checker", ids, "--n-hi", "2000", "--limit", "100000",
             "--witnesses", "2", "--format", "json")
    assert r3.returncode == 0 and r4.returncode == 0
    assert r3.stdout == r4.stdout


def test_resume_from_other_version_exits_3(tmp_path):
    """A manifest whose checkpoint another version wrote ends with exit 3
    and a message naming both versions; without the key it resumes."""
    m = tmp_path / "m.json"
    ids = "conj-gap-sq,delta-gt-half"
    r1 = run("verify", "--checker", ids, "--n-hi", "400", "--limit", "100000",
             "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    manifest = json.loads(m.read_text())
    version = manifest["checkpoint"]["tool_version"]
    assert version == manifest["tool_version"]
    manifest["checkpoint"]["tool_version"] = "0.0.1"
    m.write_text(json.dumps(manifest))
    r2 = run("verify", "--resume", str(m), "--n-hi", "900", "--limit", "100000",
             "--format", "json")
    assert r2.returncode == 3 and r2.stdout == ""
    assert "0.0.1" in r2.stderr and version in r2.stderr
    del manifest["checkpoint"]["tool_version"]
    m.write_text(json.dumps(manifest))
    r3 = run("verify", "--resume", str(m), "--n-hi", "900", "--limit", "100000",
             "--format", "json")
    r4 = run("verify", "--checker", ids, "--n-hi", "900", "--limit", "100000",
             "--format", "json")
    assert r3.returncode == 0 and r4.returncode == 0
    assert r3.stdout == r4.stdout


def test_resume_with_larger_limit(tmp_path):
    m = tmp_path / "m.json"
    ids = "conj-gap-sq,twin-95,delta-gt-half"
    r1 = run("verify", "--checker", ids, "--n-hi", "5000", "--limit", "100000",
             "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    r2 = run("verify", "--resume", str(m), "--n-hi", "15000",
             "--limit", "200000", "--format", "json")
    r3 = run("verify", "--checker", ids, "--n-hi", "15000",
             "--limit", "200000", "--format", "json")
    assert r2.returncode == 0 and r3.returncode == 0
    assert r2.stdout == r3.stdout


def test_resume_thm78_near_sieve_edge(tmp_path):
    """thm-78 reads primes up to N^2 + 2N, past a 1e5 sieve for p near 1e5;
    the resumed report must still equal a single run on the larger sieve."""
    m = tmp_path / "m.json"
    r1 = run("verify", "--checker", "thm-78", "--n-hi", "9585", "--limit", "100000",
             "--manifest-out", str(m), "--format", "json")
    assert r1.returncode == 0
    r2 = run("verify", "--resume", str(m), "--n-hi", "15000",
             "--limit", "200000", "--format", "json")
    r3 = run("verify", "--checker", "thm-78", "--n-hi", "15000",
             "--limit", "200000", "--format", "json")
    assert r2.returncode == 0 and r3.returncode == 0
    assert r2.stdout == r3.stdout


def test_rerun_manifest_reproduces_digests(tmp_path):
    m1, m2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--checker", "andrica,gap-85", "--n-hi", "600",
            "--limit", "100000", "--format", "json")
    run(*args, "--manifest-out", str(m1))
    run(*args, "--manifest-out", str(m2))
    d1 = json.loads(m1.read_text())
    d2 = json.loads(m2.read_text())
    assert d1["digests"] == d2["digests"]
