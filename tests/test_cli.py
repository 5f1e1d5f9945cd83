import ast
import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hasse5
from hasse5 import VerificationError, census as census_mod, cli, fricke as fricke_mod, icosa, modeq, refdata
from hasse5.cli import main
from hasse5.intfactor import is_prime
from test_fricke import CUBIC_13, CUBIC_383, multiply_the_fold
from test_modeq import move_sporadic_point, perturb_F_off_the_integers


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_census_text(capsys):
    code, out = run_cli(capsys, "census", "7..31")
    assert code == 0
    assert "True" in out and "13" in out


def test_census_single_json(capsys):
    code, out = run_cli(capsys, "census", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["l"] == 13 and doc["found"] == 2 and doc["match"]


@pytest.mark.parametrize(
    "verify, primes",
    [
        (census_mod.census, [7, 11, 13, 19, 31]),
        (modeq.verify_class_equation, [43, 101, 379, 401]),
        (fricke_mod.verify_fricke, [7, 13, 23, 97]),
    ],
    ids=["census", "k5p", "fricke"],
)
def test_verdict_is_its_json_payload(verify, primes):
    # lists and string keys only, so a fresh payload equals a cached one
    for p in primes:
        v = verify(p)
        assert json.loads(json.dumps(v)) == v, p


def test_census_rejects_composite(capsys):
    with pytest.raises(SystemExit):
        main(["census", "6"])


def test_census_tsv_layout(capsys):
    code, out = run_cli(capsys, "census", "7..13", "--format", "tsv")
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["l", "N", "predicted", "h(-5l)", "match"]
    assert lines[1].split("\t")[0] == "7"
    assert out.endswith("\n")


def test_k5p_guard_and_force(capsys):
    with pytest.raises(SystemExit):
        main(["k5p", "211"])
    code, out = run_cli(capsys, "k5p", "101", "--format", "json")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["structure_ok"] and doc["identity_holds"]


@pytest.mark.parametrize(
    "argv, small",
    [
        (["k5p", "7..19", "--force"], [7, 11, 13, 17, 19]),
        (["k5p", "13..30", "--force"], [13, 17, 19]),
        (["k5p", "7..19"], [7, 11, 13, 17, 19]),
    ],
)
def test_k5p_primes_below_21_are_a_usage_error(capsys, argv, small):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == f"error: primes {small} are too small: K_5p is rebuilt only for p > 20"
    assert capsys.readouterr().out == ""


def test_k5p_379_forced_reports_anomaly(capsys):
    code, out = run_cli(capsys, "k5p", "379", "--force", "--format", "json")
    doc = json.loads(out.strip())
    assert not doc["structure_ok"]
    assert any("found 6" in m for m in doc["mismatches"])


def test_k5p_only_in_s(capsys):
    code, out = run_cli(capsys, "k5p", "101..110", "--only-in-S", "--format", "json")
    assert code == 0
    primes = [json.loads(line)["p"] for line in out.strip().split("\n")]
    assert primes == [101, 103, 107]


def test_k5p_only_in_s_with_no_prime_of_s_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["k5p", "7..40", "--only-in-S"])
    assert e.value.code == "error: no prime of S in range '7..40'"
    assert capsys.readouterr().out == ""


def test_forced_k5p_rows_are_not_reused_unforced(tmp_path, capsys, monkeypatch):
    # a structure mismatch at the in-range prime 103 is a row with structure
    # False and exit status 1, forced or not, so the two runs share one cache
    real_build_k5p = modeq.build_k5p
    monkeypatch.setattr(modeq, "build_k5p", lambda p: real_build_k5p(p)[p == 103 :])
    cold = run_cli(capsys, "k5p", "101..107", "--format", "tsv", "--cache", str(tmp_path / "cold"))
    rows = {line.split("\t")[0]: line.split("\t") for line in cold[1].splitlines()[1:]}
    assert cold[0] == 1 and "FAIL" not in cold[1]
    assert rows["103"][5] == "False" and "absent" in rows["103"][6]
    assert rows["101"][5] == rows["107"][5] == "True"
    warm = tmp_path / "warm"
    assert run_cli(capsys, "k5p", "101..107", "--force", "--format", "tsv", "--cache", str(warm)) == cold
    assert run_cli(capsys, "k5p", "101..107", "--format", "tsv", "--cache", str(warm)) == cold
    assert [d.name for d in warm.iterdir()] == ["k5p"]


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HASSE5_CACHE", str(tmp_path))
    code, _ = run_cli(capsys, "census", "7")
    assert code == 0
    assert (tmp_path / "census" / "7.json").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_cache_path_is_a_usage_error_before_any_prime(tmp_path, sub):
    # a regular file as the cache root, or as a parent of it: the run stops
    # with a usage error before computing a prime, not with a traceback after
    blocker = tmp_path / "F"
    blocker.write_text("")
    root = str(blocker / sub) if sub else str(blocker)
    code = (
        "from hasse5 import census; census.census = None; "  # any prime run would raise TypeError
        f"from hasse5.cli import main; raise SystemExit(main(['census', '7..379', '--cache', {root!r}]))"
    )
    run = run_subprocess(code)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith(f"error: cannot use {root!r} as the cache directory: ")
    assert "Traceback" not in run.stderr
    assert blocker.read_text() == ""


def test_unusable_command_cache_directory_is_a_usage_error_before_any_prime(tmp_path):
    # a regular file where the command's directory under the root belongs
    (tmp_path / "census").write_text("")
    code = (
        "from hasse5 import census; census.census = None; "  # any prime run would raise TypeError
        f"from hasse5.cli import main; raise SystemExit(main(['census', '7..13', '--cache', {str(tmp_path)!r}]))"
    )
    run = run_subprocess(code)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith(f"error: cannot use {str(tmp_path)!r} as the cache directory: ")
    assert "Traceback" not in run.stderr
    assert (tmp_path / "census").read_text() == ""


def test_fricke_rows(capsys):
    code, out = run_cli(capsys, "fricke", "7..19", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["7", "11", "13", "17", "19"]


def test_tables_6(capsys):
    code, out = run_cli(capsys, "tables", "6")
    assert code == 0
    assert out.count("PASS") == 14


def test_charzero_fast(capsys):
    code, out = run_cli(capsys, "charzero", "--suite", "fast")
    assert code == 0
    assert "FAIL" not in out


def test_charzero_heavy_rejects_a_wrong_printed_block(capsys, monkeypatch):
    # one coefficient of the printed block p_11 changed: the two ledger rows
    # compared with the printed factorizations fail, and every other row passes
    monkeypatch.setitem(icosa.P_D, 11, (1, 1, 2, -1, 1))
    code, out = run_cli(capsys, "charzero", "--suite", "heavy", "--format", "json")
    status = {row["check"]: row["status"] for row in map(json.loads, out.splitlines())}
    failed = {name for name, st in status.items() if st != "PASS"}
    assert failed == {"icosahedral ledger: R_TT_printed", "icosahedral ledger: N_R_AA_printed"}
    assert all(status[name] == "FAIL" for name in failed)
    assert len(status) == 24 and code == 1


def _charzero_status(capsys, suite: str) -> tuple[int, dict[str, str]]:
    code, out = run_cli(capsys, "charzero", "--suite", suite, "--format", "json")
    return code, {row["check"]: row["status"] for row in map(json.loads, out.splitlines())}


def test_charzero_reports_a_raising_check_as_a_row(capsys, monkeypatch):
    # a wrong constant term of H_-24 makes table1_gcd raise: that row carries
    # the error, the other rows reading H_-24 fail, and every other row runs
    c0, c1, c2 = modeq.HD[24]
    monkeypatch.setitem(modeq.HD, 24, (c0 + 1, c1, c2))
    modeq._disc_hd.cache_clear()
    try:
        code, status = _charzero_status(capsys, "fast")
    finally:
        monkeypatch.undo()
        modeq._disc_hd.cache_clear()
    failed = {name for name, st in status.items() if st != "PASS"}
    assert failed == {"disc_y(Phi5) identity", "gcd(D1,D2) at H_-24", "disc(H_-24)"}
    assert status["gcd(D1,D2) at H_-24"] == "FAIL: VerificationError: Q5 or a first derivative is nonzero at H_-24"
    assert status["disc(H_-24)"] == status["disc_y(Phi5) identity"] == "FAIL"
    assert len(status) == 54 and code == 1


@pytest.mark.parametrize(
    "fault, rows, error",
    [
        (perturb_F_off_the_integers, ["H_-20 root A, B", "H_-20 root A^2-5B^2"], "F(t) != 0 at the H_-20 root"),
        (
            lambda monkeypatch: move_sporadic_point(monkeypatch, (84, 3)),
            ["sporadic d=84 case 3"],
            "Q5 or a first derivative is nonzero at sporadic d=84 case 3",
        ),
    ],
    ids=["h20-root", "sporadic-84-3"],
)
def test_charzero_reports_a_point_off_the_curve_as_a_row(capsys, monkeypatch, fault, rows, error):
    fault(monkeypatch)
    code, status = _charzero_status(capsys, "fast")
    assert [name for name, st in status.items() if st != "PASS"] == rows
    assert all(status[name] == f"FAIL: VerificationError: {error}" for name in rows) and code == 1


def test_nonexact_split_is_a_verification_error():
    assert issubclass(modeq.NonExactSplit, VerificationError)


@pytest.mark.parametrize(
    "table, key, printed",
    [
        ("SPORADIC_GCD", (96, 2), 73 * refdata.SPORADIC_GCD_96_2_CORRECTED),
        ("DISC_QD", 51, refdata.DISC_QD_51_CORRECTED),
    ],
)
def test_charzero_misprint_rows_assert_the_discrepancy(capsys, monkeypatch, table, key, printed):
    # the corrected value still matches, but the printed value no longer
    # differs from it by exactly 71 (resp. 17^4): only the misprint row fails
    monkeypatch.setitem(getattr(refdata, table), key, printed)
    code, status = _charzero_status(capsys, "fast")
    failed = {name for name, st in status.items() if st != "PASS"}
    label = {
        "SPORADIC_GCD": "sporadic d=96 case 2 [printed gcd carries a spurious 71]",
        "DISC_QD": "disc(Q_51) [printed value omits 17^4]",
    }[table]
    assert failed == {label} and status[label] == "FAIL" and code == 1


def test_cache_roundtrip(tmp_path, capsys):
    code1, out1 = run_cli(capsys, "census", "7..13", "--format", "json", "--cache", str(tmp_path))
    assert code1 == 0
    files = sorted((tmp_path / "census").glob("*.json"))
    assert [f.stem for f in files] == ["11", "13", "7"]
    # cached rerun must produce byte-identical output
    code2, out2 = run_cli(capsys, "census", "7..13", "--format", "json", "--cache", str(tmp_path))
    assert code2 == 0 and out1 == out2
    # cache payload round-trips through the JSON loader
    doc = json.loads(files[0].read_text())
    assert doc["schema"] == 1 and doc["payload"]["l"] == int(files[0].stem)


def test_cache_entry_from_other_sources_is_recomputed(tmp_path, capsys):
    code, out1 = run_cli(capsys, "census", "11", "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    path = tmp_path / "census" / "11.json"
    doc = json.loads(path.read_text())
    digest = doc["digest"]
    doc["digest"] = "0" * 64
    doc["payload"]["found"] = 99
    path.write_text(json.dumps(doc))
    code, out2 = run_cli(capsys, "census", "11", "--format", "json", "--cache", str(tmp_path))
    assert code == 0 and out2 == out1
    assert json.loads(path.read_text())["digest"] == digest
    # valid JSON that is not a cache document is a miss too, and so is a
    # current document whose payload is missing, not an object, or lacks a
    # key the sweep reads (all of them, or "match")
    good = json.loads(path.read_text())
    no_payload = {k: v for k, v in good.items() if k != "payload"}
    for text in ("[]", json.dumps(no_payload), *(json.dumps({**good, "payload": x}) for x in ([1], {}, {"l": 11}))):
        path.write_text(text)
        code, out3 = run_cli(capsys, "census", "11", "--format", "json", "--cache", str(tmp_path))
        assert code == 0 and out3 == out1
        assert json.loads(path.read_text()) == good


def test_unreadable_cache_entry_is_a_miss_and_is_not_stored(tmp_path, capsys):
    # a directory in place of census/7.json can be neither read nor replaced:
    # 7 is computed, the sweep prints what an uncached run prints, and one
    # line on stderr says the entry was skipped
    want = run_cli(capsys, "census", "7..13", "--format", "json")
    (tmp_path / "census" / "7.json").mkdir(parents=True)
    code = main(["census", "7..13", "--format", "json", "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == want
    assert err == f"warning: cannot write the cache entry {str(tmp_path / 'census' / '7.json')!r}: Is a directory\n"
    assert sorted(f.name for f in (tmp_path / "census").iterdir()) == ["11.json", "13.json", "7.json"]
    assert (tmp_path / "census" / "7.json").is_dir()


def run_subprocess(code: str, *flags: str, hashseed: str = "0") -> subprocess.CompletedProcess:
    src = str(Path(hasse5.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=600)


def test_cli_import_leaves_the_process_pool_out():
    # serial runs never import concurrent.futures (nor multiprocessing): only --jobs > 1 does;
    # nor cycres, which icosa imports only when the ledger runs
    run = run_subprocess("import sys, hasse5.cli; print(*(m in sys.modules for m in ('concurrent.futures', 'hasse5.cycres')))")
    assert run.returncode == 0 and run.stdout == "False False\n", run.stderr


def test_determinism_two_runs():
    code = "from hasse5.cli import main; raise SystemExit(main(['census', '7..31', '--format', 'json']))"
    run1 = run_subprocess(code, hashseed="1")
    run2 = run_subprocess(code, hashseed="2")
    assert run1.returncode == 0 and run2.returncode == 0
    assert run1.stdout == run2.stdout and run1.stdout.count("\n") == 8


def test_removed_flags_are_usage_errors(capsys):
    for argv in (["census", "13", "--seed", "1"], ["fricke", "13", "--force"], ["charzero", "--cache", "x"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "1753413059"],  # the first prime with 3 l^2 >= 2^63
        ["census", "1753413000..1753413100"],  # straddles it
        ["census", "7..3000000000"],  # listing this range would take 3 GB
        ["fricke", "1753413059"],
        ["fricke", "2097169"],  # the first prime past the product bound mod P
        ["fricke", "2097000..2097200"],
        ["k5p", "2147483659"],  # the first prime with 2 p^2 >= 2^63
        ["k5p", "3024617"],  # the first prime past the product bound of build_k5p
        ["k5p", "3024500..3024700", "--force"],
    ],
)
def test_prime_past_the_int64_bounds_is_a_usage_error(capsys, monkeypatch, argv):
    # the verdict's own entry check, run on the range's largest prime before
    # any prime is listed or computed: no rows, one error line, exit status 2
    for module, stage in ((census_mod, "h5l"), (fricke_mod, "_squarefree_hasse"), (modeq, "build_ss")):
        monkeypatch.setattr(module, stage, lambda *args: pytest.fail("a verdict ran on a range past its int64 bounds"))
    spec = argv[1].split("..")
    lo, hi = int(spec[0]), int(spec[-1])
    top = next(q for q in range(hi, lo - 1, -1) if is_prime(q))
    with pytest.raises(SystemExit) as e:
        main([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert e.value.code == 2 and out == ""
    assert re.fullmatch(rf"error: [lp]={top} is too large for [^\n]*int64[^\n]*\n", err), err
    check = {"census": census_mod, "k5p": modeq, "fricke": fricke_mod}[argv[0]].check_bounds
    with pytest.raises(ValueError, match=re.escape(err[len("error: "):-1])):
        check(top)


@pytest.mark.parametrize("argv", [["census", "1753413059"], ["fricke", "2097169"], ["k5p", "2147483659"]])
def test_prime_past_the_int64_bounds_exits_2_without_a_traceback(argv):
    run = run_subprocess(f"from hasse5.cli import main; raise SystemExit(main({[*argv, '--format', 'json']!r}))")
    assert run.returncode == 2 and run.stdout == "" and "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr


@pytest.mark.parametrize("argv", [["census", "abc"], ["census", "7.."], ["fricke", "10**3"]])
def test_malformed_range_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == f"error: malformed range {argv[1]!r}; expected a prime P or a range LO..HI"


def test_failed_verification_is_a_fail_row(tmp_path, capsys, monkeypatch):
    real_census = census_mod.census

    def census(l):
        if l == 13:
            raise VerificationError(f"injected fault at l={l}")
        return real_census(l)

    monkeypatch.setattr(census_mod, "census", census)
    code, out = run_cli(capsys, "census", "7..17", "--format", "json", "--jobs", "1", "--cache", str(tmp_path))
    assert code == 1
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["l"] for r in rows] == [7, 11, 13, 17]
    assert rows[2] == {"l": 13, "error": "VerificationError: injected fault at l=13"}
    assert all(r["match"] for i, r in enumerate(rows) if i != 2)
    assert sorted(f.stem for f in (tmp_path / "census").glob("*.json")) == ["11", "17", "7"]
    code, out = run_cli(capsys, "census", "13", "--format", "tsv", "--cache", str(tmp_path))
    assert code == 1
    assert out.split("\n")[1] == "13\t\t\t\tFAIL: VerificationError: injected fault at l=13"


def test_fricke_field_check_failure_is_a_fail_row(tmp_path, capsys, monkeypatch):
    # the fold P times a cubic whose roots lie outside F_(13^2), at p = 13 only
    multiply_the_fold(monkeypatch, CUBIC_13, 13)
    code, out = run_cli(capsys, "fricke", "7..17", "--format", "json", "--jobs", "1", "--cache", str(tmp_path))
    assert code == 1
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["p"] for r in rows] == [7, 11, 13, 17]
    assert rows[2] == {"p": 13, "error": "RootOutsideQuadraticField: p=13: P does not divide u^(p^2) - u"}
    assert all(r["match"] for i, r in enumerate(rows) if i != 2)
    assert sorted(f.stem for f in (tmp_path / "fricke").glob("*.json")) == ["11", "17", "7"]


def test_fricke_formula_failure_is_a_fail_row(capsys, monkeypatch):
    # h(-65) = 8; an h(-5p) of 6 leaves (1 + (13/5)) h(-13) + h(-65) = 6,
    # which 4 does not divide
    h5l = fricke_mod.h5l
    monkeypatch.setattr(fricke_mod, "h5l", lambda p: 6 if p == 13 else h5l(p))
    code, out = run_cli(capsys, "fricke", "7..17", "--format", "tsv", "--jobs", "1")
    assert code == 1
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["7", "11", "13", "17"]
    assert rows[2][-1] == "FAIL: VerificationError: 4 does not divide (1 + (p/5)) h(-p) + h(-5p) = 6 at p=13"
    assert all(r[-1] == "True" for i, r in enumerate(rows) if i != 2)


def test_failed_table_row_is_a_fail_status(capsys, monkeypatch):
    real_census = census_mod.census

    def census(l):
        if l == 13:
            raise VerificationError(f"injected fault at l={l}")
        return real_census(l)

    monkeypatch.setattr(census_mod, "census", census)
    code, out = run_cli(capsys, "tables", "6", "--format", "tsv")
    assert code == 1
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert rows[0] == ["l", "N_ref", "N", "h_ref", "h(-5l)", "status"]
    failed = [r for r in rows[1:] if r[-1] != "PASS"]
    assert failed == [["13", "2", "", "8", "", "FAIL: VerificationError: injected fault at l=13"]]
    assert len(rows) == 15


def test_optimized_interpreter_keeps_verifications():
    # H (x^2 + 11x - 1) is not squarefree; python -O must not remove the
    # certificate that rejects it
    code = (
        "from hasse5 import census, modpoly as mp; build = census.build_hasse; "
        "census.build_hasse = lambda l: mp.mul(build(l), [l - 1, 11, 1], l); "
        "from hasse5.cli import main; raise SystemExit(main(['census', '13', '--format', 'tsv']))"
    )
    run = run_subprocess(code, "-O")
    assert run.returncode == 1
    assert run.stdout.split("\n")[1] == "13\t\t\t\tFAIL: VerificationError: L(H) has a nonzero x^1 coefficient at l=13"


def _fricke_with_the_fold_times(cubic: list[int], p: int) -> subprocess.CompletedProcess:
    """``fricke p --format tsv`` under python -O, with the fold P times cubic."""
    code = (
        "from hasse5 import fricke, modpoly as mp\n"
        "conic_hits = fricke._conic_hits\n"
        "def faulty(l, f):\n"
        "    P, hits = conic_hits(l, f)\n"
        f"    return mp.mul(P, {cubic!r}, l), hits\n"
        "fricke._conic_hits = faulty\n"
        "from hasse5.cli import main\n"
        f"raise SystemExit(main(['fricke', '{p}', '--format', 'tsv']))\n"
    )
    return run_subprocess(code, "-O")


def test_optimized_interpreter_keeps_the_fricke_containment_check():
    # the fold P times a cubic whose roots lie outside F_(13^2): python -O
    # must still raise the containment check as a FAIL row
    run = _fricke_with_the_fold_times(CUBIC_13, 13)
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stdout.split("\n")[1] == "13\t\t\t\t\tFAIL: RootOutsideQuadraticField: p=13: P does not divide u^(p^2) - u"


def test_optimized_interpreter_keeps_the_fricke_containment_check_on_float_products():
    # as at 13, at a prime where u^(p^2) mod P runs on shifts and float64 products
    run = _fricke_with_the_fold_times(CUBIC_383, 383)
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stdout.split("\n")[1] == "383\t\t\t\t\tFAIL: RootOutsideQuadraticField: p=383: P does not divide u^(p^2) - u"


def test_optimized_interpreter_keeps_k5p_verifications():
    # the rows of D_Y^(i+1) Phi5 in place of D_Y^i halve every multiplicity;
    # python -O must still report the structure mismatch and fail the run
    code = (
        "from hasse5 import modeq; rows = modeq._hasse_rows; "
        "modeq._hasse_rows = lambda i: rows(i + 1); "
        "from hasse5.cli import main; raise SystemExit(main(['k5p', '383', '--format', 'tsv']))"
    )
    run = run_subprocess(code, "-O")
    assert run.returncode == 1
    assert run.stdout.split("\n")[1] == (
        "383\t6\t24\t0\tFalse\tFalse\t"
        "factor (6, 1) (d=19): expected multiplicity 4, found 2; "
        "factor (137, 1) (d=16): expected multiplicity 4, found 2; "
        "factor (187, 1) (d=4): expected multiplicity 4, found 2; "
        "deg K_5p = 6 != a_p h(-5p) = 24"
    )


def _heavy_charzero_with_norm_primes(keep: str) -> tuple[int, dict[str, str]]:
    """charzero --suite heavy under python -O, with norm_primes cut to primes(coords)<keep>."""
    code = (
        "from hasse5 import cycres; primes = cycres.norm_primes; "
        f"cycres.norm_primes = lambda coords: primes(coords){keep}; "
        "from hasse5.cli import main; raise SystemExit(main(['charzero', '--suite', 'heavy', '--format', 'tsv']))"
    )
    run = run_subprocess(code, "-O")
    rows = dict(line.split("\t") for line in run.stdout.splitlines()[1:])
    assert len(rows) == 24 and sum(name.startswith("icosahedral ledger: R") for name in rows) == 7
    return run.returncode, {name: st for name, st in rows.items() if st != "PASS"}


def test_optimized_interpreter_keeps_norm_verifications():
    # four CRT primes, fewer than any ledger norm needs (8, 8, 8 and 13): python
    # -O must still raise every norm's leading-coefficient check, and each
    # N_R_* row fails with that error while the seven R_* rows pass
    code, failed = _heavy_charzero_with_norm_primes("[:4]")
    error = (
        "FAIL: VerificationError: norm over Q(zeta_5): leading coefficient "
        "4358219588109483978974714384191657392, expected 867361737988403547205962240695953369140625"
    )
    assert code == 1
    assert failed == {f"icosahedral ledger: {name}": error for name in ("N_R_AA_printed", "N_R_A2A2", "N_R_TATA", "N_R_TA2TA2")}


def test_a_norm_error_fails_only_the_ledger_rows_that_read_it():
    # one CRT prime too few: q_4, with a single prime, comes out as 0 and
    # raises, failing the one row that reads it; N(R_TA2TA2), with 13 primes,
    # still comes out right and so differs from N(R_AA), which is wrong in the
    # same way as N(R_A2A2) and N(R_TATA), so those two rows pass
    code, failed = _heavy_charzero_with_norm_primes("[:-1]")
    assert code == 1
    assert failed == {
        "icosahedral ledger: N_R_AA_printed": "FAIL: VerificationError: norm over Q(zeta_5): degree -1, expected 8",
        "icosahedral ledger: N_R_TA2TA2": "FAIL",
    }


def test_optimized_interpreter_keeps_the_k5p_degree_certificate():
    # ss_p times an irreducible cubic factor of Phi5(x^383, x): g takes it, and
    # python -O must still reject it as a FAIL row
    from test_modeq import CUBIC_383

    code = (
        "from hasse5 import modeq, modpoly as mp; build = modeq.build_ss; "
        f"modeq.build_ss = lambda p: mp.mul(build(p), {CUBIC_383!r}, p); "
        "from hasse5.cli import main; raise SystemExit(main(['k5p', '383', '--format', 'tsv']))"
    )
    run = run_subprocess(code, "-O")
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stdout.split("\n")[1] == (
        "383\t\t\t\t\t\tFAIL: VerificationError: "
        "the quadratic factors found do not multiply to the degree-9 piece at p=383"
    )


def test_optimized_interpreter_keeps_the_k5p_repeated_factor_check():
    # ss_p times x + 6, a linear factor of Phi5(x^383, x) that g already has:
    # g takes it twice, and python -O must still reject it as a FAIL row
    code = (
        "from hasse5 import modeq, modpoly as mp; build = modeq.build_ss; "
        "modeq.build_ss = lambda p: mp.mul(build(p), [6, 1], p); "
        "from hasse5.cli import main; raise SystemExit(main(['k5p', '383', '--format', 'tsv']))"
    )
    run = run_subprocess(code, "-O")
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stdout.split("\n")[1] == (
        "383\t\t\t\t\t\tFAIL: VerificationError: supersingular polynomial has a repeated factor at p=383"
    )


def test_optimized_interpreter_keeps_the_k5p_split_checks():
    # a certificate that finds no linear factor sends all of g, of degree 9,
    # to the quadratic split; python -O must still reject its result as a
    # FAIL row
    code = (
        "from hasse5 import modeq; modeq._certify = lambda g, p: ([], g); "
        "from hasse5.cli import main; raise SystemExit(main(['k5p', '383', '--format', 'tsv']))"
    )
    run = run_subprocess(code, "-O")
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stdout.split("\n")[1] == (
        "383\t\t\t\t\t\tFAIL: VerificationError: the quadratic factors found do not multiply to the degree-9 piece at p=383"
    )


def test_optimized_interpreter_keeps_the_k5p_distinct_factors_check():
    # a sweep that reports the first root of R_V for every root makes the
    # quadratic split return one factor m times (g has no root in F_389, so
    # its own sweep is left as it is); python -O must still reject it as a
    # FAIL row
    code = (
        "from hasse5 import modeq; roots = modeq._roots; "
        "modeq._roots = lambda f, p: (lambda r: r[:1] * len(r))(roots(f, p)); "
        "from hasse5.cli import main; raise SystemExit(main(['k5p', '389', '--format', 'tsv']))"
    )
    run = run_subprocess(code, "-O")
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stdout.split("\n")[1] == (
        "389\t\t\t\t\t\tFAIL: VerificationError: "
        "the quadratic factors found for the degree-8 piece are not distinct at p=389"
    )


def test_optimized_interpreter_keeps_the_k5p_vanishing_check():
    # a split that adds x^2 + x + 1, which does not divide g: python -O must
    # still reject it where Phi5(x^p, x) does not vanish, as a FAIL row
    code = (
        "from hasse5 import modeq; quadratic = modeq._quadratic_factors; "
        "modeq._quadratic_factors = lambda f, Xf, p: quadratic(f, Xf, p) + [[1, 1, 1]]; "
        "from hasse5.cli import main; raise SystemExit(main(['k5p', '383', '--format', 'tsv']))"
    )
    run = run_subprocess(code, "-O")
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stdout.split("\n")[1] == (
        "383\t\t\t\t\t\tFAIL: VerificationError: "
        "Phi5(x^p, x) does not vanish at a root of a factor of gcd(ss_p, Phi5(x^p, x)) at p=383"
    )


def test_package_has_no_assert_statement():
    # python -O removes assert statements, so no check of the package may be one
    for path in sorted(Path(hasse5.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statements at lines {lines}"


# raise sites whose message is all variable, each with the test that reaches it
RAISE_SITES_NAMED_BY_TEST = {("icosa.py", "req"): "test_group_relations_fail_on_a_wrong_S"}


def _verification_raise_sites():
    """(module, enclosing function, line, constant pieces of the message) of
    every raise of VerificationError or a subclass of it in the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(Path(hasse5.__file__).parent.glob("*.py"))}
    family = {"VerificationError"}
    while True:
        grown = family | {
            node.name
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(getattr(b, "id", getattr(b, "attr", None)) in family for b in node.bases)
        }
        if grown == family:
            break
        family = grown
    sites = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or not isinstance(node.exc, ast.Call):
                continue
            called = node.exc.func
            if getattr(called, "id", getattr(called, "attr", None)) not in family:
                continue
            func = node.parent
            while not isinstance(func, (ast.FunctionDef, ast.Module)):
                func = func.parent
            msg = node.exc.args[0]
            parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
            pieces = [v.value for v in parts if isinstance(v, ast.Constant) and isinstance(v.value, str)]
            sites.append((name, getattr(func, "name", None), node.lineno, pieces))
    return sites


def test_every_verification_raise_message_is_in_a_test():
    # every check of the package that raises VerificationError or a subclass
    # of it is named by a test: the constant pieces of its message, in order,
    # on one line of a tests/test_*.py (oracles.py's copies do not count), or,
    # for a message with no constant piece, the test listed for it above
    sites = _verification_raise_sites()
    assert len(sites) >= 40 and {s[0] for s in sites} >= {"census.py", "cycres.py", "fricke.py", "icosa.py", "modeq.py"}
    lines = [line for path in sorted(Path(__file__).parent.glob("test_*.py")) for line in path.read_text().splitlines()]
    source = "\n".join(lines)
    missing = []
    for module, func, lineno, pieces in sites:
        if not pieces:
            test = RAISE_SITES_NAMED_BY_TEST.get((module, func))
            if test is None or f"def {test}(" not in source:
                missing.append((module, lineno, test))
            continue
        pattern = re.compile(".*".join(map(re.escape, pieces)))
        if not any(pattern.search(line) for line in lines):
            missing.append((module, lineno, pieces))
    assert not missing, f"raise messages that no test names: {missing}"


def test_jobs_parallel(capsys):
    code, out = run_cli(capsys, "fricke", "7..23", "--jobs", "2", "--format", "tsv")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 6


@pytest.mark.parametrize("command", [["census", "7..13"], ["k5p", "383"], ["fricke", "7..13"], ["charzero"]])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(capsys, command, jobs):
    with pytest.raises(SystemExit) as e:
        main([*command, "--jobs", jobs])
    assert e.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_starts_no_more_workers_than_primes(monkeypatch, capsys):
    # a recorder in place of the process pool: it maps serially and starts nothing
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out = run_cli(capsys, "census", "7..13", "--jobs", "5000", "--format", "json")
    assert code == 0 and workers == [3]
    assert out == run_cli(capsys, "census", "7..13", "--format", "json")[1]


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
