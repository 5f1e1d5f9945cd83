import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hasse5
from hasse5 import VerificationError, census as census_mod, fricke as fricke_mod, modeq
from hasse5.cli import main


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


def test_forced_k5p_rows_are_not_reused_unforced(tmp_path, capsys, monkeypatch):
    # a structure mismatch at the in-range prime 103: a forced run reports it
    # as a row, an unforced run must fail on it, warm cache or cold
    real_build_k5p = modeq.build_k5p
    monkeypatch.setattr(modeq, "build_k5p", lambda p: real_build_k5p(p)[p == 103 :])
    cold = run_cli(capsys, "k5p", "101..107", "--format", "tsv", "--cache", str(tmp_path / "cold"))
    assert cold[0] == 1 and "FAIL: StructureMismatch" in cold[1]
    warm = str(tmp_path / "warm")
    forced = run_cli(capsys, "k5p", "101..107", "--force", "--format", "tsv", "--cache", warm)
    assert "False" in forced[1]
    assert run_cli(capsys, "k5p", "101..107", "--format", "tsv", "--cache", warm) == cold


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HASSE5_CACHE", str(tmp_path))
    code, _ = run_cli(capsys, "census", "7")
    assert code == 0
    assert (tmp_path / "census" / "7.json").exists()


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


def run_subprocess(code: str, *flags: str, hashseed: str = "0") -> subprocess.CompletedProcess:
    src = str(Path(hasse5.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=600)


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
    # a leading coefficient of (Y^2 + 216Y + 144)^3 that is 1 mod 7, 11 and 17
    # but 10 mod 13: the resultant is no longer monic at p = 13 only
    monkeypatch.setattr(fricke_mod, "R5_C", fricke_mod.R5_C[:-1] + (1 + 7 * 11 * 17,))
    code, out = run_cli(capsys, "fricke", "7..17", "--format", "json", "--jobs", "1", "--cache", str(tmp_path))
    assert code == 1
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["p"] for r in rows] == [7, 11, 13, 17]
    assert rows[2]["error"].startswith("VerificationError: p=13: Res_X(ss_p, R5) is not monic")
    assert all(r["match"] for i, r in enumerate(rows) if i != 2)
    assert sorted(f.stem for f in (tmp_path / "fricke").glob("*.json")) == ["11", "17", "7"]


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
    # a wrong j5 numerator makes the two Hasse expansions disagree; python -O
    # must not remove that check
    code = (
        "import hasse5.hasse; hasse5.hasse.C45 = [2, 228, 494, -228, 1]; "
        "from hasse5.cli import main; raise SystemExit(main(['census', '7..31']))"
    )
    run = run_subprocess(code, "-O")
    assert run.returncode == 1
    assert "FAIL: VerificationError: the two Hasse invariant expansions disagree" in run.stdout


def test_jobs_parallel(capsys):
    code, out = run_cli(capsys, "fricke", "7..23", "--jobs", "2", "--format", "tsv")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 6


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
