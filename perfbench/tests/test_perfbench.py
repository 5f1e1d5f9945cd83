"""Tests of the benchmark's own code: the tracer and the verdict gate.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_from_imported_function_is_traced(tracer):
    from hasse5 import census, ffactor

    assert census.factor_ff is ffactor.factor_ff
    assert census.factor_ff.__wrapped__ is not None
    census.census(7)
    report = tracer.report()
    assert report["spans"]["ffactor.factor_ff"]["calls"] >= 1
    edges = {(p, c) for p, c, _ in report["edges"]}
    assert ("census.census", "ffactor.factor_ff") in edges
    assert report["spans"]["census.census"]["durations"]


def test_counted_method_and_alias(tracer):
    from hasse5.fp import FqElem, make_extension

    assert FqElem.__rmul__ is FqElem.__mul__
    fld = make_extension(7, 2)
    a = fld.elem([1, 2])
    _ = a * a
    _ = 3 * a
    assert tracer.report()["counts"]["fp.FqElem.__mul__"] == 2


def test_uninstall_restores_originals():
    from hasse5 import census, modpoly

    before = (census.factor_ff, modpoly.divmod_)
    t = Tracer()
    t.install()
    assert census.factor_ff is not before[0]
    t.uninstall()
    assert (census.factor_ff, modpoly.divmod_) == before


def test_every_target_resolves(tracer):
    assert tracer.missing == []


def _stdout(rows: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)


@pytest.fixture(scope="module")
def refdata():
    return run.load_refdata()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_gate_passes_recorded_rows(workload, refdata):
    rows = run.load_expected(workload)
    verdict = run.gate(workload, _stdout(rows), 0, None, rows, refdata)
    assert verdict == {"attempted": len(rows), "failed": 0, "notes": []}


def test_gate_catches_edited_row(refdata):
    expected = run.load_expected("census-379")
    edited = [dict(r) for r in expected]
    edited[5]["found"] += 1
    verdict = run.gate("census-379", _stdout(edited), 0, None, expected, refdata)
    assert verdict["failed"] == 1


def test_gate_catches_edited_expected_row(refdata):
    expected = run.load_expected("k5p-700")
    edited = [dict(r) for r in expected]
    edited[0]["N_p"] += 1
    verdict = run.gate("k5p-700", _stdout(expected), 0, None, edited, refdata)
    assert verdict["failed"] == 1


def test_gate_reference_table_and_split_set(refdata):
    expected = run.load_expected("fricke-300")
    # 7 stops splitting completely: it is in Table 10 and in the split set
    edited = [dict(r) for r in expected]
    row = next(r for r in edited if r["p"] == 7)
    row["linear_found"] = row["linear_formula"] = row["linear_found"] - 1
    verdict = run.gate("fricke-300", _stdout(edited), 0, None, edited, refdata)
    assert verdict["failed"] == 1
    assert any("reference" in n for n in verdict["notes"])


def test_gate_crash_fails_every_row(refdata):
    expected = run.load_expected("charzero-all")
    half = _stdout(expected[:10])
    verdict = run.gate("charzero-all", half, 1, "Traceback ...\nStructureMismatch: p=401", expected, refdata)
    assert verdict["failed"] == len(expected)


def test_gate_missing_and_extra_rows(refdata):
    expected = run.load_expected("census-379")
    rows = expected[1:] + [dict(expected[0], l=100003)]
    verdict = run.gate("census-379", _stdout(rows), 0, None, expected, refdata)
    assert verdict["failed"] == 2
    assert verdict["attempted"] == len(expected) + 1


def test_scale_at_reference_speed_is_identity():
    ref = run.REF_PROBE_S
    probes = [[-ref, ref, ref], [1.0, ref, ref], [2.0 + ref, ref, ref], [3.0 + 2 * ref, ref, ref]]
    assert run.scale_to_reference(3.0 + 2 * ref, probes) == pytest.approx(3.0)


def test_scale_follows_a_change_of_speed():
    ref = run.REF_PROBE_S
    # The host runs at half speed for the first second, at full speed after.
    probes = [[-2 * ref, 2 * ref, 0], [1.0, 2 * ref, 0], [1.0 + 2 * ref, ref, 0], [2.0 + 3 * ref, ref, 0]]
    scaled = run.scale_to_reference(2.0 + 3 * ref, probes)
    # 1 s between two slow probes, none between the two inner ones, 1 s between two fast ones
    assert scaled == pytest.approx(0.5 + 1.0)
    with pytest.raises(ValueError):
        run.scale_to_reference(1.0, probes[1:])


def test_probe_samples_bracket_and_fill_a_sweep():
    import child

    probe = child.SpeedProbe()
    probe.start()
    for _ in range(150):
        child.reference_loop()
    probe.stop()
    probe.sample()
    assert len(probe.samples) >= 3
    assert all(w > 0 and c >= 0 for _, w, c in probe.samples)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    report = {"spans": {}, "counts": {}, "edges": [], "cache_hits": 0}
    layer = run.per_layer(report, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    sweep = {"ref_sweep_s": 1.0, "ref_cpu_s": 1.0, "peak_rss_mb": 1.0}
    e2e = run.end_to_end([sweep], [{"ref_import_s": 1.0}], 1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
