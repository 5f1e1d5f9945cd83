"""hasse5 benchmark: fixed CLI sweeps, each in a fresh interpreter.

    python3 perfbench/run.py --workload census-379 --seed 1 --seconds 20 --trace 0

Closed loop, one client: one sweep runs at a time, single process, with
``--jobs 1`` and no cache.  ``--seed`` becomes the child's PYTHONHASHSEED, so
any dependence on hash order shows up as a verdict mismatch.  Every verdict
row is checked (see ``gate``).

--trace 0  sweeps back to back until ``--seconds`` would be exceeded (at least
           one), plus several fresh imports; prints the end-to-end metrics,
           scaled to a host of fixed speed (see ``scale_to_reference``).
--trace 1  one untraced and one traced sweep; prints the per-layer metrics.

The last line of standard output is the result object; the line before it
holds the details (environment, every sweep, the full span table).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

COMMON = ["--format", "json", "--jobs", "1"]
WORKLOADS = {
    "census-379": {"argv": ["census", "7..379"], "key": "l"},
    "k5p-700": {"argv": ["k5p", "380..700"], "key": "p"},
    "fricke-300": {"argv": ["fricke", "7..300"], "key": "p"},
    "charzero-all": {"argv": ["charzero", "--suite", "all"], "key": "check"},
}
SPLIT_PRIMES = {7, 11, 19}  # the Fricke polynomial splits completely exactly here
SETUP_REPS = 11
DEADLINE_S = 170.0  # a run must end within 180 s
# A scaled second is a second on a host where child.reference_loop takes this
# long.  On the 2-vCPU host where the benchmark was written (Python 3.11.7) it
# took 3.0-5.2 ms; the value only fixes the unit of the scaled times.
REF_PROBE_S = 0.0037


# -- verdict gate ------------------------------------------------------------


def _verdict_ok(workload: str, row: dict) -> bool:
    if workload.startswith("census") or workload.startswith("fricke"):
        return row.get("match") is True
    if workload.startswith("k5p"):
        return row.get("structure_ok") is True and row.get("identity_holds") is True
    return row.get("status") == "PASS"


def _reference_failures(workload: str, rows: dict, refdata) -> set:
    """Keys of rows that disagree with the printed reference tables."""
    bad = set()
    if workload.startswith("census"):
        for table in refdata.CENSUS_TABLES.values():
            for l, n, h in table:
                r = rows.get(l)
                if r is not None and (r.get("found"), r.get("h_minus_5l")) != (n, h):
                    bad.add(l)
    elif workload.startswith("fricke"):
        for p, deg, lin in refdata.FRICKE_TABLE:
            r = rows.get(p)
            if r is not None and (r.get("degree_found"), r.get("linear_found")) != (deg, lin):
                bad.add(p)
        split = {p for p, r in rows.items() if r.get("linear_found") == r.get("degree_found")}
        bad |= split ^ SPLIT_PRIMES
    return bad


def gate(workload: str, stdout: str, rc: int, error: str | None, expected: list[dict], refdata) -> dict:
    """Check one sweep's rows.  Returns attempted/failed counts and notes.

    A row fails when its verdict is false or not PASS, when a reference table
    lists it with other values, when (fricke) the split-prime set is wrong, or
    when it differs from the row recorded at the seed commit.  A non-zero exit
    or a traceback fails every expected row of the sweep.
    """
    key = WORKLOADS[workload]["key"]
    want = {r[key]: r for r in expected}
    notes = []
    rows: dict = {}
    extras = 0
    for line in stdout.splitlines():
        try:
            r = json.loads(line)
            k = r[key]
        except (ValueError, KeyError, TypeError):
            notes.append(f"unparseable row: {line[:120]!r}")
            extras += 1
            continue
        if k in rows or k not in want:
            notes.append(f"unexpected or duplicate row {k!r}")
            extras += 1
            continue
        rows[k] = r
    if rc != 0 or error:
        notes.append(f"exit status {rc}" + (f"; {error.strip().splitlines()[-1]}" if error else ""))
        failed = set(want)
    else:
        failed = set()
        for k, exp in want.items():
            got = rows.get(k)
            if got is None:
                notes.append(f"missing row {k!r}")
                failed.add(k)
            elif not _verdict_ok(workload, got):
                notes.append(f"verdict failed for {k!r}")
                failed.add(k)
            elif any(got.get(f) != v for f, v in exp.items()):
                notes.append(f"row {k!r} differs from the recorded row")
                failed.add(k)
        ref_bad = _reference_failures(workload, rows, refdata)
        for k in sorted(ref_bad, key=str):
            notes.append(f"row {k!r} disagrees with the reference table or split set")
        failed |= ref_bad
    return {"attempted": len(want) + extras, "failed": len(failed) + extras, "notes": notes}


def load_expected(workload: str) -> list[dict]:
    path = EXPECTED / f"{workload}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def load_refdata():
    sys.path.insert(0, str(SRC))
    from hasse5 import refdata

    return refdata


# -- host speed --------------------------------------------------------------


def scale_to_reference(span_s: float, probes: list[list[float]]) -> float:
    """Seconds the program would have taken on a host running at reference speed.

    ``probes`` are ``[start, wall_s, cpu_s]`` timings of child.reference_loop,
    ``start`` relative to the start of the measured span: one before it, any
    number inside, one after.  Each stretch of program time between two probes
    is scaled by ``REF_PROBE_S`` over the mean of those two probes.  The
    shared host's speed changes by half within seconds or holds for minutes;
    the probes, taken a fraction of a second apart in the same process,
    follow it.
    """
    probes = sorted(probes)
    before = [p for p in probes if p[0] < 0]
    inner = [p for p in probes if 0 <= p[0] < span_s]
    after = [p for p in probes if p[0] >= span_s]
    if not before or not after:
        raise ValueError("need a probe before and after the span")
    total = 0.0
    left, pos = before[-1], 0.0
    for right in inner + [after[0]]:
        end = min(right[0], span_s)
        total += (end - pos) * REF_PROBE_S / ((left[1] + right[1]) / 2)
        left, pos = right, right[0] + right[1]
    return total


# -- child processes ---------------------------------------------------------


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env.pop("HASSE5_CACHE", None)  # no cache: every sweep computes from cold
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict, deadline: float) -> tuple[dict | None, float, str]:
    """Run child.py; return (its JSON result or None, wall seconds, stderr tail)."""
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env,
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    return result, wall, proc.stderr[-2000:]


def sweep(workload: str, env: dict, deadline: float, expected, refdata, trace: bool) -> dict:
    argv = WORKLOADS[workload]["argv"] + COMMON
    load_before = os.getloadavg()
    res, wall, stderr = run_child(["sweep", *(["--trace"] if trace else []), "--", *argv], env, deadline)
    load_after = os.getloadavg()
    if res is None:
        res = {"rc": -1, "error": stderr or "child failed", "stdout": "", "sweep_s": wall, "cpu_s": 0.0, "peak_rss_mb": 0.0}
    elif Path(res["package"]) != SRC / "hasse5":
        raise SystemExit(f"error: child imported hasse5 from {res['package']}, not {SRC / 'hasse5'}")
    if res.get("probes"):
        res["ref_sweep_s"] = scale_to_reference(res["span_s"], res["probes"])
        res["ref_cpu_s"] = res["cpu_s"] * res["ref_sweep_s"] / res["sweep_s"]
    else:  # a traced or failed sweep has no probes
        res["ref_sweep_s"], res["ref_cpu_s"] = res["sweep_s"], res["cpu_s"]
    verdict = gate(workload, res["stdout"], res["rc"], res["error"], expected, refdata)
    return {**res, **verdict, "wall_s": wall, "load_before": load_before, "load_after": load_after}


def setup_times(env: dict, deadline: float) -> list[dict]:
    run_child(["import"], env, deadline)  # untimed: fills __pycache__ once, as any install does
    out = []
    for _ in range(SETUP_REPS):
        res, _, stderr = run_child(["import"], env, deadline)
        if res is None:
            raise SystemExit(f"error: importing hasse5.cli failed:\n{stderr}")
        res["ref_import_s"] = res["import_s"] * REF_PROBE_S / statistics.mean(p[1] for p in res["probes"])
        out.append(res)
    return out


# -- metrics -----------------------------------------------------------------


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(sweeps: list[dict], setups: list[dict], rows: int) -> dict:
    """Medians over the run; times are scaled to the reference host speed."""

    def med(items: list[dict], key: str) -> float:
        return statistics.median(s[key] for s in items)

    sweep_s = med(sweeps, "ref_sweep_s")
    return {
        "sweep_s": (sweep_s, "s"),
        "verdicts_per_s": (rows / sweep_s, "1/s"),
        "cpu_s": (med(sweeps, "ref_cpu_s"), "s"),
        "peak_rss_mb": (med(sweeps, "peak_rss_mb"), "MB"),
        "setup_s": (med(setups, "ref_import_s"), "s"),
    }


def per_layer(report: dict, traced_s: float, untraced_s: float) -> dict:
    spans, counts = report["spans"], report["counts"]
    edges = {(p, c): t for p, c, t in report["edges"]}

    def s(name: str, stat: str) -> float:
        return spans.get(name, {}).get(stat, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "modpoly.divmod_.calls": (s("modpoly.divmod_", "calls"), "count"),
        "modpoly.divmod_.self_s": (s("modpoly.divmod_", "self_s"), "s"),
        "modpoly.divmod_.coeff_ops": (s("modpoly.divmod_", "coeff_ops"), "count"),
        "modpoly.divmod_.np_frac": (ratio(s("modpoly.divmod_", "np_calls"), s("modpoly.divmod_", "calls")), "ratio"),
        "modpoly.mul.calls": (s("modpoly.mul", "calls"), "count"),
        "modpoly.mul.self_s": (s("modpoly.mul", "self_s"), "s"),
        "modpoly.mul.coeff_ops": (s("modpoly.mul", "coeff_ops"), "count"),
        "modpoly.pow_mod.total_s": (s("modpoly.pow_mod", "total_s"), "s"),
        "modpoly.gcd.total_s": (s("modpoly.gcd", "total_s"), "s"),
        "ffactor.factor_ff.total_s": (s("ffactor.factor_ff", "total_s"), "s"),
        "ffactor.squarefree_decompose.total_s": (s("ffactor.squarefree_decompose", "total_s"), "s"),
        "ffactor.distinct_degree.total_s": (s("ffactor.distinct_degree", "total_s"), "s"),
        "ffactor.equal_degree.total_s": (s("ffactor.equal_degree", "total_s"), "s"),
        "ffactor.cz_split_ratio": (ratio(s("ffactor.equal_degree", "splits"), counts.get("ffactor.draws", 0)), "ratio"),
        "hasse.build_hasse.total_s": (s("hasse.build_hasse", "total_s"), "s"),
        "classno.h5l.total_s": (s("classno.h5l", "total_s"), "s"),
        "modeq.build_k5p.total_s": (s("modeq.build_k5p", "total_s"), "s"),
        "modeq.build_k5p.mult_divmod_s": (edges.get(("modeq.build_k5p", "modpoly.divmod_"), 0.0), "s"),
        "modeq.build_k5p.gcd_s": (edges.get(("modeq.build_k5p", "modpoly.gcd"), 0.0), "s"),
        "modeq.phi5_xp_x.total_s": (s("modeq.phi5_xp_x", "total_s"), "s"),
        "hasse.build_ss.total_s": (s("hasse.build_ss", "total_s"), "s"),
        "fp.FqElem.__mul__.calls": (counts.get("fp.FqElem.__mul__", 0), "count"),
        "fp.ExtField._reduce.calls": (counts.get("fp.ExtField._reduce", 0), "count"),
        "fp.make_extension.total_s": (s("fp.make_extension", "total_s"), "s"),
        "ffactor.roots_in.total_s": (s("ffactor.roots_in", "total_s"), "s"),
        "fricke.supersingular_j_fp2.total_s": (s("fricke.supersingular_j_fp2", "total_s"), "s"),
        "fricke.build_ss5star.total_s": (s("fricke.build_ss5star", "total_s"), "s"),
        "fricke.linear_count_s": (edges.get(("fricke.verify_fricke", "modpoly.eval_at"), 0.0), "s"),
        "classno.h_minus_p.total_s": (s("classno.h_minus_p", "total_s"), "s"),
        "poly.resultant.total_s": (s("poly.resultant", "total_s"), "s"),
        "poly.det_bareiss.total_s": (s("poly.det_bareiss", "total_s"), "s"),
        "poly.Poly.__mul__.calls": (counts.get("poly.Poly.__mul__", 0), "count"),
        "numfield.CycNum.__mul__.calls": (counts.get("numfield.CycNum.__mul__", 0), "count"),
        "icosa.icosa_resultant.calls": (s("icosa.icosa_resultant", "calls"), "count"),
        "icosa.icosa_resultant.total_s": (s("icosa.icosa_resultant", "total_s"), "s"),
        "icosa.norm_to_Q.total_s": (s("icosa.norm_to_Q", "total_s"), "s"),
        "icosa.equality_ledger.total_s": (s("icosa.equality_ledger", "total_s"), "s"),
        "modeq.cofactor_resultant.total_s": (s("modeq.cofactor_resultant", "total_s"), "s"),
        "cli.self_s": (s("cli.main", "self_s"), "s"),
        "cli.Cache.load.hits": (report["cache_hits"], "count"),
        "trace_overhead_frac": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
    }
    for entry in ("census.census", "modeq.verify_class_equation", "fricke.verify_fricke"):
        durs = spans.get(entry, {}).get("durations", [])
        out[f"{entry}.p50_s"] = (_pct(durs, 50), "s")
        out[f"{entry}.p90_s"] = (_pct(durs, 90), "s")
    return out


def _summarise_spans(report: dict) -> dict:
    """The span table without the raw per-call durations."""
    spans = {}
    for name, row in report["spans"].items():
        row = dict(row)
        durs = row.pop("durations", None)
        if durs is not None:
            row["p50_s"], row["p90_s"] = _pct(durs, 50), _pct(durs, 90)
        spans[name] = row
    return {**report, "spans": spans}


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():  # an exported checkout has no SHA to report
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "platform": platform.platform(),
    }


# -- main --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "hasse5" / "cli.py").is_file():
        print(f"error: no hasse5 source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    expected = load_expected(args.workload)
    refdata = load_refdata()
    env = child_env(args.seed)
    rows = len(expected)

    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": environment()}
    if args.trace:
        plain = sweep(args.workload, env, deadline, expected, refdata, trace=False)
        traced = sweep(args.workload, env, deadline, expected, refdata, trace=True)
        sweeps = [plain, traced]
        report = traced.get("trace") or {"spans": {}, "counts": {}, "edges": [], "cache_hits": 0}
        metrics = per_layer(report, traced["sweep_s"], plain["sweep_s"])
        if traced["stdout"] != plain["stdout"]:
            traced["notes"].append("traced rows differ from untraced rows")
            traced["failed"] = traced["attempted"]
        if report["cache_hits"]:
            traced["notes"].append(f"cli.Cache.load returned a payload {report['cache_hits']} times")
            traced["failed"] = traced["attempted"]
        detail["trace_report"] = _summarise_spans(report)
    else:
        setups = setup_times(env, deadline)
        sweeps = []
        start = time.monotonic()
        while True:
            s = sweep(args.workload, env, deadline, expected, refdata, trace=False)
            sweeps.append(s)
            now = time.monotonic()
            if now - start + s["wall_s"] > args.seconds or now + s["wall_s"] > deadline:
                break
        metrics = end_to_end(sweeps, setups, rows)
        detail["setup_s"] = setups

    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    detail["fail_frac"] = failed / attempted
    detail["sweeps"] = [{k: v for k, v in s.items() if k not in ("stdout", "trace")} for s in sweeps]
    print(json.dumps(detail))
    for s in sweeps:
        for note in s["notes"]:
            print(f"{args.workload}: {note}", file=sys.stderr)
    print(
        f"{args.workload}: {len(sweeps)} sweep(s), fail_frac {failed}/{attempted}, "
        + ", ".join(f"{k} {v:.4g}" for k, (v, _) in sorted(metrics.items()) if k in ("sweep_s", "setup_s", "trace_overhead_frac")),
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
