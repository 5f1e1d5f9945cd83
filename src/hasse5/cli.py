"""Command-line front end: sweep orchestration, caching, and table rendering.

    hasse5 census|k5p|fricke|charzero|tables [range] [options]

Ranges are single primes ("13") or inclusive spans ("7..379"); only primes in
the span are visited.  Reports are emitted as text, TSV, or JSON lines, cached
one JSON document per prime per command, and the exit status is 0 exactly when
every verification in the run matched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import VerificationError, __version__, census as census_mod, fricke as fricke_mod, icosa, modeq, refdata
from .intfactor import is_prime, primes_in

SCHEMA = 1


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        primes = primes_in(int(lo), int(hi))
    else:
        n = int(spec)
        if not is_prime(n):
            raise SystemExit(f"error: {n} is not prime")
        primes = [n]
    primes = [p for p in primes if p > 5]
    if not primes:
        raise SystemExit(f"error: no primes > 5 in range {spec!r}")
    return primes


# -- worker functions (top level so process pools can pickle them) ----------


def _census_payload(l: int) -> dict:
    return census_mod.census(l).to_dict()


def _k5p_payload(p: int, force: bool) -> dict:
    return modeq.verify_class_equation(p, force=force).to_dict()


def _fricke_payload(p: int) -> dict:
    return fricke_mod.verify_fricke(p).to_dict()


def _attempt(worker: Callable[[int], dict], p: int) -> dict:
    """worker(p), or {"error": ...} when one of its verifications fails."""
    try:
        return worker(p)
    except (VerificationError, modeq.StructureMismatch) as e:
        return {"error": f"{type(e).__name__}: {e}"}


def _source_digest() -> str:
    """sha256 of the package's .py sources: any code change invalidates the cache."""
    import hashlib  # loads OpenSSL (~3.6 MB resident), so only runs that use a cache pay for it

    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Cache:
    def __init__(self, root: str | None):
        self.root = Path(root) if root else None
        self.digest = _source_digest() if root else None

    def load(self, command: str, p: int) -> dict | None:
        if not self.root:
            return None
        path = self.root / command / f"{p}.json"
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            return None
        if doc.get("schema") == SCHEMA and doc.get("digest") == self.digest:
            return doc["payload"]
        return None

    def store(self, command: str, p: int, payload: dict) -> None:
        if not self.root:
            return
        d = self.root / command
        d.mkdir(parents=True, exist_ok=True)
        doc = {"schema": SCHEMA, "digest": self.digest, "prime": p, "payload": payload}
        tmp = d / f".{p}.json.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, d / f"{p}.json")


def _run_parallel(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=1))


def _emit(rows: list[dict], columns: list[str], fmt: str, out) -> None:
    if fmt == "json":
        for r in rows:
            out.write(json.dumps(r, sort_keys=True) + "\n")
        return
    if fmt == "tsv":
        out.write("\t".join(columns) + "\n")
        for r in rows:
            out.write("\t".join(str(r.get(c, "")) for c in columns) + "\n")
        return
    if not rows:
        out.write("  ".join(columns) + "\n")
        return
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    out.write("  ".join(c.ljust(widths[c]) for c in columns) + "\n")
    for r in rows:
        out.write("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns) + "\n")


class Sweep(NamedTuple):
    """One per-prime sweep command: what it computes and how it reports it."""

    worker: Callable[..., dict]  # prime -> JSON payload; top level, so picklable
    columns: tuple[str, ...]  # text/TSV columns; the first is the prime
    row: Callable[[dict], tuple]  # payload -> the text/TSV values of those columns
    ok: Callable[[int, dict], bool]  # does this payload allow exit status 0


SWEEPS = {
    "census": Sweep(
        _census_payload,
        ("l", "N", "predicted", "h(-5l)", "match"),
        lambda d: (d["l"], d["found"], d["predicted"], d["h_minus_5l"], d["match"]),
        lambda p, d: d["match"],
    ),
    "k5p": Sweep(
        _k5p_payload,
        ("p", "deg", "a_p*h(-5p)", "N_p", "identity", "structure", "notes"),
        lambda d: (
            d["p"],
            d["degree"],
            d["a_p"] * d["h_minus_5p"],
            d["N_p"],
            d["identity_holds"],
            d["structure_ok"],
            "; ".join(d["mismatches"] + d["sporadic_notes"]),
        ),
        lambda p, d: not modeq.in_validity_range(p) or (d["structure_ok"] and d["identity_holds"]),
    ),
    "fricke": Sweep(
        _fricke_payload,
        ("p", "deg", "deg_formula", "linear", "linear_formula", "match"),
        lambda d: (d["p"], d["degree_found"], d["degree_formula"], d["linear_found"], d["linear_formula"], d["match"]),
        lambda p, d: d["match"],
    ),
}


def cmd_sweep(args) -> int:
    """One per-prime command over the range, reusing cached payloads.

    A prime that fails a verification gets a FAIL row carrying the error
    text; it is never cached and makes the exit status 1.
    """
    sweep = SWEEPS[args.command]
    primes = _parse_range(args.range)
    worker = sweep.worker
    cache_key = args.command
    if args.command == "k5p":
        outside = [p for p in primes if not modeq.in_validity_range(p)]
        if outside and not args.force and not args.only_in_s:
            raise SystemExit(
                f"error: primes {outside} are outside the validity range "
                "(the 22 exceptional primes and p > 379); pass --force to run anyway"
            )
        if args.only_in_s:
            primes = [p for p in primes if p in refdata.S_SET]
        worker = partial(worker, force=args.force)
        if args.force:
            # a forced run reports an in-range mismatch as a row; an unforced
            # run must fail on it, so the two never share cache entries
            cache_key = "k5p-force"
    cache = Cache(args.cache)
    cached = {p: cache.load(cache_key, p) for p in primes}
    todo = [p for p in primes if cached[p] is None]
    fresh = dict(zip(todo, _run_parallel(partial(_attempt, worker), todo, args.jobs)))
    key, last = sweep.columns[0], sweep.columns[-1]
    rows = []
    ok = True
    for p in primes:
        payload = cached[p] or fresh[p]
        error = payload.get("error")
        if error:
            ok = False
            rows.append({key: p, "error": error} if args.format == "json" else {key: p, last: f"FAIL: {error}"})
            continue
        if p in fresh:
            cache.store(cache_key, p, payload)
        ok = ok and sweep.ok(p, payload)
        rows.append(payload if args.format == "json" else dict(zip(sweep.columns, sweep.row(payload))))
    _emit(rows, sweep.columns, args.format, sys.stdout)
    return 0 if ok else 1


def _charzero_fast() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    checks.append(("Q5 constant term", modeq.Q5.eval(0, 0) == refdata.Q5_CONSTANT))
    checks.append(("Phi5 diagonal factorization", modeq.check_phi5_diagonal()))
    checks.append(("disc_y(Phi5) identity", modeq.check_discy() is None))
    for t, want in refdata.F2_AT.items():
        F, F1, F2 = modeq.diag_derivs(t)
        checks.append((f"F''({t})", F == 0 and F1 == 0 and F2 == want))
    _, A, B, n = modeq.h20_root_data()
    checks.append(("H_-20 root A, B", A == refdata.H20_A and B == refdata.H20_B))
    checks.append(("H_-20 root A^2-5B^2", n == refdata.H20_A2_5B2))
    for d, want in refdata.TABLE1_GCD.items():
        checks.append((f"gcd(D1,D2) at H_-{d}", modeq.table1_gcd(d) == want))
    disc_hd = modeq._disc_hd()
    for d, want in refdata.DISC_HD.items():
        checks.append((f"disc(H_-{d})", disc_hd[d] == want))
    for key, want in refdata.SPORADIC_GCD.items():
        got = modeq.sporadic_case(*key)
        if key[1] == 3:
            okk = got == want
            label = f"sporadic d={key[0]} case {key[1]}"
        else:
            nq, g = got
            if key == (96, 2):
                okk = nq == refdata.SPORADIC_NQ[key] and g == refdata.SPORADIC_GCD_96_2_CORRECTED
                label = "sporadic d=96 case 2 [printed gcd carries a spurious 71]"
            else:
                okk = nq == refdata.SPORADIC_NQ[key] and g == want
                label = f"sporadic d={key[0]} case {key[1]}"
        checks.append((label, okk))
    for d in refdata.DISC_QD:
        got = modeq.table5_value(d)
        checks.append((f"theta value d={d}", got == refdata.table5_expected(d)))
    for d, want in refdata.DISC_QD.items():
        got = modeq.qd_disc(d)
        if d == 51:
            checks.append(
                ("disc(Q_51) [printed value omits 17^4]", got == refdata.DISC_QD_51_CORRECTED)
            )
        else:
            checks.append((f"disc(Q_{d})", got == want))
    checks.append(("parametrization disc identity", fricke_mod.section7_identity_disc()))
    checks.append(("parametrization Res_t identity", fricke_mod.section7_identity_res_t()))
    checks.append(("parametrization Res_z identity", fricke_mod.section7_identity_res_z()))
    return checks


def _charzero_heavy() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    checks.append(("5^15 Phi5 resultant definition", modeq.phi5_resultant_definition_holds()))
    for d, want in refdata.RESULTANT_RD.items():
        checks.append((f"cofactor resultant R({d})", modeq.cofactor_resultant(d) == want))
    for name, okk in icosa.equality_ledger().items():
        checks.append((f"icosahedral ledger: {name}", okk))
    return checks


def cmd_charzero(args) -> int:
    checks = []
    if args.suite in ("fast", "all"):
        checks += _charzero_fast()
    if args.suite in ("heavy", "all"):
        checks += _charzero_heavy()
    rows = [{"check": name, "status": "PASS" if okk else "FAIL"} for name, okk in checks]
    _emit(rows, ["check", "status"], args.format, sys.stdout)
    return 0 if all(okk for _, okk in checks) else 1


def cmd_tables(args) -> int:
    """A reference table, one row per listed prime, recomputed and compared.

    A prime that fails a verification gets a FAIL status carrying the error
    text and makes the exit status 1, as in the sweeps.
    """
    which = args.which
    if which in ("6", "7", "8", "9"):
        key, worker, table = "l", _census_payload, refdata.CENSUS_TABLES[int(which)]
        fields = (("N_ref", "N", "found"), ("h_ref", "h(-5l)", "h_minus_5l"))
    elif which == "10":
        key, worker, table = "p", _fricke_payload, refdata.FRICKE_TABLE
        fields = (("deg_ref", "deg", "degree_found"), ("linear_ref", "linear", "linear_found"))
    else:
        raise SystemExit(f"error: unknown table {which!r} (expected 6..10)")
    ok = True
    rows = []
    for prime, *refs in table:
        payload = _attempt(worker, prime)
        error = payload.get("error")
        good = not error and payload["match"]
        row = {key: prime}
        for (ref_col, col, field), ref in zip(fields, refs):
            row[ref_col] = ref
            if not error:
                row[col] = payload[field]
                good = good and payload[field] == ref
        row["status"] = f"FAIL: {error}" if error else "PASS" if good else "FAIL"
        ok = ok and good
        rows.append(row)
    columns = [key] + [c for ref_col, col, _ in fields for c in (ref_col, col)] + ["status"]
    _emit(rows, columns, args.format, sys.stdout)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="hasse5", description=__doc__)
    ap.add_argument("--version", action="version", version=f"hasse5 {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, sweep=True):
        if sweep:
            p.add_argument("range", help="prime or inclusive range lo..hi")
            p.add_argument("--cache", default=os.environ.get("HASSE5_CACHE"))
        p.add_argument("--format", choices=("json", "tsv", "text"), default="text")
        # charzero runs serially but accepts --jobs, so scripts can pass it to every command
        p.add_argument("--jobs", type=int, default=1)

    pc = sub.add_parser("census", help="special-factor counts of the Hasse invariant vs. h(-5l)")
    common(pc)
    pk = sub.add_parser("k5p", help="class-equation factorization structure mod p")
    common(pk)
    pk.add_argument("--force", action="store_true",
                    help="also run primes outside the validity range; their mismatches are reported, not failed")
    pk.add_argument("--only-in-S", dest="only_in_s", action="store_true",
                    help="restrict the range to the 22 exceptional primes")
    pf = sub.add_parser("fricke", help="degree and linear-factor count of the Fricke polynomial")
    common(pf)
    pz = sub.add_parser("charzero", help="exact characteristic-zero identity suite")
    common(pz, sweep=False)
    pz.add_argument("--suite", choices=("fast", "heavy", "all"), default="fast")
    pt = sub.add_parser("tables", help="render a reference table with PASS/FAIL column")
    pt.add_argument("which", help="table id: 6, 7, 8, 9 (census) or 10 (fricke)")
    pt.add_argument("--format", choices=("json", "tsv", "text"), default="text")

    args = ap.parse_args(argv)
    dispatch = {
        "census": cmd_sweep,
        "k5p": cmd_sweep,
        "fricke": cmd_sweep,
        "charzero": cmd_charzero,
        "tables": cmd_tables,
    }
    return dispatch[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
