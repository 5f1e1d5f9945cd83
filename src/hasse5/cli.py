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
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import Callable, NamedTuple

from . import VerificationError, __version__, census, fricke as fricke_mod, icosa, modeq, refdata
from .intfactor import is_prime, primes_in

SCHEMA = 1


def _parse_range(spec: str, check: Callable[[int], None]) -> list[int]:
    """The primes > 5 of spec, a prime P or a range LO..HI.  check(q), the
    verdict's entry check, runs first on the largest of them, q, before the
    range is listed: its int64 bounds grow with the prime, so q decides the
    whole range, and a prime past them exits with status 2."""
    try:
        bounds = [int(part) for part in spec.split("..", 1)]
    except ValueError:
        raise SystemExit(f"error: malformed range {spec!r}; expected a prime P or a range LO..HI") from None
    lo, hi = bounds[0], bounds[-1]
    if len(bounds) == 1 and not is_prime(lo):
        raise SystemExit(f"error: {lo} is not prime")
    top = next((q for q in range(hi, max(lo, 6) - 1, -1) if is_prime(q)), None)
    if top is not None:
        try:
            check(top)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            raise SystemExit(2) from None
    primes = [p for p in primes_in(lo, hi) if p > 5]
    if not primes:
        raise SystemExit(f"error: no primes > 5 in range {spec!r}")
    return primes


def _jobs(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


# -- worker functions (top level so process pools can pickle them) ----------


def _payload(verify: str, p: int) -> dict:
    """verify(p), the JSON payload of one prime, for verify a "module.function"
    of this package.  The function is looked up at call time, so a wrapper
    installed on it afterwards (as perfbench's tracer does) is the one called."""
    module, name = verify.split(".")
    return getattr(import_module(f"{__package__}.{module}"), name)(p)


def _attempt(worker: Callable, *args):
    """worker(*args), or {"error": ...} when one of its verifications fails."""
    try:
        return worker(*args)
    except VerificationError as e:
        return {"error": f"{type(e).__name__}: {e}"}


def _source_digest() -> str:
    """sha256 of the package's .py sources: any code change invalidates the cache."""
    import hashlib  # loads OpenSSL (~3.6 MB resident), so only runs that use a cache pay for it

    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Cache:
    def __init__(self, root: str | None, command: str):
        """The cache of one command under root, its directory created now, so
        an unusable path stops the run before any prime is computed rather
        than after all of them."""
        self.dir = Path(root) / command if root else None
        self.digest = _source_digest() if root else None
        if self.dir:
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise SystemExit(f"error: cannot use {root!r} as the cache directory: {e.strerror}") from None

    def load(self, p: int) -> dict | None:
        if not self.dir:
            return None
        try:
            doc = json.loads((self.dir / f"{p}.json").read_text())
        except (OSError, ValueError):  # missing, unreadable or not JSON: a miss
            return None
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA or doc.get("digest") != self.digest:
            return None
        payload = doc.get("payload")
        return payload if isinstance(payload, dict) else None

    def store(self, p: int, payload: dict) -> None:
        if not self.dir:
            return
        doc = {"schema": SCHEMA, "digest": self.digest, "prime": p, "payload": payload}
        path, tmp = self.dir / f"{p}.json", self.dir / f".{p}.json.{os.getpid()}.tmp"
        try:
            tmp.write_text(json.dumps(doc, sort_keys=True))
            os.replace(tmp, path)
        except OSError as e:  # the entry is skipped; the sweep's output does not depend on it
            tmp.unlink(missing_ok=True)
            print(f"warning: cannot write the cache entry {str(path)!r}: {e.strerror}", file=sys.stderr)


def _run_parallel(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor  # here, not at the top: serial runs skip it

    # under fork the pool starts all max_workers processes on the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
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

    worker: Callable[[int], dict]  # prime -> JSON payload; a partial of _payload, so picklable
    check: Callable[[int], None]  # the verdict's entry check: ValueError for a prime past its int64 bounds
    columns: tuple[str, ...]  # text/TSV columns; the first is the prime
    row: Callable[[dict], tuple]  # payload -> the text/TSV values of those columns
    ok: Callable[[int, dict], bool]  # does this payload allow exit status 0


SWEEPS = {
    "census": Sweep(
        partial(_payload, "census.census"),
        census.check_bounds,
        ("l", "N", "predicted", "h(-5l)", "match"),
        lambda d: (d["l"], d["found"], d["predicted"], d["h_minus_5l"], d["match"]),
        lambda p, d: d["match"],
    ),
    "k5p": Sweep(
        partial(_payload, "modeq.verify_class_equation"),
        modeq.check_bounds,
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
        partial(_payload, "fricke.verify_fricke"),
        fricke_mod.check_bounds,
        ("p", "deg", "deg_formula", "linear", "linear_formula", "match"),
        lambda d: (d["p"], d["degree_found"], d["degree_formula"], d["linear_found"], d["linear_formula"], d["match"]),
        lambda p, d: d["match"],
    ),
}


def _reads(sweep: Sweep, p: int, payload: dict) -> bool:
    """Does payload hold every key that the sweep's row and verdict read?"""
    try:
        sweep.row(payload), sweep.ok(p, payload)
    except (KeyError, TypeError):
        return False
    return True


def cmd_sweep(args) -> int:
    """One per-prime command over the range, reusing cached payloads.

    A cached payload lacking a key the command reads is a miss.  A prime
    that fails a verification gets a FAIL row carrying the error text; it
    is never cached and makes the exit status 1.
    """
    sweep = SWEEPS[args.command]
    primes = _parse_range(args.range, sweep.check)
    if args.command == "k5p":
        small = [p for p in primes if p <= 20]
        if small and not args.only_in_s:
            raise SystemExit(f"error: primes {small} are too small: K_5p is rebuilt only for p > 20")
        outside = [p for p in primes if not modeq.in_validity_range(p)]
        if outside and not args.force and not args.only_in_s:
            raise SystemExit(
                f"error: primes {outside} are outside the validity range "
                "(the 22 exceptional primes and p > 379); pass --force to run anyway"
            )
        if args.only_in_s:
            primes = [p for p in primes if p in refdata.S_SET]
            if not primes:
                raise SystemExit(f"error: no prime of S in range {args.range!r}")
    cache = Cache(args.cache, args.command)
    cached = {p: d for p in primes if (d := cache.load(p)) is not None and _reads(sweep, p, d)}
    todo = [p for p in primes if p not in cached]
    fresh = dict(zip(todo, _run_parallel(partial(_attempt, sweep.worker), todo, args.jobs)))
    key, last = sweep.columns[0], sweep.columns[-1]
    rows = []
    ok = True
    for p in primes:
        payload = fresh[p] if p in fresh else cached[p]
        error = payload.get("error")
        if error:
            ok = False
            rows.append({key: p, "error": error} if args.format == "json" else {key: p, last: f"FAIL: {error}"})
            continue
        if p in fresh:
            cache.store(p, payload)
        ok = ok and sweep.ok(p, payload)
        rows.append(payload if args.format == "json" else dict(zip(sweep.columns, sweep.row(payload))))
    _emit(rows, sweep.columns, args.format, sys.stdout)
    return 0 if ok else 1


def _sporadic_matches(key: tuple[int, int]) -> bool:
    """A printed sporadic value: case 3 is one gcd, cases 1 and 2 a norm and a gcd.

    The printed gcd of d=96 case 2 carries a spurious 71; the corrected value
    and that exact discrepancy are checked instead.
    """
    got, printed = modeq.sporadic_case(*key), refdata.SPORADIC_GCD[key]
    if key[1] == 3:
        return got == printed
    if key == (96, 2):
        return got == (refdata.SPORADIC_NQ[key], refdata.SPORADIC_GCD_96_2_CORRECTED) and printed == 71 * got[1]
    return got == (refdata.SPORADIC_NQ[key], printed)


def _charzero_fast() -> list[tuple[str, Callable[[], bool]]]:
    checks = [
        ("Q5 constant term", lambda: modeq.Q5.eval(0, 0) == refdata.Q5_CONSTANT),
        ("Phi5 diagonal factorization", modeq.check_phi5_diagonal),
        ("disc_y(Phi5) identity", lambda: modeq.check_discy() is None),
    ]
    for t, want in refdata.F2_AT.items():
        checks.append((f"F''({t})", lambda t=t, want=want: modeq.diag_derivs(t) == (0, 0, want)))
    checks.append(("H_-20 root A, B", lambda: modeq.h20_root_data()[1:3] == (refdata.H20_A, refdata.H20_B)))
    checks.append(("H_-20 root A^2-5B^2", lambda: modeq.h20_root_data()[3] == refdata.H20_A2_5B2))
    for d, want in refdata.TABLE1_GCD.items():
        checks.append((f"gcd(D1,D2) at H_-{d}", lambda d=d, want=want: modeq.table1_gcd(d) == want))
    for d, want in refdata.DISC_HD.items():
        checks.append((f"disc(H_-{d})", lambda d=d, want=want: modeq._disc_hd()[d] == want))
    for key in refdata.SPORADIC_GCD:
        label = f"sporadic d={key[0]} case {key[1]}"
        if key == (96, 2):
            label = "sporadic d=96 case 2 [printed gcd carries a spurious 71]"
        checks.append((label, partial(_sporadic_matches, key)))
    for d in refdata.DISC_QD:
        checks.append((f"theta value d={d}", lambda d=d: modeq.table5_value(d) == refdata.table5_expected(d)))
    for d, want in refdata.DISC_QD.items():
        if d == 51:
            # the printed value omits 17^4: check the corrected value and that exact discrepancy
            checks.append((
                "disc(Q_51) [printed value omits 17^4]",
                lambda: modeq.qd_disc(51) == refdata.DISC_QD_51_CORRECTED == refdata.DISC_QD[51] * 17**4,
            ))
        else:
            checks.append((f"disc(Q_{d})", lambda d=d, want=want: modeq.qd_disc(d) == want))
    checks.append(("parametrization disc identity", fricke_mod.section7_identity_disc))
    checks.append(("parametrization Res_t identity", fricke_mod.section7_identity_res_t))
    checks.append(("parametrization Res_z identity", fricke_mod.section7_identity_res_z))
    return checks


def _charzero_heavy() -> list[tuple[str, Callable[[], bool]]]:
    checks = [("5^15 Phi5 resultant definition", modeq.phi5_resultant_definition_holds)]
    for d, want in refdata.RESULTANT_RD.items():
        checks.append((f"cofactor resultant R({d})", lambda d=d, want=want: modeq.cofactor_resultant(d) == want))
    checks += [(f"icosahedral ledger: {name}", check) for name, check in icosa.ledger_checks().items()]
    return checks


def cmd_charzero(args) -> int:
    """The exact identities, one row each.

    A check that fails a verification gets a FAIL status carrying the error
    text; the later checks still run and the exit status is 1.
    """
    checks = []
    if args.suite in ("fast", "all"):
        checks += _charzero_fast()
    if args.suite in ("heavy", "all"):
        checks += _charzero_heavy()
    rows = []
    for label, check in checks:
        got = _attempt(check)  # a bool, or {"error": ...}
        status = f"FAIL: {got['error']}" if isinstance(got, dict) else "PASS" if got else "FAIL"
        rows.append({"check": label, "status": status})
    _emit(rows, ["check", "status"], args.format, sys.stdout)
    return 0 if all(r["status"] == "PASS" for r in rows) else 1


def cmd_tables(args) -> int:
    """A reference table, one row per listed prime, recomputed and compared.

    A prime that fails a verification gets a FAIL status carrying the error
    text and makes the exit status 1, as in the sweeps.
    """
    which = args.which
    if which in ("6", "7", "8", "9"):
        key, worker, table = "l", SWEEPS["census"].worker, refdata.CENSUS_TABLES[int(which)]
        fields = (("N_ref", "N", "found"), ("h_ref", "h(-5l)", "h_minus_5l"))
    elif which == "10":
        key, worker, table = "p", SWEEPS["fricke"].worker, refdata.FRICKE_TABLE
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
        # census, k5p, fricke and charzero take --jobs (tables does not);
        # charzero runs serially and accepts it only so that scripts can pass it
        p.add_argument("--jobs", type=_jobs, default=1)

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
