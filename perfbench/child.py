"""One fresh-interpreter measurement, started by run.py.

    python3 child.py import                    time `import hasse5.cli`
    python3 child.py sweep [--trace] -- ARGV   time `hasse5 ARGV` after import

The last line of standard output is one JSON object.  A sweep captures the
CLI's own output, so a traceback or non-zero exit is reported, not raised.

Untraced measurements also time a fixed reference loop (``SpeedProbe``):
once before and once after, and for a sweep every ``PROBE_PERIOD_S`` of wall
time in between, from a SIGALRM handler.  run.py uses these samples to scale
the program's time to a host of fixed speed; the probes' own time is not
counted as the program's.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter, process_time

PROBE_PERIOD_S = 0.25


class _Pair:
    """A small value class, like the field elements hasse5 computes with."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def __mul__(self, o: "_Pair") -> "_Pair":
        return _Pair((self.a * o.a + 3 * self.b * o.b) % 10007, (self.a * o.b + self.b * o.a) % 10007)

    def __add__(self, o: "_Pair") -> "_Pair":
        return _Pair((self.a + o.a) % 10007, (self.b + o.b) % 10007)


def reference_loop() -> None:
    """A few milliseconds of fixed work, of the three kinds hasse5 does.

    Half is integer arithmetic in the interpreter, a quarter is method calls
    on small objects, a quarter is numpy operations on short slices.  A host
    that slows down slows these kinds by different amounts (by 1.3x to 1.8x
    on the host where the benchmark was written), and hasse5's sweeps fall in
    between.  The loop calls nothing in hasse5, so a change to hasse5 does not
    change it.
    """
    import numpy as np

    s = 0
    for i in range(18_000):
        s = (s * 31 + i) % 1000003
    x, acc = _Pair(3, 5), _Pair(0, 0)
    for _ in range(500):
        x = x * x + _Pair(1, 2)
        acc = acc + x
    r = np.arange(512, dtype=np.int64)
    g = np.arange(1, 9, dtype=np.int64)
    for k in range(200):
        j = k & 255
        t = int(r[j] % 1009) * 7 % 1009
        r[j : j + 8] = (r[j : j + 8] - t * g) % 1009


class SpeedProbe:
    """Samples the host's current speed by timing ``reference_loop``.

    Each sample is ``(start, wall_s, cpu_s)``, with ``start`` on the
    ``perf_counter`` clock.  While active, a sample is taken every
    ``PROBE_PERIOD_S`` seconds of wall time; the handler runs between
    bytecodes of the main thread, so a long C call delays it but is never
    split.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, *_) -> None:
        c0 = process_time()
        t0 = perf_counter()
        reference_loop()
        self.samples.append((t0, perf_counter() - t0, process_time() - c0))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def relative_to(self, t0: float) -> list[list[float]]:
        return [[t - t0, w, c] for t, w, c in self.samples]


def _time_import() -> dict:
    t0 = perf_counter()
    import hasse5.cli  # noqa: F401

    import_s = perf_counter() - t0
    # Sampled after the import only: the loop's numpy part would import numpy.
    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    return {"import_s": import_s, "probes": probe.relative_to(t0)}


def _sweep(argv: list[str], trace: bool) -> dict:
    import hasse5
    import hasse5.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = None if trace else SpeedProbe()
    buf = io.StringIO()
    error = None
    if probe is not None:
        probe.start()
    u0 = os.times()
    t0 = perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # any failure of the program under test is a result
        rc = 1
        error = traceback.format_exc()
    if probe is not None:
        probe.stop()
    span_s = perf_counter() - t0
    u1 = os.times()
    probes = []
    if probe is not None:
        probe.sample()
        probes = probe.relative_to(t0)
    inner = [p for p in probes if 0 <= p[0] < span_s]
    out = {
        "package": os.path.dirname(hasse5.__file__),
        "rc": rc,
        "error": error,
        "stdout": buf.getvalue(),
        "span_s": span_s,
        "sweep_s": span_s - sum(p[1] for p in inner),
        "cpu_s": (u1.user - u0.user) + (u1.system - u0.system) - sum(p[2] for p in inner),
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    return out


def main() -> int:
    mode = sys.argv[1]
    if mode == "import":
        result = _time_import()
    elif mode == "sweep":
        rest = sys.argv[2:]
        trace = rest[:1] == ["--trace"]
        argv = rest[rest.index("--") + 1 :]
        result = _sweep(argv, trace)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
