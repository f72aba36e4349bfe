"""Running ops, timing them and turning the timings into end-to-end metrics."""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Optional

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# (name, unit, better) of every end-to-end metric
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it

# Other tenants of a shared host slow its cores by up to half, in bursts of
# 0.5-3 s and in phases of minutes, so the same ops can read 30% apart from
# run to run.  A fixed calibration kernel is timed between consecutive ops,
# and each op's time is rescaled to a core that runs the kernel in
# CALIBRATION_REF_S:  scaled = seconds * CALIBRATION_REF_S / kernel, with
# kernel the median of the four timings nearest the op (two before, two
# after), which a single interrupted timing does not move.  The reference is
# about the kernel's time on a quiet core of the 2-vCPU Xeon host the
# benchmark was written on, so scaled times read close to quiet-host times.
CALIBRATION_REF_S = 1.9e-4


@dataclass
class Record:
    index: int
    tag: str
    seconds: float          # wall time of the op, as measured
    error: Optional[str]
    kernel_s: float = math.nan  # calibration kernel time around the op, see run_ops

    @property
    def scaled(self):
        return self.seconds * CALIBRATION_REF_S / self.kernel_s


def calibration():
    """Seconds the calibration kernel takes now.

    About a third each of Python arithmetic, small numpy operations and
    scipy quadrature of a Bessel-function integrand: the mix propertime's
    hot loops run.
    """
    import numpy as np  # not at module level: the runner pins threads first
    from scipy.integrate import quad
    from scipy.special import k1

    def integrand(z):
        return float(k1(1.0 + z)) / (1.0 + z)

    v = np.array([0.3, -1.2, 2.5])
    t0 = time.perf_counter()
    total = 0
    for i in range(1500):
        total += i * i
    for _ in range(30):
        w = 1.5 * v + v
        total += float(np.sqrt(w @ w))
    for _ in range(8):
        total += quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)[0]
    return time.perf_counter() - t0


def run_op(op, tracer=None, corrupt=False):
    """Run and time one op, then check its output: (Record, result)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            tracer.on = True
            try:
                result = tracer.root(op.index, op.tag, op.run)
            finally:
                tracer.on = False
    except (Exception, SystemExit) as exc:  # an op that raises or exits has failed
        return Record(op.index, op.tag, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"), None
    seconds = time.perf_counter() - t0
    try:
        if corrupt:
            result = op.corrupt(result)
        error = op.check(result)
    except Exception as exc:  # a check that cannot read the output fails the op
        error = f"check raised {type(exc).__name__}: {exc}"
    return Record(op.index, op.tag, seconds, error), result


def run_ops(workload, indices, tracer=None, corrupt=False, fingerprints=None, seconds=math.inf):
    """Closed loop, one caller: run the ops in order until the indices run out
    or the ops' summed wall time reaches ``seconds``.

    Keeps fingerprints of the ops named in ``fingerprints``.  The calibration
    kernel runs between consecutive ops, outside their timing.
    """
    records, kernels, busy = [], [calibration()], 0.0
    for i in indices:
        if busy >= seconds:
            break
        op = workload.op(i)
        record, result = run_op(op, tracer, corrupt)
        kernels.append(calibration())
        records.append(record)
        busy += record.seconds
        if fingerprints is not None and i in fingerprints and record.error is None:
            fingerprints[i] = op.fingerprint(result)
    for j, record in enumerate(records):  # kernels[j] ran just before op j
        record.kernel_s = statistics.median(kernels[max(0, j - 1):j + 3])
    return records


def ops_per_s(records, scaled=True):
    busy = sum(r.scaled if scaled else r.seconds for r in records)
    return sum(r.error is None for r in records) / busy if busy else 0.0


def tail(latencies):
    """(value, percentile, samples beyond) of the highest percentile with
    ``TAIL_BEYOND`` samples above it; the maximum when there are too few."""
    lat = sorted(latencies)
    n = len(lat)
    beyond = min(TAIL_BEYOND, n - 1)
    return lat[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(records, setups, peak_rss_mb):
    """Every END_TO_END metric value, plus the details printed beside them.

    Times are scaled to the reference core (see CALIBRATION_REF_S); the
    wall times as measured go into the details.  ``setups`` holds (wall
    seconds, kernel seconds) of each set-up probe.  Latency percentiles are
    over the ops that passed; failed ops show in ``ok_frac`` and in
    ``failed``.
    """
    ok = [r for r in records if r.error is None]
    scaled = [r.scaled for r in ok] or [math.nan]
    wall = [r.seconds for r in ok] or [math.nan]
    tail_s, pct, beyond = tail(scaled)
    setup_scaled = [w * CALIBRATION_REF_S / k for w, k in setups]
    values = {
        "ops_per_s": ops_per_s(records),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": len(ok) / len(records),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    kernel = statistics.median(r.kernel_s for r in records)
    details = {
        "ops_per_s": f"wall {ops_per_s(records, scaled=False):.6g}; "
                     f"core at {CALIBRATION_REF_S / kernel:.3f} of reference speed",
        "op_p50_ms": f"wall {1e3 * statistics.median(wall):.6g}",
        "op_tail_ms": f"wall {1e3 * tail(wall)[0]:.6g}; p{pct:.2f}, "
                      f"{beyond} of {len(ok)} passed ops beyond it",
        "ok_frac": f"failed_frac = {1.0 - values['ok_frac']:.6g}",
        "setup_s": f"median of {len(setups)} fresh interpreters; wall "
                   + ", ".join(f"{w:.3f}" for w, _ in setups),
    }
    return values, details


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "executable": os.path.basename(sys.executable),
    }


def max_deviation(fingerprints, reference):
    """Largest deviation of an op's fingerprint from the recorded one, relative
    to the largest recorded value of that op; (deviation, ops compared)."""
    worst, compared = 0.0, 0
    for key, ref in reference.items():
        got = fingerprints.get(int(key))
        if not isinstance(got, list):
            continue
        compared += 1
        if len(got) != len(ref):
            return math.inf, compared
        scale = max(max(abs(v) for v in ref), 1e-300)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref)) / scale)
    return worst, compared
