#!/usr/bin/env python3
"""Benchmark of propertime: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import harness

for _var in harness.THREAD_VARS:  # one thread per process, set before numpy loads
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_PROBES = 7
REFERENCE_OPS = 64
WORKLOAD_NAMES = ("scenarios", "trajectories", "field_map", "spectral_evolve")

# ROADMAP item 1 figures (ms unless noted), printed beside the measured ones
ROADMAP_BASELINES = {
    "RK4 step, Coulomb orbit (us)": 178.0,
    "fields_at, uniform source (ms/point)": 0.6,
    "fields_at, oscillating source (ms/point)": 2.9,
    "fields_at, sampled source (ms/point)": None,
    "SqrtOperator1D table, n=256 (ms)": 153.0,
    "SqrtOperator1D table, n=1024 (ms)": 617.0,
    "verify_algebra, n=3 (ms)": 21.0,
    "verify_algebra, n=10 (ms)": 64.0,
    "verify_algebra, n=30 (ms)": 97.0,
    "free_flight, n=10, 1000 steps (ms)": 214.0,
}


class ProgramMissing(Exception):
    pass


def load_program():
    if not os.path.isfile(os.path.join(SRC, "propertime", "__init__.py")):
        raise ProgramMissing(f"no propertime package under {SRC}")
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    import workloads

    return workloads


def probe(name, seed, ops=0):
    """Run probe.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), "--workload", name,
         "--seed", str(seed), "--ops", str(ops)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(name, seed):
    if seed != DEFAULT_SEED or not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(name)


def final_line(values, units, attempted, failed):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })


def mix(records):
    counts = {}
    for r in records:
        counts[r.tag] = counts.get(r.tag, 0) + 1
    return ", ".join(f"{tag} {n}" for tag, n in sorted(counts.items()))


def failures(records, limit=5):
    bad = [r for r in records if r.error is not None]
    return [f"op {r.index} ({r.tag}): {r.error}" for r in bad[:limit]]


def deviation_line(fingerprints, reference):
    if reference is None:
        return "deviation from recorded outputs: not checked (default seed only)"
    worst, compared = harness.max_deviation(fingerprints, reference)
    return f"deviation from recorded outputs (seed {DEFAULT_SEED}): {worst:.3e} relative, over {compared} ops"


def timed_probe(name, seed):
    """(wall set-up seconds, calibration kernel seconds) of one probe.

    The kernel runs in this process, which waits while the probe runs, just
    before and just after it: a kernel timed in the just-started probe reads
    too unevenly to scale by.
    """
    before = harness.calibration()
    setup = probe(name, seed)["setup_s"]
    return setup, 0.5 * (before + harness.calibration())


def measure(wl_mod, name, seed, seconds):
    """Untraced run: the END_TO_END metrics."""
    setup = [timed_probe(name, seed) for _ in range(SETUP_PROBES)]
    reference = load_reference(name, seed)
    prints = dict.fromkeys(map(int, reference), None) if reference else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        records = harness.run_ops(wl_mod.make(name, seed, tmp), itertools.count(),
                                  fingerprints=prints, seconds=seconds)
    values, details = harness.end_to_end(records, setup, harness.peak_rss_mb())
    units = {n: u for n, u, _ in harness.END_TO_END}
    lines = [f"{n:<12} = {values[n]:.6g} {units[n]}" + (f"   ({details[n]})" if n in details else "")
             for n in units]
    lines += [f"mix: {mix(records)}", deviation_line(prints, reference), *failures(records)]
    failed = sum(r.error is not None for r in records)
    return values, units, len(records), failed, lines


def baselines(name, untraced_tags, spans):
    """ROADMAP item-1 figures this workload's traced run can reproduce."""
    import workloads

    got = {}
    med = untraced_tags.get
    if name == "trajectories" and med("orbit.coulomb"):
        got["RK4 step, Coulomb orbit (us)"] = 1e6 * med("orbit.coulomb") / workloads.Trajectories.steps
    if name == "trajectories" and med("free_flight.n10"):
        got["free_flight, n=10, 1000 steps (ms)"] = 1e3 * med("free_flight.n10")
    if name == "field_map":
        for kind in ("uniform", "oscillating", "sampled"):
            if med(f"field.{kind}"):
                got[f"fields_at, {kind} source (ms/point)"] = 1e3 * med(f"field.{kind}")
    if name == "spectral_evolve":
        for n in (256, 1024):
            if med(f"table.n{n}"):
                got[f"SqrtOperator1D table, n={n} (ms)"] = 1e3 * med(f"table.n{n}")
    by_n = {}
    for s in spans:
        if s[2] == "many.verify_algebra" and s[8]:
            by_n.setdefault(s[8]["n"], []).append(s[6] - s[5])
    for n in (3, 10, 30):
        if n in by_n:
            got[f"verify_algebra, n={n} (ms)"] = 1e3 * statistics.median(by_n[n])
    lines = []
    for label, value in got.items():
        roadmap = ROADMAP_BASELINES.get(label)
        ref = "no ROADMAP figure" if roadmap is None else f"ROADMAP {roadmap:g}"
        lines.append(f"baseline {label}: {value:.4g}   ({ref})")
    return lines


def measure_traced(wl_mod, name, seed):
    """Traced run over a fixed prefix of ops, so that its counts repeat exactly.

    The untraced reference pass of the same ops runs in a fresh interpreter
    first; the traced pass then runs in this process, which has run no op yet.
    """
    import tracing

    workload_cls = wl_mod.WORKLOADS[name]
    indices = range(workload_cls.trace_ops)
    untraced = probe(name, seed, ops=len(indices))
    reference = load_reference(name, seed)
    prints = dict.fromkeys(map(int, reference), None) if reference else None
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = wl_mod.make(name, seed, tmp)
        tracer.install()
        try:
            records = harness.run_ops(workload, indices, tracer, fingerprints=prints)
        finally:
            tracer.uninstall()
        values = tracing.layer_metrics(tracer, harness.ops_per_s(records), untraced["ops_per_s"])
    tracer.write_spans(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
    units = {n: u for n, u, _ in tracing.PER_LAYER}
    lines = [f"{n:<45} = {values[n]:.6g} {units[n]}" for n in units]
    lines.append(f"traced ops: {len(records)} ({mix(records)})")
    for group, tags in (("all ops", None), ("cheap scenario ops", tracing.CHEAP_SCENARIOS)):
        shares = tracing.self_shares(tracer.spans, tags)
        if any(shares.values()):
            lines.append(f"self-time share, {group}: "
                         + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    if tracer.missing:
        lines.append("trace targets not found: " + ", ".join(tracer.missing))
    lines += baselines(name, untraced["tag_median_s"], tracer.spans)
    lines += [deviation_line(prints, reference), *failures(records)]
    attempted = len(records) + untraced["attempted"]
    failed = sum(r.error is not None for r in records) + untraced["failed"]
    return values, units, attempted, failed, lines


def run_one(args):
    wl_mod = load_program()
    if args.trace:
        values, units, attempted, failed, lines = measure_traced(wl_mod, args.workload, args.seed)
    else:
        values, units, attempted, failed, lines = measure(wl_mod, args.workload, args.seed, args.seconds)
    env = harness.environment(args.seed)
    header = [
        f"propertime benchmark: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds}, trace {args.trace}",
        "environment: " + json.dumps(env, sort_keys=True),
    ]
    result = final_line(values, units, attempted, failed)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "result": json.loads(result), "report": lines}, fh, indent=1)
    print("\n".join(header + lines))
    print(result)
    return 0


def run_all(args):
    """Every workload in its own process; prints a table of every metric."""
    load_program()
    collected, rows = {}, []
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            collected[f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        if not args.trace:
            rows.append((name, "failed_frac", result["failed"] / result["attempted"], "frac"))
    print("\nsummary")
    for name, metric, value, unit in rows:
        print(f"  {name:<16} {metric:<45} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": collected}))
    return 0


def sample_indices(workload):
    """Index of the first op of each tag in one cycle."""
    first = {}
    for i in range(len(workload.cycle)):
        first.setdefault(workload.op(i).tag, i)
    return sorted(first.values())


def smoke_pass(wl_mod, name, tmp, corrupt=False):
    """A few ops of one workload, untraced then traced: (values, layer values, records)."""
    import tracing

    workload = wl_mod.make(name, DEFAULT_SEED, tmp)
    indices = sample_indices(workload)
    plain = harness.run_ops(workload, indices, corrupt=corrupt)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = harness.run_ops(workload, indices, tracer, corrupt=corrupt)
    finally:
        tracer.uninstall()
    values, _ = harness.end_to_end(plain, [timed_probe(name, DEFAULT_SEED)], harness.peak_rss_mb())
    layers = tracing.layer_metrics(tracer, harness.ops_per_s(traced), harness.ops_per_s(plain))
    return values, layers, plain + traced


def smoke(_args):
    wl_mod = load_program()
    bad = 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in WORKLOAD_NAMES:
            values, layers, records = smoke_pass(wl_mod, name, tmp)
            n_bad = sum(r.error is not None for r in records)
            bad += n_bad
            print(f"{name:<16} {len(records)} ops, {n_bad} failed, "
                  f"ops_per_s {values['ops_per_s']:.4g}, op_p50_ms {values['op_p50_ms']:.4g}, "
                  f"traced ops_per_s {layers['trace.ops_per_s']:.4g}")
            for line in failures(records):
                print("  " + line)
    print("smoke passed" if bad == 0 else "SMOKE FAILED")
    return 0 if bad == 0 else 1


def self_test(_args):
    """Metric names and units match BENCHMARK.json, corrupted outputs fail, and
    a directory without the program makes the benchmark exit non-zero."""
    import tracing

    wl_mod = load_program()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in WORKLOAD_NAMES:
            values, layers, records = smoke_pass(wl_mod, name, tmp)
            printed = {
                0: json.loads(final_line(values, {n: u for n, u, _ in harness.END_TO_END}, 1, 0)),
                1: json.loads(final_line(layers, {n: u for n, u, _ in tracing.PER_LAYER}, 1, 0)),
            }
            for level, result in printed.items():
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want[level]:
                    problems.append(f"{name} trace {level}: printed {got} but BENCHMARK.json has {want[level]}")
                for k, v in result["metrics"].items():
                    if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                        problems.append(f"{name}: {k} is not a finite number")
            problems += [f"{name}: " + f for f in failures(records)]
            _, _, corrupted = smoke_pass(wl_mod, name, tmp, corrupt=True)
            caught = sum(r.error is not None for r in corrupted)
            print(f"{name:<16} metrics ok, corrupted outputs caught: {caught} of {len(corrupted)}")
            if caught != len(corrupted):
                problems.append(f"{name}: {len(corrupted) - caught} corrupted outputs passed the check")
        # a checkout holding only the benchmark must fail without a result
        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scenarios", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("without src/ the benchmark did not fail cleanly")
    for p in problems:
        print("FAIL " + p)
    print("self-test passed" if not problems else "SELF-TEST FAILED")
    return 0 if not problems else 1


def write_reference(_args):
    """Record the default seed's outputs of the current program (first ops of each workload)."""
    wl_mod = load_program()
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in WORKLOAD_NAMES:
            workload = wl_mod.make(name, DEFAULT_SEED, tmp)
            n = min(REFERENCE_OPS, wl_mod.WORKLOADS[name].trace_ops)
            prints = dict.fromkeys(range(n), None)
            records = harness.run_ops(workload, range(n), fingerprints=prints)
            if any(r.error for r in records):
                print("\n".join(failures(records)), file=sys.stderr)
                return 1
            out["workloads"][name] = {str(i): fp for i, fp in prints.items()}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="a few ops of every workload")
    mode.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    mode.add_argument("--write-reference", action="store_true",
                      help="record the default seed's outputs of the current program")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.smoke:
        action = smoke
    elif args.self_test:
        action = self_test
    elif args.write_reference:
        action = write_reference
    elif args.workload == "all":
        action = run_all
    elif args.workload:
        action = run_one
    else:
        parser.error("give --workload, --smoke, --self-test or --write-reference")
    try:
        return action(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
