"""The srq benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5
    python3 perfbench/run.py --workload algebra --seed 1 --seconds 5 --trace 1 --profile 25

Workloads (``workloads.py``): ``verify``, ``algebra`` and ``cli``.  Each run
is closed-loop, single-process and single-threaded: an operation starts when
the previous one has returned.  The workload seed makes the inputs; the
library receives only those.

A run repeats rounds, each one pass over the workload's inputs, until
``--seconds`` have passed (and at least ``MIN_ROUNDS`` times).  Other tenants
of a shared machine slow it by up to 1.8x, for stretches of seconds to
minutes, so each operation is followed by a fixed reference that srq cannot
move (``reference.py``): a block of plain-Python kernels as long as the
operation, or for CLI calls a bare interpreter start.  An input's latency is
the median over rounds of its time over its paired reference, times the
reference's nominal time: its time on a machine where the reference takes
that long.  Throughput is the work of one round over the sum of those
latencies; the percentiles are taken over inputs.  ``setup_s`` (importing
srq and generating the inputs) is sampled every ``SETUP_EVERY_S`` seconds of
the run, each set-up paired with a kernel block as long as itself, and is
the median of the scaled samples.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` is the
separate traced run: it alternates untraced and traced rounds over the same
inputs, reports the per-layer metrics and the tracing overhead, and adds
single-layer timings, CLI start-up floors and, for ``algebra``, the inputs the
seed commit is known to fail on.  ``--workload all`` runs every workload in
both modes.  Every metric is printed with its unit and sample count; the last
line of stdout is one JSON object.  Run records, spans and profiles go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import gzip
import importlib
import json
import math
import os
import platform
import pstats
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from micro import micro_timings
from reference import KERNEL_NOMINAL_S, Reference, block
from tracing import Tracer, self_time_between, self_times
from workloads import SUITES, WORKLOADS, Cli, cli_env, defect_case, defect_cases, defect_check

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: A second seed, never used while tuning, on which every claim must also hold.
HELD_OUT_SEED = 90017
WARM_UP_OPS = 8
MIN_ROUNDS = 3
#: Seconds of measurement between set-up samples.
SETUP_EVERY_S = 1.0
FLOOR_REPEATS = 7
TAIL = 0.75
LAYERS = ("series", "rational", "fractional", "geometry", "verify", "expression", "cli")

clock = time.perf_counter


class Stats:
    """Operation outcomes and timings of one kind of round."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.rounds = 0
        self.per_input = defaultdict(list)  # input index -> latency per round
        self.reference = defaultdict(list)  # input index -> paired reference per round
        self.units = {}  # input index -> units of work it completed

    def floors(self):
        """Each input's fastest latency."""
        return [min(latencies) for latencies in self.per_input.values()]

    def scaled(self, nominal):
        """Each input's median ratio of latency to paired reference, times ``nominal``."""
        return [statistics.median(t / r for t, r in zip(self.per_input[i], self.reference[i]))
                * nominal for i in self.per_input]

    def round_times(self):
        return [sum(lat[r] for lat in self.per_input.values()) for r in range(self.rounds)]


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def fresh_import():
    for name in [n for n in sys.modules if n == "srq" or n.startswith("srq.")]:
        del sys.modules[name]
    srq = importlib.import_module("srq")
    importlib.import_module("srq.cli")
    return srq


def setup(workload_cls, seed, times):
    """Import srq and generate the inputs; appends the time taken to ``times``."""
    start = clock()
    srq = fresh_import()
    workload = workload_cls(seed)
    times.append(clock() - start)
    return srq, workload


def setup_sample(workload_cls, seed, samples):
    """One set-up and its paired kernel block, appended to ``samples`` as (set-up s, kernel s)."""
    times = []
    srq = setup(workload_cls, seed, times)[0]
    samples.append((times[0], block(times[0])))
    return srq


def run_round(srq, workload, call, stats, tracer=None, inputs=None, ref=None):
    """One pass over the inputs; returns (first span, end span, latency) per op.

    With ``ref``, each operation is followed by its paired reference.
    """
    marks = []
    for index, item in enumerate(workload.inputs if inputs is None else inputs):
        first = len(tracer.spans) if tracer else 0
        start = clock()
        try:
            out = call(srq, item)
        except Exception as exc:  # a failing operation is counted by kind; the run goes on
            end = clock()
            kind = type(exc).__name__
        else:
            end = clock()
            kind = workload.check(item, out)
            if kind is None:
                stats.units[index] = workload.units(item, out)
        stats.attempted += 1
        if kind:
            stats.failures[kind] += 1
        stats.per_input[index].append(end - start)
        if ref:
            stats.reference[index].append(ref.pair(end - start))
        if tracer:
            marks.append((first, len(tracer.spans), end - start))
    stats.rounds += 1
    return marks


def warm_up(srq, workload, call):
    stats = Stats()
    run_round(srq, workload, call, stats, inputs=workload.inputs[:WARM_UP_OPS])
    return stats


def end_to_end(srq, workload, seconds, setup_times):
    warm = warm_up(srq, workload, workload.call)
    timed = Stats()
    ref = Reference(workload.speed_reference, cli_env(), ROOT)
    began = clock()
    while timed.rounds < MIN_ROUNDS or clock() < began + seconds:
        # one set-up per SETUP_EVERY_S seconds, taken between rounds, so the
        # set-up samples span the whole measurement
        while len(setup_times) < 1 + (clock() - began) / SETUP_EVERY_S:
            srq = setup_sample(type(workload), workload.seed, setup_times)
        run_round(srq, workload, workload.call, timed, ref=ref)
    raw = timed.floors()
    scaled = timed.scaled(ref.nominal)
    values = {"throughput_per_s": sum(timed.units.values()) / sum(scaled),
              "op_p50_ms": percentile(scaled, 0.5) * 1e3,
              "op_p75_ms": percentile(scaled, TAIL) * 1e3,
              "setup_s": statistics.median(t / k for t, k in setup_times) * KERNEL_NOMINAL_S}
    notes = {"throughput_per_s": f"{workload.unit}/s over {len(scaled)} inputs",
             "op_p50_ms": f"{len(scaled)} inputs, each the median of {timed.rounds} rounds; "
                          f"fastest raw {percentile(raw, 0.5) * 1e3:.4g} ms",
             "op_p75_ms": f"{len(scaled) - math.ceil(TAIL * len(scaled))} inputs beyond; "
                          f"fastest raw {percentile(raw, TAIL) * 1e3:.4g} ms",
             "setup_s": f"median of {len(setup_times)} set-ups; "
                        f"raw {statistics.median(t for t, _ in setup_times):.4g} s",
             "scale": f"times scaled to the {workload.speed_reference} reference"}
    return values, notes, [warm, timed]


# -- traced run ---------------------------------------------------------------


def cli_floors(srq, seed):
    """Interpreter start, ``import srq.cli`` and in-process command time, in ms."""

    def spawn(code):
        start = clock()
        subprocess.run([sys.executable, "-c", code], env=cli_env(), cwd=ROOT,
                       check=True, capture_output=True, timeout=60)
        return clock() - start

    bare, imported = [], []
    for _ in range(FLOOR_REPEATS):
        bare.append(spawn("pass"))
        imported.append(spawn("import srq.cli"))
    cli = Cli(seed)
    cli.prepare(srq)
    stats = Stats()
    for _ in range(MIN_ROUNDS):
        run_round(srq, cli, cli.trace_call, stats)
    interpreter = min(bare)
    return {"cli.interpreter_ms": interpreter * 1e3,
            "cli.import_ms": (min(imported) - interpreter) * 1e3,
            "cli.command_ms": statistics.median(stats.floors()) * 1e3}, stats


def defect_pass(srq, seed):
    """The known-failure inputs, traced; failures here are reported, not hidden."""
    tracer = Tracer()
    attempted, failures, known, known_ok = 0, Counter(), 0, 0
    tracer.install()
    try:
        for case in defect_cases(seed):
            attempted += 1
            try:
                kind = defect_check(case, defect_case(srq, case))
            except Exception as exc:  # counted by kind, like any failing operation
                kind = type(exc).__name__
            if kind:
                failures[kind] += 1
            if "spheres" in case:
                known += 1
                known_ok += kind is None
    finally:
        tracer.uninstall()
    errors = tracer.take()[2]
    return {"attempted": attempted, "failures": failures, "known": known,
            "known_ok": known_ok,
            "nonconvergence": errors["rational.durand_kerner", "NonConvergence"]}


NO_DEFECTS = {"attempted": 0, "failures": Counter(), "known": 0, "known_ok": 0,
              "nonconvergence": 0}


def per_layer(srq, workload, seed, seconds):
    warm = warm_up(srq, workload, workload.trace_call)
    plain, traced = Stats(), Stats()
    tracer = Tracer()
    summaries = []  # per traced round: label -> (count, self s, inclusive s)
    first = None
    deadline = clock() + seconds
    while traced.rounds < MIN_ROUNDS or clock() < deadline:
        run_round(srq, workload, workload.trace_call, plain)
        tracer.install()
        try:
            marks = run_round(srq, workload, workload.trace_call, traced, tracer)
        finally:
            tracer.uninstall()
        spans, tally, errors, values = tracer.take()
        summaries.append({k: tuple(v) for k, v in self_times(spans).items()})
        counts = (tally, {k: v[0] for k, v in summaries[-1].items()})
        if first is None:
            first = dict(spans=spans, tally=tally, errors=errors, values=values,
                         marks=marks, counts=counts)
        elif counts != first["counts"]:
            traced.failures["count-not-repeatable"] += 1

    stats = summaries[0]
    tally, errors, values = first["tally"], first["errors"], first["values"]

    def count(label):
        return stats.get(label, (0,))[0]

    def self_s(*labels):
        return statistics.median(
            sum(s.get(label, (0, 0.0, 0.0))[1] for label in labels) for s in summaries)

    plain_busy = sum(plain.floors())
    units = sum(traced.units.values()) or 1
    degrees = values.get("rational.sym_degree", [])
    m = {
        "quaternion.new.count": tally["quaternion.new"],
        "quaternion.mul.count": tally["quaternion.mul"],
        "quaternion.inverse.count": tally["quaternion.inverse"],
        "quaternion.new_per_op": tally["quaternion.new"] / units,
        "series.evaluate.count": count("series.evaluate"),
        "series.evaluate.self_s": self_s("series.evaluate"),
        "series.evaluate.real_coeff_share": (
            tally["series.evaluate.real_coeff"] / count("series.evaluate")
            if count("series.evaluate") else 0.0),
        "series.star.count": count("series.star"),
        "series.star.coeff_products": tally["series.star.coeff_products"],
        "series.star.self_s": self_s("series.star"),
        "series.symmetrization.self_s": self_s("series.symmetrization"),
        "rational.evaluate.count": count("rational.evaluate"),
        "rational.evaluate.self_s": self_s("rational.evaluate"),
        "rational.evaluate.pole_errors": errors["rational.evaluate", "PoleError"],
        "rational.transform.count": count("rational.transform"),
        "rational.transform.self_s": self_s("rational.transform"),
        "rational.construct.self_s": self_s("rational.construct"),
        "rational.sym_degree.mean": statistics.fmean(degrees) if degrees else 0.0,
        "rational.sym_degree.p50": statistics.median(degrees) if degrees else 0.0,
        "rational.sym_degree.max": max(degrees, default=0),
        "rational.zero_set.count": count("rational.zero_set"),
        "rational.zero_set.self_s": self_s("rational.zero_set"),
        "rational.durand_kerner.self_s": self_s("rational.durand_kerner"),
        "fractional.normal_form.count": count("fractional.normal_form"),
        "fractional.normal_form.self_s": self_s("fractional.normal_form"),
        "fractional.action.count": count("fractional.action"),
        "fractional.action.self_s": self_s("fractional.action"),
        "geometry.moebius_map.count": count("geometry.moebius_map"),
        "geometry.moebius_map.self_s": self_s("geometry.moebius_map"),
        "verify.check.count": count("verify.check"),
        "expression.parse.count": count("expression.parse"),
        "expression.parse.self_s": self_s("expression.parse"),
        "trace.overhead_frac": sum(traced.floors()) / plain_busy - 1.0,
        "input.points_per_object": (
            (count("rational.evaluate") + count("rational.transform")) / len(degrees)
            if degrees else 0.0),
        "input.repeated_factor_share": getattr(workload, "repeated_factor_share", 0.0),
    }
    for suite in SUITES:
        m[f"verify.{suite}.s"] = statistics.median(
            s.get(f"verify.{suite}", (0, 0.0, 0.0))[2] for s in summaries)

    # self-time shares of each layer in a traced round
    traced_round = statistics.median(traced.round_times())
    layer_self = {layer: self_s(*[k for k in stats if k.startswith(layer + ".")])
                  for layer in LAYERS}
    for layer, seconds_self in layer_self.items():
        m[f"share.{layer}"] = seconds_self / traced_round
    m["share.unspanned"] = 1.0 - sum(layer_self.values()) / traced_round

    # the slowest tenth of the operations, and how much of them is root finding
    marks = sorted(first["marks"], key=lambda mark: mark[2])
    tail = marks[math.ceil(0.9 * len(marks)):]
    tail_time = sum(mark[2] for mark in tail)
    m["rational.zero_set.tail_share"] = sum(
        self_time_between(first["spans"], a, b, {"rational.zero_set", "rational.durand_kerner"})
        for a, b, _ in tail) / tail_time if tail_time else 0.0

    micro = micro_timings(srq, seed)
    m.update(micro)
    m["quaternion.est_share"] = (tally["quaternion.new"] * micro["quaternion.new_ns"] * 1e-9
                                 / plain_busy)
    floors, cli_stats = cli_floors(srq, seed)
    m.update(floors)

    defects = defect_pass(srq, seed) if workload.name == "algebra" else NO_DEFECTS
    m["defects.fail_frac"] = (sum(defects["failures"].values()) / defects["attempted"]
                              if defects["attempted"] else 0.0)
    m["rational.durand_kerner.nonconvergence"] = (
        errors["rational.durand_kerner", "NonConvergence"] + defects["nonconvergence"])
    # one traced round's factor-built cases plus the known-failure inputs
    mixed = getattr(workload, "known_multiplicity_cases", 0)
    known = mixed + defects["known"]
    known_ok = (mixed - traced.failures["zero-set-multiplicity"] // traced.rounds
                + defects["known_ok"])
    m["rational.zero_set.multiplicity_ok_ratio"] = known_ok / known if known else 1.0

    groups = [warm, plain, traced, cli_stats]
    m["fail_frac"] = (sum(sum(g.failures.values()) for g in groups)
                      / sum(g.attempted for g in groups))
    notes = {"rounds": f"{traced.rounds} traced and {plain.rounds} untraced rounds of "
                       f"{len(workload.inputs)} ops; counts from the first traced round, "
                       f"times are medians over traced rounds",
             "defects": f"known-failure inputs: {defects['attempted']} attempted, "
                        f"failures {dict(defects['failures'])}"}
    spans = [(op, *span) for op, (a, b, _) in enumerate(first["marks"])
             for span in first["spans"][a:b]]
    return m, notes, groups, spans


# -- reporting ------------------------------------------------------------------


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name, seed, seconds, trace, profile):
    first_setup, setup_times = [], []
    srq, workload = setup(WORKLOADS[name], seed, first_setup)
    workload.prepare(srq)
    spans = None
    if trace:
        values, notes, groups, spans = per_layer(srq, workload, seed, seconds)
    else:
        values, notes, groups = end_to_end(srq, workload, seconds, setup_times)
    attempted = sum(g.attempted for g in groups)
    failures = Counter()
    for g in groups:
        failures.update(g.failures)
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in declared_metrics(trace).items()}

    print(f"== {name}  seed={seed}  trace={int(trace)}  python={platform.python_version()}"
          f"  nproc={os.cpu_count()}")
    for metric, entry in metrics.items():
        print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']:<8} {notes.get(metric, '')}")
    for key in ("scale", "rounds", "defects"):
        if key in notes:
            print(f"  {notes[key]}")
    print(f"  attempted={attempted} failed={sum(failures.values())} {dict(failures)}")

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-s{seed}-t{int(trace)}"
    record = {"workload": name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
              "trace": int(trace), "seconds": seconds, "python": platform.python_version(),
              "nproc": os.cpu_count(), "git_sha": git_sha(), "first_setup_s": first_setup[0],
              "setup_samples_s": setup_times,
              "attempted": attempted, "failures": dict(failures), "notes": notes,
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt") as fh:
            fh.write(json.dumps(["op", "name", "start", "end", "parent"]) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    if profile:
        profiler = cProfile.Profile()
        profiler.enable()
        run_round(srq, workload, workload.trace_call, Stats())
        profiler.disable()
        path = OUT / f"{stem}.profile.txt"
        with open(path, "w") as fh:
            pstats.Stats(profiler, stream=fh).sort_stats("tottime").print_stats(profile)
        print(f"  profile: {path}")
    return {"correct": not failures, "attempted": attempted,
            "failed": sum(failures.values()), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="The srq benchmark.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="also dump the cProfile top N of one untimed round")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "srq" / "__init__.py").is_file():
        print(f"error: no srq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.profile)
    else:
        parts = {(name, trace): run_one(name, args.seed, args.seconds, trace, args.profile)
                 for name in WORKLOADS for trace in (False, True)}
        result = {"correct": all(p["correct"] for p in parts.values()),
                  "attempted": sum(p["attempted"] for p in parts.values()),
                  "failed": sum(p["failed"] for p in parts.values()),
                  "metrics": {f"{name}:{metric}": entry for (name, _), p in parts.items()
                              for metric, entry in p["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
