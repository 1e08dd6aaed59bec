"""Benchmark of the gmarr connection pipeline.

Run from the root of a checkout (gmarr need not be installed; ``src/`` is
put on the path):

    python3 gmbench/run.py --workload degen-generic --seed 1 --seconds 20 --trace 0

A run repeats *rounds* until the timed phase has lasted ``--seconds`` and at
least three rounds are done.  A round imports gmarr afresh (so its caches
start empty), builds the workload's cases from ``--seed`` and times each
case.  Every round runs the same cases, so the share of failed operations
is the same in every run.  After the last round the outputs of the first
round are checked against the benchmark's own computations
(``bench_workloads``); a later round's output must equal the first's.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of
``bench_trace`` instead.  The last line of standard output is one JSON
object; a full record of the run goes to ``.gmbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".gmbench_out"
MIN_ROUNDS = 3
# set-ups made on their own before the rounds, so that set-up time is a
# median of several samples
EXTRA_SETUPS = 4
# no new round starts after this many seconds, so a run on a slow machine
# still ends well within three minutes
DEADLINE_S = 100.0
# On a shared machine the speed changes from second to second with other
# tenants' load (on the reference machine of gmbench/README.md a fixed loop
# ran at 0.8x to 1.2x its median, in stretches of seconds).  Every timing is
# therefore scaled by a fixed calibration kernel timed just before and after
# it; CAL_REF_S is the kernel's time on the reference machine running fast,
# so scaled times read as that machine's seconds.
CAL_REF_S = 0.002
CAL_EVERY_S = 0.05


def load_gmarr() -> dict:
    """Drop every loaded gmarr module and import the package afresh;
    returns the package and its submodules by short name."""
    for name in [m for m in sys.modules if m == "gmarr" or m.startswith("gmarr.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("gmarr")
    for name in ("cli", "exact"):
        importlib.import_module(f"gmarr.{name}")
    mods = {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("gmarr.")
    }
    mods["gmarr"] = pkg
    return mods


def _namespace(mods: dict) -> SimpleNamespace:
    return SimpleNamespace(gmarr=mods["gmarr"], cli=mods["cli"], exact=mods["exact"])


def _poly(seed: int) -> dict:
    return {
        (i % 4, (i * seed) % 3, (i + seed) % 5): Fraction(i + seed, 2 * i + 1)
        for i in range(24)
    }


_CAL_A, _CAL_B = _poly(1), _poly(2)


def _calibration_kernel():
    """The inner loop of a sparse polynomial product with Fraction
    coefficients, the shape of most of gmarr's work."""
    out = {}
    for ea, ca in _CAL_A.items():
        for eb, cb in _CAL_B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now: the best of three
    runs, with the collector off so that the heap gmarr left behind does
    not weigh in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            _calibration_kernel()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """Seconds on the reference machine: the time scaled by how much slower
    than ``CAL_REF_S`` the calibration kernel ran just before and after."""
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


def set_up(workload, seed, workdir):
    """Import gmarr afresh and build the cases; returns (modules, cases,
    scaled seconds taken)."""
    gc.collect()
    c0 = calibrate()
    t0 = perf_counter()
    mods = load_gmarr()
    cases = workload[0](seed, workdir)
    raw = perf_counter() - t0
    return mods, cases, scaled(raw, c0, calibrate())


def run_round(workload, seed, workdir, tracer=None) -> dict:
    run = workload[1]
    mods, cases, setup = set_up(workload, seed, workdir)
    ns = _namespace(mods)
    if tracer is not None:
        tracer.install(mods)
    outputs, raw, times, raised = [], [], [], {}
    # calibrate between cases, at most every CAL_EVERY_S; the cases in
    # between are scaled by the calibrations on either side of them
    cal, pending, since = calibrate(), [], perf_counter()
    for case in cases:
        t = perf_counter()
        try:
            if tracer is None:
                out = run(ns, case)
            else:
                out = tracer.run_case(run, ns, case)
        except Exception as e:  # a failed operation; the run goes on
            out = None
            raised[case["id"]] = f"{type(e).__name__}: {e}"
        raw.append(perf_counter() - t)
        outputs.append(out)
        pending.append(raw[-1])
        if perf_counter() - since >= CAL_EVERY_S or len(raw) == len(cases):
            cal_after = calibrate()
            times += [scaled(r, cal, cal_after) for r in pending]
            cal, pending, since = cal_after, [], perf_counter()
    caches = tracer.cache_counts() if tracer is not None else {}
    return {
        "cases": cases,
        "setup": setup,
        "raw": raw,
        "times": times,
        "outputs": outputs,
        "raised": raised,
        "tracer": tracer,
        "caches": caches,
    }


def check_outputs(workload, first: dict) -> dict:
    """Check the first round's outputs; returns case id -> failures."""
    _, _, check = workload
    ns = _namespace(load_gmarr())
    memo: dict = {}
    failures = {}
    for case, out in zip(first["cases"], first["outputs"]):
        if out is None:
            failures[case["id"]] = [("raised", first["raised"][case["id"]])]
            continue
        try:
            fails = check(ns, case, out, memo)
        except Exception as e:
            fails = [("check-raised", f"{type(e).__name__}: {e}")]
        if fails:
            failures[case["id"]] = fails
    return failures


def count_failed(rounds, failures) -> tuple[int, int]:
    attempted = failed = 0
    reference = rounds[0]["outputs"]
    for rnd in rounds:
        for case, out, ref in zip(rnd["cases"], rnd["outputs"], reference):
            attempted += 1
            if case["id"] in failures:
                failed += 1
            elif out != ref:
                failed += 1
                failures.setdefault(case["id"], []).append(
                    ("deterministic", "output differs between rounds")
                )
    return attempted, failed


def digest(first: dict) -> str:
    h = hashlib.sha256()
    for case, out in zip(first["cases"], first["outputs"]):
        h.update(f"{case['id']}\n{out}\n".encode())
    return h.hexdigest()


def _unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("case_s."):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    for suffix, unit in (("rows", "rows"), ("cols", "cols"), ("terms", "terms"), ("degree", "degree")):
        if name.endswith(suffix):
            return unit
    return "count"


def end_to_end(rounds, setups) -> dict:
    """A case's time is its median over the rounds (scaled seconds)."""
    per_case = [statistics.median(t) for t in zip(*(rnd["times"] for rnd in rounds))]
    return {
        "wall_s": sum(per_case),
        "case_s.p50": statistics.median(per_case),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(rounds) -> dict:
    traced = [rnd for rnd in rounds if rnd["tracer"] is not None]
    plain = [rnd for rnd in rounds if rnd["tracer"] is None]
    per_round = [rnd["tracer"].metrics(rnd["caches"]) for rnd in traced]
    out = {}
    for name in per_round[0]:
        if name.endswith("_s"):
            out[name] = statistics.fmean(m[name] for m in per_round)
        else:
            out[name] = per_round[0][name]  # counts and sizes repeat exactly
    traced_wall = statistics.median(sum(rnd["raw"]) for rnd in traced)
    plain_wall = statistics.median(sum(rnd["raw"]) for rnd in plain)
    tracers = [rnd["tracer"] for rnd in traced]
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = plain_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.unattributed_s"] = statistics.fmean(t.unattributed_s for t in tracers)
    out["trace.bookkeeping_s"] = statistics.fmean(t.bookkeeping_s for t in tracers)
    out["trace.absent_names"] = len(tracers[0].absent)
    return out


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns (rounds, set-up times of the extra set-ups and the rounds)."""
    setups = [set_up(workload, seed, workdir)[2] for _ in range(0 if trace else EXTRA_SETUPS)]
    rounds = []
    start = perf_counter()
    while True:
        tracer = bench_trace.Tracer() if trace and len(rounds) % 2 else None
        rounds.append(run_round(workload, seed, workdir, tracer))
        timed = sum(sum(rnd["raw"]) for rnd in rounds)
        enough = len(rounds) >= (2 if trace else MIN_ROUNDS) and timed >= seconds
        if trace and len(rounds) % 2:
            continue  # a traced round follows every untraced one
        if enough or perf_counter() - start > DEADLINE_S:
            return rounds, setups + [rnd["setup"] for rnd in rounds]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gmarr" / "__init__.py").is_file():
        print(f"error: no gmarr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = bench_workloads.WORKLOADS[args.workload]
    workdir = OUT / f"cases-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rounds, setups = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, setups)

    failures = check_outputs(workload, rounds[0])
    attempted, failed = count_failed(rounds, failures)
    out_digest = digest(rounds[0])
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
        f"{len(rounds[0]['cases'])} cases"
    )
    print(f"digest sha256:{out_digest}")
    for case_id, fails in sorted(failures.items()):
        for name, detail in fails:
            print(f"FAIL {case_id}: {name}: {detail}")
    if args.trace:
        tracer = rounds[1]["tracer"]
        print(
            f"trace: self times + unattributed + bookkeeping = {tracer.attributed_s():.4f} s "
            f"of {sum(rounds[1]['raw']):.4f} s traced wall (first traced round)"
        )
        if tracer.absent:
            print("trace: absent names: " + ", ".join(tracer.absent))
    wrong = [f for fails in failures.values() for f in fails if f[0] != "raised"]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        digest=out_digest,
        setup_s=setups,
        raw_case_s=[r["raw"] for r in rounds],
        scaled_case_s=[r["times"] for r in rounds],
        case_ids=[c["id"] for c in rounds[0]["cases"]],
        failures={k: [list(f) for f in v] for k, v in failures.items()},
    )
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
