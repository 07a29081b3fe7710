"""weylpair benchmark: one workload at one seed, end to end or traced.

    python3 bench/run.py --workload verify-numeric --seed 1107 \\
        --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.

--trace 0 runs every case as a fresh `weylpair` process, one at a time,
tracing off, and repeats whole passes while another pass fits in
--seconds (at least one pass).  It reports the end-to-end metrics as
medians over the passes, in reference-speed seconds (see RefClock).

--trace 1 runs one such pass, then replays the same cases in-process with
a span around each call into a layer (replay.py), checks that every
replayed verdict equals the fresh-process output of the same case, writes
the spans to bench/out/ and reports the per-layer metrics.

Earlier stdout lines record the environment and every case; the last line
is the result: {"correct", "attempted", "failed", "metrics"}.  attempted
counts the distinct cases of the workload, and failed those that failed in
any pass, so both depend on the seed alone.  The metric names and units are
those declared in BENCHMARK.json.  Exit code 0 with a result, 1 when a
self-check or the replay comparison fails, 2 when the checkout lacks the
program; no result is printed unless the exit code is 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction

from workloads import (BENCH, GENERA, NUMERIC_CHECKS, ROOT, SRC, BenchError,
                       Case, Outcome, Verdict, cases, judge, load_refs,
                       run_case, run_process)

DEFAULT_SEED = 1107
SETUP_LAUNCHES = 11
CAL_STEPS = 20000
CAL_REF_S = 0.1  # calibration seconds at the reference speed
POLY_MUL_REPS = 20
SELF_CHECK_ALPHA = "a0=1/1,a1=0/1,a2=0/1,a3=1/1"
# span name -> per-layer metric "<name>_s"
LAYER_SPANS = ("cli.emit", "qsolver.build_q", "qsolver.extract_curve",
               "qsolver.residuals", "pairs.build_companion",
               "pairs.commutation", "pairs.square_identity",
               "pairs.commutant_solve", "pairs.oracle_checks", "weyl.mm",
               "weyl.f_of_l", "weyl.adjoint", "poly.mul",
               "curve.nonsingular", "curvefun.reduction", "curvefun.expand",
               "series.sqrt", "series.inverse", "numeric.roots",
               "numeric.recovery", "numeric.krichever")


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


def environment() -> dict:
    # asked of a case process: the runner itself stays free of weylpair
    out = run_process([sys.executable, "-c", "import weylpair.poly as p; "
                       "print(p.Rat.__module__)"])
    if out.exit_code != 0:
        raise BenchError(f"cannot import weylpair: {out.stderr.decode()}")
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "rat_backend": out.stdout.decode().strip(),
            "WEYLPAIR_NO_GMPY": os.environ.get("WEYLPAIR_NO_GMPY"),
            "WEYL_COMMUTE_MAX_TERMS": "unset in case processes"}


def self_check(refs: dict) -> None:
    """The judge must fail a corrupted companion and a flipped construct
    byte, and pass the same cases uncorrupted."""
    probe = Case("verify", 1, SELF_CHECK_ALPHA)
    if judge(run_case(probe), refs).failed:
        raise BenchError("self-check: clean genus-1 verify judged failed")
    if not judge(run_case(probe, "--inject-fault", "companion"), refs).failed:
        raise BenchError("self-check: --inject-fault companion not failed")
    out = run_case(Case("construct", 1, SELF_CHECK_ALPHA))
    if judge(out, refs).failed:
        raise BenchError("self-check: clean construct judged failed")
    flipped = bytearray(out.stdout)
    flipped[len(flipped) // 2] ^= 0x01
    out.stdout = bytes(flipped)
    if not judge(out, refs).failed:
        raise BenchError("self-check: flipped construct byte not failed")


def calibration_seconds() -> float:
    """Seconds for a fixed loop of Fraction arithmetic in the runner, the
    same kind of work the program does."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CAL_STEPS):
        acc += Fraction(1, i % 97 + 1) * Fraction(i, 7)
    return time.perf_counter() - t0


class RefClock:
    """Reference-speed seconds.

    On a shared host the CPU's speed drifts by up to 1.5x, in spells of
    seconds to minutes, which swamps the differences a benchmark must
    resolve.  Each case, with the CLI launch that follows it, is bracketed
    by calibration loops in the runner, and its wall time is scaled by
    CAL_REF_S over the mean of the two.  A change to weylpair moves the case
    time and not the calibration, so it moves the scaled time one for one.
    The raw seconds stay in the per-case lines.
    """

    def __init__(self):
        self.before = calibration_seconds()
        self.launches: list[float] = []

    def scale(self, case: Outcome | None, launch: Outcome) -> None:
        after = calibration_seconds()
        factor = CAL_REF_S * 2 / (self.before + after)
        if case is not None:
            case.ref_seconds = case.seconds * factor
        self.launches.append(launch.seconds * factor)
        self.before = after


def run_pass(case_list: list[Case], refs: dict, pass_no: int,
             clock: RefClock | None = None) -> list:
    """One pass over the cases.  With a clock, every case is followed by
    one CLI launch for setup_s, and both are scaled to reference speed."""
    results = []
    for case in case_list:
        out = run_case(case)
        if clock:
            clock.scale(out, launch_cli())
        verdict = judge(out, refs)
        emit({"case": case.id, "pass_no": pass_no, "seconds": out.seconds,
              "ref_seconds": out.ref_seconds, "exit": out.exit_code,
              "maxrss_mb": out.maxrss_kb / 1024, "failed": verdict.failed,
              "reason": verdict.reason, "sha256": verdict.sha256})
        if clock:
            out.stdout = b""  # keeps the runner's RSS below the cases'
        results.append((out, verdict))
    return results


def launch_cli():
    """A fresh interpreter up to a ready CLI."""
    out = run_process([sys.executable, "-m", "weylpair.cli", "--help"])
    if out.exit_code != 0 or b"usage" not in out.stdout:
        raise BenchError(f"`weylpair --help` exited {out.exit_code}")
    return out


def timed_run(case_list, refs, seconds):
    """Whole passes while another fits in `seconds`; every time is a
    median of reference-speed seconds (see RefClock)."""
    launch_cli()  # warms the bytecode cache, as an installed CLI has it
    clock = RefClock()
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(case_list, refs, len(passes), clock))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while len(clock.launches) < SETUP_LAUNCHES:
        clock.scale(None, launch_cli())
    per_case = [statistics.median(p[i][0].ref_seconds for p in passes)
                for i in range(len(case_list))]
    top = case_list[-1].genus
    metrics = {
        "wall_s": sum(per_case),
        "top_case_s": statistics.median(
            t for t, c in zip(per_case, case_list) if c.genus == top),
        "setup_s": statistics.median(clock.launches),
        "peak_rss_mb": max(o.maxrss_kb for p in passes for o, _ in p) / 1024,
    }
    # one verdict per case, so that attempted and failed depend on the seed
    # alone and not on how many passes fit in `seconds`
    runs = [(passes[0][i][0], merge_verdicts([p[i][1] for p in passes]))
            for i in range(len(case_list))]
    return metrics, runs


def merge_verdicts(verdicts: list[Verdict]) -> Verdict:
    """A case's verdict over all its passes: failed or wrong if it was so
    in any pass."""
    reasons = list(dict.fromkeys(v.reason for v in verdicts if v.reason))
    return Verdict(failed=any(v.failed for v in verdicts),
                   wrong=any(v.wrong for v in verdicts),
                   reason=" | ".join(reasons), sha256=verdicts[0].sha256)


def commutant_unknowns(g: int) -> int:
    """Size of the commutant system at order 4g+2, from the degree bound
    commutant_solve documents: deg u_i <= ceil(3(order - i)/2)."""
    order = 4 * g + 2
    return sum(-(-3 * (order - i) // 2) + 1 for i in range(order))


def traced_run(case_list, refs, spans_path):
    import replay

    runs = run_pass(case_list, refs, 0)
    untraced_s = sum(o.seconds for o, _ in runs)
    tr = replay.Tracer()
    counts = {"weyl.m_terms": 0, "weyl.mm_terms": 0, "weyl.m_coeff_bits": 0,
              "pairs.commutant_unknowns": 0, "numeric.checks_failed": 0}
    top_m = None
    with replay.traced_series(tr):
        for case, (out, _) in zip(case_list, runs):
            tr.case = case.id
            mm = None
            with tr.span("case"):
                if case.kind == "verify":
                    got, pair, mm = replay.verify(tr, case.genus, case.alpha)
                elif case.kind == "construct":
                    text, pair = replay.construct(tr, case.genus, case.alpha)
                else:
                    got, pair = replay.oracle(tr, case.genus, case.alpha)
            if case.kind == "verify":
                cli = {c["name"]: c["pass"]
                       for c in json.loads(out.stdout)["checks"]}
                counts["numeric.checks_failed"] += sum(
                    got[name] is False for name in NUMERIC_CHECKS)
                top_m = pair.m
            elif case.kind == "construct":
                got = hashlib.sha256(text.encode()).hexdigest()
                cli = hashlib.sha256(out.stdout).hexdigest()
            else:
                cli = json.loads(out.stdout)
                counts["pairs.commutant_unknowns"] += commutant_unknowns(
                    case.genus)
            if got != cli:
                raise BenchError(f"replay of {case.id} disagrees with the "
                                 f"CLI: {got} != {cli}")
            counts["weyl.m_terms"] += sum(c.term_count()
                                          for c in pair.m.coeffs)
            counts["weyl.m_coeff_bits"] = max(
                [counts["weyl.m_coeff_bits"]]
                + [max(r.numerator.bit_length(), r.denominator.bit_length())
                   for c in pair.m.coeffs for _, r in c.sorted_terms()])
            if mm is not None:
                counts["weyl.mm_terms"] += sum(c.term_count()
                                               for c in mm.coeffs)
    total_s = sum(s["end"] - s["start"] for s in tr.spans
                  if s["name"] == "case")
    if top_m is not None:
        # the kernel under weyl.mm: M's two largest coefficients
        a, b = sorted(top_m.coeffs, key=lambda c: c.term_count())[-2:]
        tr.case = "poly.mul-probe"
        with tr.span("poly.mul"):
            for _ in range(POLY_MUL_REPS):
                a * b
    totals = tr.totals()
    metrics = {f"{name}_s": totals.get(name, 0.0) for name in LAYER_SPANS}
    metrics.update(counts)
    metrics["trace.total_s"] = total_s
    metrics["trace.overhead_frac"] = total_s / untraced_s - 1
    metrics["fail_frac"] = sum(v.failed for _, v in runs) / len(runs)
    metrics["case_s.p50"] = statistics.median(o.seconds for o, _ in runs)
    write_spans(tr, spans_path)
    return metrics, runs


def write_spans(tr, path) -> None:
    t0 = tr.spans[0]["start"] if tr.spans else 0.0
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for i, s in enumerate(tr.spans):
            fh.write(json.dumps({"id": i, "name": s["name"],
                                 "case": s["case"], "parent": s["parent"],
                                 "start": s["start"] - t0,
                                 "end": s["end"] - t0}) + "\n")


def declared_metrics(trace: bool) -> dict[str, str]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(GENERA), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weylpair" / "cli.py").is_file():
        print(f"no weylpair sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        units = declared_metrics(bool(args.trace))
        sys.path.insert(0, str(SRC))
        os.environ.pop("WEYL_COMMUTE_MAX_TERMS", None)
        emit({"environment": environment(), "workload": args.workload,
              "seed": args.seed})
        refs = load_refs()
        self_check(refs)
        case_list = cases(args.workload, args.seed)
        if args.trace:
            spans = BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, runs = traced_run(case_list, refs, spans)
        else:
            metrics, runs = timed_run(case_list, refs, args.seconds)
        if set(metrics) != set(units):
            raise BenchError("printed metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    emit({"correct": not any(v.wrong for _, v in runs),
          "attempted": len(runs),
          "failed": sum(v.failed for _, v in runs),
          "metrics": {name: {"value": metrics[name], "unit": units[name]}
                      for name in units}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
