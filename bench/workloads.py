"""The benchmark's workloads: which cases each one runs, how one case runs
in a fresh interpreter, and how its output is judged.

Every case is one process started from the checkout's own ``src/``, as the
tier-1 tests import it.  Cases run one at a time from a single runner
process, so the timings never contend with each other.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS_FILE = BENCH / "construct_refs.json"

# Float-layer checks of `weylpair verify`; a FAIL confined to these, with
# every exact certificate passing, is the known false FAIL of the numeric
# layer (see README.md).  It counts as a failed case, never as a wrong one.
FLOAT_CHECKS = ("root_distinctness", "potential_recovery",
                "krichever_relation")
# Checks the CLI reports as null on symbolic parameters.
NUMERIC_CHECKS = ("curve_nonsingular",) + FLOAT_CHECKS

# construct cases draw their tuples from seed % CONSTRUCT_POOL, so that a
# reference sha256 recorded from a known-good commit exists for every seed.
CONSTRUCT_POOL = 16


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass(frozen=True)
class Case:
    kind: str    # "verify", "construct" or "oracle"
    genus: int
    alpha: str   # "a0=p/q,..." binding; "" leaves every parameter symbolic

    @property
    def id(self) -> str:
        return f"{self.kind}-g{self.genus}" + (f"[{self.alpha}]"
                                               if self.alpha else "")

    def argv(self, *extra: str) -> list[str]:
        if self.kind == "oracle":
            cmd = [sys.executable, str(BENCH / "oracle_case.py")]
        else:
            cmd = [sys.executable, "-m", "weylpair.cli", self.kind]
        cmd += ["--genus", str(self.genus)]
        if self.alpha:
            cmd += ["--alpha", self.alpha]
        return cmd + list(extra)


def _rat(rng: random.Random, lo: int, hi: int, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def param_tuple(rng: random.Random) -> str:
    """One a0..a3 binding, drawn exactly as tests/conftest.py's
    random_param_tuple draws it (a3 first, then a0, a1, a2)."""
    a3 = Fraction(0)
    while a3 == 0:
        a3 = _rat(rng, -9, 9)
    values = {"a0": _rat(rng, -9, 9), "a1": _rat(rng, -9, 9),
              "a2": _rat(rng, -9, 9), "a3": a3}
    return ",".join(f"{k}={v.numerator}/{v.denominator}"
                    for k, v in values.items())


# Genera per workload, one seeded tuple per entry, in run order.  Cases
# stay short (at most about 4 s) so that a run can repeat them, and the top
# genus appears more than once because one tuple's cost varies with its
# coefficient sizes (by 7-11%, and a few g=4 tuples cost a third).
GENERA = {
    "verify-numeric": (1, 2, 3, 4, 4, 4, 4),
    "verify-symbolic": (1, 2),
    "construct-highg": (6, 8, 10, 12, 12),
    "oracle-commutant": (1, 2, 2, 2, 2),
}


def cases(workload: str, seed: int) -> list[Case]:
    """The cases of one pass, in the order they run; the last ones have
    the highest genus."""
    if workload not in GENERA:
        raise BenchError(f"unknown workload {workload!r}")
    if workload == "verify-symbolic":
        return [Case("verify", g, "") for g in GENERA[workload]]
    kind = workload.split("-")[0]
    rng = random.Random(seed % CONSTRUCT_POOL if kind == "construct"
                        else seed)
    return [Case(kind, g, param_tuple(rng)) for g in GENERA[workload]]


def case_env() -> dict:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("WEYL_COMMUTE_MAX_TERMS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    case: Case | None
    seconds: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes
    ref_seconds: float | None = None  # set by run.RefClock


def run_process(argv: list[str], case: Case | None = None) -> Outcome:
    """Run one process to completion; time it from spawn to reap and take
    its own peak RSS from wait4."""
    err: list[bytes] = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=case_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(case, seconds, usage.ru_maxrss, proc.returncode, out,
                   err[0] if err else b"")


def run_case(case: Case, *extra: str) -> Outcome:
    return run_process(case.argv(*extra), case)


@dataclass
class Verdict:
    failed: bool
    wrong: bool      # failed for a reason other than a float-layer FAIL
    reason: str
    sha256: str


def load_refs() -> dict:
    try:
        return json.loads(REFS_FILE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFS_FILE.name}: {exc}") from exc


def judge(outcome: Outcome, refs: dict) -> Verdict:
    """Per-case correctness; any exception while judging is a failure."""
    sha = hashlib.sha256(outcome.stdout).hexdigest()
    try:
        reason, float_only = _judge(outcome, refs, sha)
    except Exception as exc:  # a malformed output must not stop the run
        reason, float_only = f"{type(exc).__name__}: {exc}", False
    return Verdict(failed=bool(reason), wrong=bool(reason) and not float_only,
                   reason=reason, sha256=sha)


def _judge(outcome: Outcome, refs: dict, sha: str) -> tuple[str, bool]:
    case = outcome.case
    if case.kind == "construct":
        if outcome.exit_code != 0:
            return f"exit code {outcome.exit_code}", False
        expected = refs["cases"].get(case.id)
        if expected is None:
            return "no reference sha256 recorded for this case", False
        if sha != expected:
            return (f"stdout sha256 {sha[:12]} != reference "
                    f"{expected[:12]}", False)
        return "", False
    doc = json.loads(outcome.stdout)
    if case.kind == "oracle":
        bad = []
        if outcome.exit_code != 0:
            bad.append(f"exit code {outcome.exit_code}")
        if doc["basis_size"] != case.genus + 1:
            bad.append(f"basis of {doc['basis_size']} != g+1")
        if doc["in_affine_span"] is not True:
            bad.append("M outside the affine span")
        if doc["is_power_span"] is not True:
            bad.append("basis outside span{L^j}")
        return "; ".join(bad), False
    numeric = bool(case.alpha)
    false = [c["name"] for c in doc["checks"] if c["pass"] is False]
    null = [c["name"] for c in doc["checks"] if c["pass"] is None
            and (numeric or c["name"] not in NUMERIC_CHECKS)]
    bad = []
    if outcome.exit_code != (1 if false else 0):
        bad.append(f"exit code {outcome.exit_code}")
    if false:
        bad.append("false: " + ",".join(false))
    if null:
        bad.append("unexpected null: " + ",".join(null))
    float_only = (bool(false) and not null and outcome.exit_code == 1
                  and all(name in FLOAT_CHECKS for name in false))
    return "; ".join(bad), float_only
