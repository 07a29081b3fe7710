"""Time one `weylpair` command line of two source trees in fresh processes.

    python3 tools/ab_launch.py BASE_SRC NEW_SRC --rounds 30 -- \
        construct --genus 12 --alpha a0=1/2,a1=3/4,a2=-2/3,a3=-7/4

Each round launches `python -m weylpair.cli ARGV` once per tree, in
alternating order, with the tree on PYTHONPATH and the caller's
environment otherwise (so PYTHONDONTWRITEBYTECODE, if set, makes every
launch compile the tree).  Both launches must exit alike with the same
stdout.  It prints each side's median wall time and peak RSS, the base's
IQR, the ratio new/base and the rounds in which the new side was faster:
the launch cost that tools/ab_inprocess.py cannot see.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time


def launch(src: str, argv: list[str]) -> tuple[float, float, int, bytes]:
    """Wall seconds, peak RSS in MB, exit code and stdout of one run."""
    env = dict(os.environ, PYTHONPATH=src)
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "weylpair.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)  # its own rusage, unlike wait()
    seconds = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    return seconds, usage.ru_maxrss / 1024, proc.returncode, out


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=positive_int, default=30)
    ap.add_argument("argv", nargs="+", help="the weylpair command line")
    opts = ap.parse_args(argv)
    srcs = (opts.base, opts.new)
    times: tuple[list, list] = ([], [])
    rss: tuple[list, list] = ([], [])
    for r in range(opts.rounds):
        runs = {}
        for i in ((0, 1) if r % 2 == 0 else (1, 0)):
            seconds, mb, code, out = launch(srcs[i], opts.argv)
            times[i].append(seconds * 1e3)
            rss[i].append(mb)
            runs[i] = (code, out)
        if runs[0] != runs[1]:
            print(f"round {r}: exit codes or stdout differ", file=sys.stderr)
            return 1
    base, new = (statistics.median(t) for t in times)
    q1, _, q3 = (statistics.quantiles(times[0], n=4)
                 if opts.rounds > 1 else (0, 0, 0))
    wins = sum(n < b for b, n in zip(*times))
    print("base_ms  new_ms  base_iqr_ms  ratio  new_faster  base_mb  new_mb")
    print(f"{base:.1f}  {new:.1f}  {q3 - q1:.1f}  {new / base:.2f}  "
          f"{wins}/{opts.rounds}  {statistics.median(rss[0]):.2f}  "
          f"{statistics.median(rss[1]):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
