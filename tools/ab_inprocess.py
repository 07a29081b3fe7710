"""Time one function of two source trees against each other in one process.

    python3 tools/ab_inprocess.py BASE_SRC NEW_SRC qsolver.build_q \
        "(12,)" "(6, {'a0': '1/2', 'a3': -1})" --rounds 11

Each tree's `weylpair` is loaded under its own package name, so both live
in one interpreter.  For each argument tuple (a Python literal) the two
results must be equal, compared through `to_json()` where an object has
one; then the sides alternate for --rounds rounds, each timing enough
calls to take about 10 ms, as the first call's time predicts.  Per tuple
it prints both medians per call, the base's IQR, the ratio new/base and
the rounds in which the new side was faster.
"""

import argparse
import ast
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path


def load(src: str, name: str, module: str):
    """src's weylpair.<module>, imported as <name>.<module>."""
    pkg = Path(src) / "weylpair"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.{module}")


def plain(obj):
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, (list, tuple)):
        return [plain(o) for o in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("function", help="module.function, e.g. qsolver.build_q")
    ap.add_argument("args", nargs="+", help="argument tuples as literals")
    ap.add_argument("--rounds", type=positive_int, default=11)
    opts = ap.parse_args(argv)
    module, func = opts.function.rsplit(".", 1)
    sides = [getattr(load(src, name, module), func)
             for src, name in ((opts.base, "ab_base"), (opts.new, "ab_new"))]
    print("args  base_ms  new_ms  base_iqr_ms  ratio  new_faster")
    for text in opts.args:
        args = ast.literal_eval(text)
        t = time.perf_counter()
        results = [plain(f(*args)) for f in sides]
        number = max(1, int(0.02 / (time.perf_counter() - t)))
        assert results[0] == results[1], f"results differ for {text}"
        times = ([], [])
        for r in range(opts.rounds):
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                t = time.perf_counter()
                for _ in range(number):
                    sides[i](*args)
                times[i].append((time.perf_counter() - t) / number * 1e3)
        base, new = (statistics.median(t) for t in times)
        q1, _, q3 = (statistics.quantiles(times[0], n=4)
                     if opts.rounds > 1 else (0, 0, 0))
        wins = sum(n < b for b, n in zip(*times))
        print(f"{text}  {base:.3f}  {new:.3f}  {q3 - q1:.3f}  "
              f"{new / base:.2f}  {wins}/{opts.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
