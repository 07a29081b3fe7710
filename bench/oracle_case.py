"""One oracle-commutant case in a fresh interpreter, tracing off.

    PYTHONPATH=src python3 bench/oracle_case.py --genus 2 --alpha a0=1/2,...

Runs pairs.commutant_solve(L, 4g+2, known=M) and the criterion-9 checks
(in_affine_span, is_power_span) and prints their answers as one JSON
object.  The traced replay runs the same function with spans.
"""

import argparse
import json
import sys

from replay import NullTracer, oracle


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--genus", type=int, required=True)
    parser.add_argument("--alpha", required=True)
    args = parser.parse_args()
    doc, _ = oracle(NullTracer(), args.genus, args.alpha)
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
