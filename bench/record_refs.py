"""Record the reference sha256 of every construct case the benchmark can run.

    python3 bench/record_refs.py

Runs `weylpair construct` for each tuple of the construct-highg pool and
for the self-check case, and writes bench/construct_refs.json.  Record only
from a commit whose construct output is known good: a later commit is
judged against these hashes, so a change that alters the emitted JSON by
one byte fails the construct cases.
"""

import hashlib
import json
import subprocess
import sys

from run import SELF_CHECK_ALPHA
from workloads import CONSTRUCT_POOL, REFS_FILE, ROOT, Case, case_env, cases


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    todo = [Case("construct", 1, SELF_CHECK_ALPHA)]
    for seed in range(CONSTRUCT_POOL):
        todo += [c for c in cases("construct-highg", seed) if c not in todo]
    refs = {}
    for case in todo:
        proc = subprocess.run(case.argv(), cwd=ROOT, env=case_env(),
                              capture_output=True)
        if proc.returncode != 0:
            print(f"{case.id}: exit {proc.returncode}", file=sys.stderr)
            return 1
        refs[case.id] = hashlib.sha256(proc.stdout).hexdigest()
        print(case.id, refs[case.id][:12], flush=True)
    REFS_FILE.write_text(json.dumps(
        {"recorded_at": commit, "pool": CONSTRUCT_POOL, "cases": refs},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
