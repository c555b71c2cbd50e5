#!/usr/bin/env python3
"""Assert the verify counters of BENCH_*.json files are clean.

Shared by scripts/smoke.sh and the CI verify-and-fuzz job so both
enforce the same contract on the engine section's counts: at least
one job passed the verifier (so it ran) and none failed semantically.

    python3 scripts/check_verify_json.py build/BENCH_table2.json [...]
"""

import json
import sys


def check(path):
    with open(path) as f:
        counts = json.load(f)["engine"]["counts"]
    passed, failed = counts.get("verify.pass", 0), counts.get("verify.fail", 0)
    assert failed == 0, f"{path}: {failed} semantic mismatch(es)"
    assert passed > 0, f"{path}: verification checked no jobs"
    print(f"{path}: {passed} pass, {counts.get('verify.skipped', 0)} "
          "skipped, 0 fail")


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: check_verify_json.py BENCH_*.json [...]")
    for path in argv[1:]:
        check(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
