"""Fast self-check of the benchmark harness (about 40 s on 2 cores).

Runs every workload at a reduced size -- one round untraced, one round
traced -- with all of its correctness checks, and verifies that the
reported metrics are exactly the ones ``BENCHMARK.json`` declares::

    python3 perfbench/selfcheck.py

Exits non-zero on the first broken workload.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {(m["name"], m["unit"]) for m in declared["end_to_end"]},
        True: {(m["name"], m["unit"]) for m in declared["per_layer"]},
    }
    sys.path.insert(0, str(run.SRC))
    import suite

    if {w["name"] for w in declared["workloads"]} != set(suite.WORKLOADS):
        print("BENCHMARK.json and the suite name different workloads", file=sys.stderr)
        return 1
    broken = 0
    for workload in suite.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, seed=2, seconds=0.0, trace=trace, small=True)
            problems = []
            if not result["correct"]:
                problems.append("a correctness check failed (see above)")
            if result["failed"] or result["attempted"] < 1:
                problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
            reported = {(name, m["unit"]) for name, m in result["metrics"].items()}
            if reported != expected[trace]:
                problems.append(
                    f"metrics {sorted(reported ^ expected[trace])} differ from BENCHMARK.json"
                )
            label = f"{workload} ({'traced' if trace else 'untraced'})"
            print(f"{label:28s} {'ok' if not problems else 'BROKEN: ' + '; '.join(problems)}")
            broken += bool(problems)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
