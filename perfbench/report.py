"""Print every metric of every workload, by name and with its unit.

Usage (from the repository root)::

    python3 perfbench/report.py --seed 0 --seconds 30

Runs each workload untraced and then traced (``run.py --trace 0`` and
``--trace 1``) and prints one line per metric. Exits with status 1 if
any point failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, PINS, ROOT


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    args = p.parse_args()
    ok = True
    for workload in json.loads(PINS.read_text()):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{workload}  trace={trace}  attempted={result['attempted']}"
                  f"  failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
