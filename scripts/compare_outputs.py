#!/usr/bin/env python3
"""Which stage outputs two benchmark runs share byte for byte.

    python3 scripts/compare_outputs.py RESULT_A.json RESULT_B.json

Each argument is a ``result-*.json`` that ``perfbench/run.py`` wrote. It
records, for every pass of the run, the sha256 of every file each stage
wrote (``passes[].digests``). For each stage and file this prints
``same`` when every pass of both runs has the one digest, ``differs``
when not, and ``only in A`` or ``only in B`` when one run lacks the file.
``resolved.ini`` is skipped: it records the run's own output directory,
so it differs between any two runs. Exits 0 when no file differs and 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

SKIPPED = ("resolved.ini",)


def stage_digests(path: str) -> dict:
    """(stage, file) -> the set of digests over every pass of the run."""
    with open(path, encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]
    out = {}
    for p in passes:
        for stage, files in p["digests"].items():
            for name, sha in files.items():
                if name not in SKIPPED:
                    out.setdefault((stage, name), set()).add(sha)
    return out


def compare(a: dict, b: dict) -> list[tuple[str, str, str]]:
    """(stage, file, status) for every stage output of either run."""
    rows = []
    for key in list(a) + [k for k in b if k not in a]:
        if key not in b:
            status = "only in A"
        elif key not in a:
            status = "only in B"
        else:
            status = "same" if len(a[key]) == 1 and a[key] == b[key] else "differs"
        rows.append((*key, status))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first result-*.json")
    parser.add_argument("b", help="second result-*.json")
    args = parser.parse_args(argv)
    rows = compare(stage_digests(args.a), stage_digests(args.b))
    width = max((len(stage) for stage, _, _ in rows), default=0)
    for stage, name, status in rows:
        print(f"{stage:<{width}}  {name:<14}  {status}")
    differ = sum(status != "same" for _, _, status in rows)
    print(f"{differ} of {len(rows)} files differ ({', '.join(SKIPPED)} skipped)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
