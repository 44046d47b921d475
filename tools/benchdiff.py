#!/usr/bin/env python3
"""benchdiff — checks a smoke bench's counts against the committed JSON.

A bench's times move with the host, but some of its numbers are counts
of work that a deterministic program repeats exactly: the Fig. 7 bench's
`comparisons`, for one. A change that means to leave the work alone
(a cache, a reuse path, a faster kernel) must leave those counts equal.
benchdiff reads a smoke run's output on stdin (the last line that parses
as a JSON object), matches its rows to the committed file's rows by their
key fields, and fails when an exact field differs. Times are ignored, and
committed rows that the smoke run does not produce (the full run's larger
sizes) are skipped.

Usage:
  bench_fig7_performance --smoke | tools/benchdiff.py BENCH_fig7.json
  tools/benchdiff.py --self-test

Exits 0 when every smoke row matches, 1 on a mismatch or a smoke row the
committed file lacks, 2 on usage errors (unreadable input, unknown bench).
"""

import argparse
import json
import sys

# Per bench: the list of rows, the fields that identify a row, and the
# fields that must repeat exactly.
SPECS = {
    "fig7_performance": {
        "rows": "rows",
        "keys": ("n", "mode"),
        "exact": ("comparisons",),
    },
}


class UsageError(Exception):
    pass


def last_json_object(text):
    """The last line of `text` that parses as a JSON object."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            return value
    raise UsageError("no JSON object on stdin")


def diff(smoke, committed):
    """Returns the list of findings; empty when the smoke rows match."""
    bench = smoke.get("bench")
    if bench not in SPECS:
        raise UsageError("no spec for bench %r" % bench)
    if committed.get("bench") != bench:
        raise UsageError("committed file is bench %r, smoke run is %r" %
                         (committed.get("bench"), bench))
    spec = SPECS[bench]

    def index(doc, what):
        rows = {}
        for row in doc.get(spec["rows"], []):
            try:
                key = tuple(row[k] for k in spec["keys"])
            except KeyError as missing:
                raise UsageError("%s row without key field %s" %
                                 (what, missing))
            rows[key] = row
        return rows

    committed_rows = index(committed, "committed")
    findings = []
    for key, row in sorted(index(smoke, "smoke").items(), key=str):
        name = ", ".join("%s=%s" % kv for kv in zip(spec["keys"], key))
        if key not in committed_rows:
            findings.append("%s: row not in the committed file" % name)
            continue
        for field in spec["exact"]:
            want = committed_rows[key].get(field)
            got = row.get(field)
            if want != got:
                findings.append("%s: %s is %s, committed %s" %
                                (name, field, got, want))
    return findings


def run(committed_path, stdin_text):
    try:
        with open(committed_path) as f:
            committed = json.load(f)
    except (OSError, ValueError) as error:
        raise UsageError("cannot read %s: %s" % (committed_path, error))
    findings = diff(last_json_object(stdin_text), committed)
    for finding in findings:
        print("benchdiff: %s" % finding)
    if not findings:
        print("benchdiff: every smoke row matches %s" % committed_path)
    return 1 if findings else 0


def self_test():
    committed = {
        "bench": "fig7_performance",
        "rows": [
            {"n": 974, "mode": "temporal", "ingest_ms": 4.8,
             "comparisons": 18096},
            {"n": 974, "mode": "complete", "ingest_ms": 19.6,
             "comparisons": 114619},
            {"n": 98390, "mode": "temporal", "ingest_ms": 20747.6,
             "comparisons": 118201486},
        ],
    }

    def smoke(rows):
        return {"bench": "fig7_performance", "smoke": True, "rows": rows}

    same = [{"n": 974, "mode": "temporal", "ingest_ms": 9.9,
             "comparisons": 18096},
            {"n": 974, "mode": "complete", "ingest_ms": 1.0,
             "comparisons": 114619}]
    drifted = [dict(same[0]), dict(same[1], comparisons=114620)]
    unknown_row = same + [{"n": 1942, "mode": "temporal",
                           "comparisons": 59949}]
    cases = [
        ("equal counts, other times", smoke(same), 0),
        ("one count drifted", smoke(drifted), 1),
        ("smoke row missing from the committed file", smoke(unknown_row), 1),
        ("unknown bench", {"bench": "nope", "rows": []}, 2),
    ]
    failures = 0
    for name, doc, want in cases:
        text = "== some bench output ==\n" + json.dumps(doc) + "\n"
        try:
            got = 1 if diff(last_json_object(text), committed) else 0
        except UsageError:
            got = 2
        if got != want:
            print("benchdiff --self-test: %s: exit %d, want %d" %
                  (name, got, want), file=sys.stderr)
            failures += 1
    try:
        last_json_object("no json here\n")
        print("benchdiff --self-test: input without JSON accepted",
              file=sys.stderr)
        failures += 1
    except UsageError:
        pass
    if failures:
        print("benchdiff --self-test: %d case(s) failed" % failures,
              file=sys.stderr)
        return 1
    print("benchdiff --self-test: %d case(s) passed" % (len(cases) + 1))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", nargs="?",
                        help="the committed BENCH_*.json to compare with")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded fixtures and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.committed is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return run(args.committed, sys.stdin.read())
    except UsageError as error:
        print("benchdiff: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
