#!/usr/bin/env python3
"""splint — the StoryPivot repo linter.

Enforces project conventions the compiler cannot, over src/ tests/ bench/
examples/ (and tools/ headers if any appear):

  banned-function   rand(), sprintf(), vsprintf(), strcpy() anywhere;
                    argless time(nullptr)/time(NULL)/time(0) in library
                    code (src/) — pass timestamps in, or use util/rng.h
                    for randomness so runs stay deterministic.
  include-guard     headers use #ifndef STORYPIVOT_<PATH>_H_ where <PATH>
                    is the file path without the leading "src/", upper-
                    cased, with separators mapped to "_".
  using-namespace   no `using namespace` at any scope in headers.
  stdout-in-lib     no std::cout / std::cerr in src/ libraries; use
                    util/logging.h (SP_LOG) so verbosity stays
                    controllable.
  raw-file-write    no std::ofstream / std::fstream / fopen() anywhere
                    but src/util/fs.cc — every write must go through
                    util/fs.h so its atomic-replace and fsync guarantees
                    (DESIGN.md §10) hold repo-wide.
  build-artifact    no committed build trees or object/cache files.
  bench-file        every tracked BENCH_*.json at the repo root is named
                    as a string literal by exactly one bench/*.cc, and
                    every BENCH_*.json literal in bench/*.cc names a
                    tracked file, so each committed number has a command
                    that writes it.
  full-scan         no partitions() full-story scans outside src/core/
                    and src/search/ — O(all stories) walks (StoryQuery's
                    Find* scan, the RankStoriesScan oracle) stay in the
                    two layers that own them; everything else asks
                    StoryQuery or the k-bounded SearchEngine. Tests are
                    exempt.
  raw-sync          no raw std::mutex / std::lock_guard /
                    std::unique_lock / std::condition_variable (or their
                    shared/timed/recursive cousins) outside
                    src/util/sync.{h,cc} — use the annotated Mutex /
                    MutexLock / CondVar wrappers so Clang's thread-safety
                    analysis and tools/lockcheck.py see every lock
                    (DESIGN.md §13).
  lexicon-scan      no case-insensitive lexicon scans in src/: ToLower()
                    over a TermOf() result (a pass over the vocabulary per
                    lookup; use Vocabulary::LookupIgnoringCase) and no
                    range-for over EventTypes() (it copies and sorts every
                    posted type; use PostingsIndex::EventTypeIgnoringCase).
                    Tests are exempt: the scans live on there as oracles.

A finding can be suppressed on its line with:  // splint: allow(<rule>)

Usage:
  tools/splint.py [--root REPO_ROOT] [PATH ...]

Exits 0 when clean, 1 when findings exist, 2 on usage errors. Add new
rules as functions returning (line_number, rule, message) tuples and
register them in FILE_CHECKS.
"""

import argparse
import os
import re
import subprocess
import sys

DEFAULT_SCAN_DIRS = ["src", "tests", "bench", "examples"]
SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

ALLOW_RE = re.compile(r"//\s*splint:\s*allow\(([a-z-]+)\)")
LINE_COMMENT_RE = re.compile(r"^\s*//")

BANNED_EVERYWHERE = [
    (re.compile(r"(?<![A-Za-z0-9_:.>])rand\s*\("), "banned-function",
     "rand() is banned; use util/rng.h (deterministic, seedable)"),
    (re.compile(r"(?<![A-Za-z0-9_])(?:v)?sprintf\s*\("), "banned-function",
     "sprintf()/vsprintf() are banned; use StrFormat() or snprintf()"),
    (re.compile(r"(?<![A-Za-z0-9_])strcpy\s*\("), "banned-function",
     "strcpy() is banned; use std::string"),
]

BANNED_WRITERS = [
    (re.compile(r"std::w?o?fstream\b"), "raw-file-write",
     "std::ofstream/std::fstream are banned; write through util/fs.h "
     "(atomic WriteStringToFile or AppendFile)"),
    (re.compile(r"(?<![A-Za-z0-9_])fopen\s*\("), "raw-file-write",
     "fopen() is banned; write through util/fs.h "
     "(atomic WriteStringToFile or AppendFile)"),
]

BANNED_IN_SRC = [
    (re.compile(r"(?<![A-Za-z0-9_])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "banned-function",
     "argless time() is banned in library code; take a Timestamp "
     "parameter so behaviour is reproducible"),
    (re.compile(r"std::c(?:out|err)\b"), "stdout-in-lib",
     "std::cout/std::cerr are banned in src/; use SP_LOG from "
     "util/logging.h"),
]

BUILD_ARTIFACT_RES = [
    re.compile(r"(^|/)build[^/]*/"),
    re.compile(r"\.(o|obj|a|so|gcda|gcno)$"),
    re.compile(r"(^|/)CMakeCache\.txt$"),
    re.compile(r"(^|/)CMakeFiles/"),
    re.compile(r"(^|/)compile_commands\.json$"),
    re.compile(r"(^|/)CTestTestfile\.cmake$"),
    re.compile(r"(^|/)cmake_install\.cmake$"),
]


def expected_guard(relpath):
    """STORYPIVOT_<PATH>_H_ for a header path relative to the repo root.

    The leading "src/" is dropped (library headers are included as
    "core/engine.h"), other directories keep their prefix.
    """
    path = relpath
    if path.startswith("src/"):
        path = path[len("src/"):]
    stem = re.sub(r"\.(h|hpp)$", "", path)
    return "STORYPIVOT_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def line_allows(line, rule):
    match = ALLOW_RE.search(line)
    return match is not None and match.group(1) == rule


def check_banned(relpath, lines):
    in_src = relpath.startswith("src/")
    rules = list(BANNED_EVERYWHERE) + (BANNED_IN_SRC if in_src else [])
    # util/fs.cc is the one place allowed to touch the OS write APIs —
    # it is what everything else is told to use instead.
    if relpath != "src/util/fs.cc":
        rules += BANNED_WRITERS
    # logging/status/strings own the stderr fallback path that everything
    # else is told to use instead.
    exempt_stdout = relpath in (
        "src/util/logging.cc", "src/util/logging.h",
        "src/util/status.cc", "src/util/strings.cc",
    )
    for number, line in enumerate(lines, start=1):
        if LINE_COMMENT_RE.match(line):
            continue
        for pattern, rule, message in rules:
            if rule == "stdout-in-lib" and exempt_stdout:
                continue
            if pattern.search(line) and not line_allows(line, rule):
                yield number, rule, message


def check_include_guard(relpath, lines):
    if not relpath.endswith((".h", ".hpp")):
        return
    guard = expected_guard(relpath)
    ifndef_re = re.compile(r"^#ifndef\s+(\S+)")
    for number, line in enumerate(lines, start=1):
        match = ifndef_re.match(line)
        if not match:
            continue
        if line_allows(line, "include-guard"):
            return
        found = match.group(1)
        if found != guard:
            yield number, "include-guard", (
                "include guard %s does not match expected %s"
                % (found, guard))
        elif number >= len(lines) or \
                not lines[number].startswith("#define %s" % guard):
            yield number + 1, "include-guard", (
                "#ifndef %s must be followed by #define %s"
                % (guard, guard))
        return
    yield 1, "include-guard", "header has no include guard (%s)" % guard


def check_using_namespace(relpath, lines):
    if not relpath.endswith((".h", ".hpp")):
        return
    pattern = re.compile(r"^\s*using\s+namespace\b")
    for number, line in enumerate(lines, start=1):
        if pattern.match(line) and not line_allows(line, "using-namespace"):
            yield number, "using-namespace", (
                "`using namespace` in a header leaks into every includer")


RAW_SYNC_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")

# The annotated wrappers themselves are built on the raw primitives.
RAW_SYNC_EXEMPT = ("src/util/sync.h", "src/util/sync.cc")


def check_raw_sync(relpath, lines):
    """Raw std:: synchronization primitives are invisible to Clang's
    thread-safety analysis and to tools/lockcheck.py; everything must go
    through the annotated wrappers in util/sync.h (DESIGN.md §13)."""
    if relpath in RAW_SYNC_EXEMPT:
        return
    for number, line in enumerate(lines, start=1):
        if LINE_COMMENT_RE.match(line):
            continue
        if RAW_SYNC_RE.search(line) and not line_allows(line, "raw-sync"):
            yield number, "raw-sync", (
                "raw std:: sync primitive; use Mutex/MutexLock/CondVar "
                "from util/sync.h so the thread-safety analysis and "
                "lockcheck see the lock")


FULL_SCAN_RE = re.compile(r"(?:->|\.)\s*partitions\s*\(\s*\)")


def check_full_scan(relpath, lines):
    """partitions() walks every story of every source; only the core and
    search layers may pay that cost (everything else goes through
    StoryQuery, whose Find* scan is the one deliberate walk, or the
    index-backed, k-bounded SearchEngine)."""
    if relpath.startswith(("src/core/", "src/search/", "tests/")):
        return
    for number, line in enumerate(lines, start=1):
        if LINE_COMMENT_RE.match(line):
            continue
        if FULL_SCAN_RE.search(line) and not line_allows(line, "full-scan"):
            yield number, "full-scan", (
                "partitions() full-story scan outside src/core//src/search/;"
                " use StoryQuery/SearchEngine, or annotate why the full walk"
                " is required")


LEXICON_SCAN_RES = [
    (re.compile(r"\bToLower\s*\([^;]*\bTermOf\s*\("),
     "ToLower() over TermOf() scans the vocabulary; use "
     "Vocabulary::LookupIgnoringCase"),
    (re.compile(r"\bfor\s*\([^;]*:[^;]*\bEventTypes\s*\(\s*\)"),
     "range-for over EventTypes() copies and sorts every posted type; use "
     "PostingsIndex::EventTypeIgnoringCase"),
]


def check_lexicon_scan(relpath, lines):
    """Case-insensitive lookups fold the query once and ask an index
    (DESIGN.md §11.3); a per-lookup pass over the lexicon is what made
    query parsing linear in the vocabulary."""
    if not relpath.startswith("src/"):
        return
    for number, line in enumerate(lines, start=1):
        if LINE_COMMENT_RE.match(line) or line_allows(line, "lexicon-scan"):
            continue
        for pattern, message in LEXICON_SCAN_RES:
            if pattern.search(line):
                yield number, "lexicon-scan", message


FILE_CHECKS = [check_banned, check_include_guard, check_using_namespace,
               check_full_scan, check_raw_sync, check_lexicon_scan]


def check_build_artifacts(root):
    """Flags committed files that belong to a build tree."""
    try:
        output = subprocess.run(
            ["git", "ls-files"], cwd=root, capture_output=True, text=True,
            check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return  # Not a git checkout (e.g. a tarball); nothing to check.
    for tracked in output.splitlines():
        for pattern in BUILD_ARTIFACT_RES:
            if pattern.search(tracked):
                yield tracked, 0, "build-artifact", (
                    "build artifact is committed; remove it and rely on "
                    ".gitignore")
                break


BENCH_FILE_RE = re.compile(r'"(BENCH_[A-Za-z0-9_]+\.json)"')


def check_bench_files(root):
    """Pairs every tracked root BENCH_*.json with the one bench that
    writes it, in both directions."""
    try:
        output = subprocess.run(
            ["git", "ls-files", "BENCH_*.json"], cwd=root,
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return  # Not a git checkout (e.g. a tarball); nothing to check.
    tracked = {name for name in output.splitlines() if "/" not in name}
    writers = {}  # BENCH file name -> the bench sources naming it.
    bench_dir = os.path.join(root, "bench")
    names = sorted(os.listdir(bench_dir)) if os.path.isdir(bench_dir) else []
    for name in names:
        if not name.endswith(".cc"):
            continue
        relpath = "bench/" + name
        with open(os.path.join(bench_dir, name),
                  encoding="utf-8", errors="replace") as handle:
            for number, line in enumerate(handle, start=1):
                for match in BENCH_FILE_RE.finditer(line):
                    bench_file = match.group(1)
                    writers.setdefault(bench_file, set()).add(relpath)
                    if bench_file not in tracked:
                        yield relpath, number, "bench-file", (
                            "names %s, which is not a tracked file" %
                            bench_file)
    for bench_file in sorted(tracked):
        sources = sorted(writers.get(bench_file, ()))
        if not sources:
            yield bench_file, 0, "bench-file", (
                "no bench/*.cc names it; commit the bench that writes it "
                "or delete the file")
        elif len(sources) > 1:
            yield bench_file, 0, "bench-file", (
                "named by %d bench/*.cc files (%s); want exactly the one "
                "that writes it" % (len(sources), ", ".join(sources)))


def iter_source_files(root, paths):
    for path in paths:
        absolute = os.path.join(root, path)
        if os.path.isfile(absolute):
            yield path
            continue
        for directory, _, names in sorted(os.walk(absolute)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(directory, name)
                    yield os.path.relpath(full, root)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories relative to the root "
                             "(default: %s)" % " ".join(DEFAULT_SCAN_DIRS))
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or [d for d in DEFAULT_SCAN_DIRS
                           if os.path.isdir(os.path.join(root, d))]
    # An explicit path that doesn't exist is a caller error (a typo would
    # otherwise silently lint nothing and report success).
    for path in args.paths or ():
        if not os.path.exists(os.path.join(root, path)):
            print("splint: no such file or directory: %s" % path,
                  file=sys.stderr)
            return 2

    findings = []
    for relpath in iter_source_files(root, paths):
        relpath = relpath.replace(os.sep, "/")
        try:
            with open(os.path.join(root, relpath),
                      encoding="utf-8", errors="replace") as handle:
                lines = handle.read().splitlines()
        except OSError as error:
            print("splint: cannot read %s: %s" % (relpath, error),
                  file=sys.stderr)
            return 2
        for check in FILE_CHECKS:
            for number, rule, message in check(relpath, lines) or ():
                findings.append((relpath, number, rule, message))

    findings.extend(check_build_artifacts(root))
    findings.extend(check_bench_files(root))

    for relpath, number, rule, message in findings:
        print("%s:%d: [%s] %s" % (relpath, number, rule, message))
    if findings:
        print("splint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
