#!/usr/bin/env python3
"""Doc lint: keep the user-facing docs in sync with the code they describe.

Two checks, both derived from the source of truth rather than a hand-kept
list, so adding a flag or a run-record section without documenting it fails
CI:

  * Bench CLI flags — every `--flag` in the kFlags table of
    bench/bench_util.h (the flag table that drives the parser shared by all
    fig_* binaries) must appear in a README.md markdown-table row (a line
    starting with `|` containing the backticked flag). The README's flag
    table is the canonical quick reference.
  * Run-record schema keys — every JSON key emitted by
    src/stats/run_record.cpp (`w.key("...")` calls) plus the schema version
    token must be documented in docs/schema.md.

Usage:
    tools/check_docs.py [--root DIR] [--self-test]

Exit codes:
    0  docs cover everything
    1  something undocumented (each item printed)
    2  structural error: a scanned file is missing or has no extractable
       flags/keys (the lint could not actually lint)

--self-test additionally verifies the negative path: the lint must flag an
undocumented flag injected into the flag table and an injected undocumented
schema key. CI runs `check_docs.py --self-test` so a regression that makes
the lint vacuously pass is itself a failure.
"""

import argparse
import pathlib
import re
import sys

FLAG_SOURCE = "bench/bench_util.h"
FLAG_DOC = "README.md"
KEY_SOURCE = "src/stats/run_record.cpp"
SCHEMA_SOURCE = "src/stats/run_record.h"
KEY_DOC = "docs/schema.md"

# One kFlags entry: {"--name", FlagArg::kKind, ...}
FLAG_RE = re.compile(r'\{\s*"(--[a-z][a-z-]*)",\s*FlagArg::k[A-Za-z]+\s*,')
FLAG_TABLE_RE = re.compile(r'inline const Flag kFlags\[\] = \{')
KEY_RE = re.compile(r'w\.key\("([A-Za-z_.]+)"\)')
SCHEMA_RE = re.compile(r'kRunRecordSchema\s*=\s*"([^"]+)"')


def die(msg):
    print(f"check_docs: ERROR: {msg}", file=sys.stderr)
    sys.exit(2)


def read(root, rel):
    path = root / rel
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        die(f"cannot read {path}: {e}")


def extract_flags(source_text):
    return sorted(set(FLAG_RE.findall(source_text)))


def inject_flag(source_text, flag):
    """The flag source with one more table entry, as a new flag would add."""
    m = FLAG_TABLE_RE.search(source_text)
    if not m:
        die(f"{FLAG_SOURCE}: no kFlags table found")
    row = f'\n    {{"{flag}", FlagArg::kNone, "", "injected", &BenchOptions::telemetry}},'
    return source_text[:m.end()] + row + source_text[m.end():]


def extract_keys(writer_text, header_text):
    keys = sorted(set(KEY_RE.findall(writer_text)))
    m = SCHEMA_RE.search(header_text)
    if not m:
        die(f"{SCHEMA_SOURCE}: no kRunRecordSchema token found")
    return keys, m.group(1)


def table_rows(doc_text):
    return [line for line in doc_text.splitlines() if line.lstrip().startswith("|")]


def check_flags(flags, readme_text):
    """Each flag must sit in a markdown-table row, backticked."""
    rows = "\n".join(table_rows(readme_text))
    return [f for f in flags if f"`{f}" not in rows]


def check_keys(keys, token, schema_text):
    missing = [k for k in keys
               if not re.search(rf"\b{re.escape(k)}\b", schema_text)]
    if token not in schema_text:
        missing.append(f"schema token {token}")
    return missing


def run_checks(root):
    flags = extract_flags(read(root, FLAG_SOURCE))
    if not flags:
        die(f"{FLAG_SOURCE}: no flags extracted — parser pattern out of date?")
    keys, token = extract_keys(read(root, KEY_SOURCE), read(root, SCHEMA_SOURCE))
    if not keys:
        die(f"{KEY_SOURCE}: no w.key(...) calls extracted — pattern out of date?")

    readme = read(root, FLAG_DOC)
    schema_doc = read(root, KEY_DOC)

    problems = []
    for f in check_flags(flags, readme):
        problems.append(f"{FLAG_DOC}: flag {f} ({FLAG_SOURCE}) missing from the flag table")
    for k in check_keys(keys, token, schema_doc):
        problems.append(f"{KEY_DOC}: run-record key {k} ({KEY_SOURCE}) undocumented")
    return flags, keys, problems


def self_test(root):
    """The negative path: an undocumented flag/key must be caught."""
    readme = read(root, FLAG_DOC)
    schema_doc = read(root, KEY_DOC)
    failures = []
    flag = "--intentionally-undocumented"
    flags = extract_flags(inject_flag(read(root, FLAG_SOURCE), flag))
    if flag not in flags:
        failures.append("lint did not extract a flag added to the flag table")
    if flag not in check_flags(flags, readme):
        failures.append("lint did not flag an undocumented CLI flag")
    if not check_keys(["intentionally_undocumented_key"], "dssmr.run_record.v7",
                      schema_doc):
        failures.append("lint did not flag an undocumented schema key")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repository root (default: current directory)")
    ap.add_argument("--self-test", action="store_true",
                    help="also verify the lint catches an injected "
                         "undocumented flag and schema key")
    args = ap.parse_args()
    root = pathlib.Path(args.root)

    flags, keys, problems = run_checks(root)
    if args.self_test:
        for f in self_test(root):
            problems.append(f"self-test: {f}")

    if problems:
        for p in problems:
            print(f"check_docs: FAIL: {p}", file=sys.stderr)
        sys.exit(1)
    print(f"check_docs: OK — {len(flags)} bench flags documented in {FLAG_DOC}, "
          f"{len(keys)} run-record keys documented in {KEY_DOC}")


if __name__ == "__main__":
    main()
