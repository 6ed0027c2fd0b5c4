#!/usr/bin/env bash
# Regenerates EXPERIMENTS.md's tables from `charon-cli paper`.
#
#   scripts/paper_tables.sh CHARON_CLI [--jobs N]
#
# Runs `CHARON_CLI paper` with the remaining arguments and replaces every
# `<!-- paper:ID -->` ... `<!-- /paper:ID -->` block of EXPERIMENTS.md with
# the report's block of the same ID; the prose between the blocks stays as
# it is. Fails, leaving the document untouched, when the report and the
# document do not hold the same set of IDs. `git diff EXPERIMENTS.md`
# afterwards shows every number that moved; CI runs this and fails on a
# non-empty diff.
set -euo pipefail

BIN=${1:?usage: $0 CHARON_CLI [--jobs N]}
shift
REPO=$(cd "$(dirname "$0")/.." && pwd)
REPORT=$(mktemp)
trap 'rm -f "$REPORT"' EXIT
"$BIN" paper "$@" > "$REPORT"

python3 - "$REPORT" "$REPO/EXPERIMENTS.md" <<'PYEOF'
import re, sys

block = re.compile(r"<!-- paper:(\w+) -->\n.*?<!-- /paper:\1 -->\n", re.S)
report_path, doc_path = sys.argv[1], sys.argv[2]
new = {m.group(1): m.group(0) for m in block.finditer(open(report_path).read())}
doc = open(doc_path).read()
old = [m.group(1) for m in block.finditer(doc)]
if sorted(old) != sorted(new):
    sys.exit(f"EXPERIMENTS.md holds blocks {sorted(old)}; the report holds {sorted(new)}")
open(doc_path, "w").write(block.sub(lambda m: new[m.group(1)], doc))
PYEOF
