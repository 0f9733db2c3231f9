#!/usr/bin/env bash
# The link-state drill (docs/WHOLEPROGRAM.md, "Reusing a link"). Over a copy
# of a corpus with cross-file pairs (examples/mir/eval), a `check
# --cache-dir` run
#   1. fills the cache cold, linking;
#   2. re-run unchanged, reuses the link and renders the cold run's bytes;
#   3. after an edit of a file on no cross-file edge, reuses the link;
#   4. after an edit of the xfile_uaf callee, relinks;
#   5. with its link-state payload skewed to another version (and the
#      segment re-sealed by tools/cache_segment.py), relinks as from a cold
#      link state, reports no corruption and renders the same bytes.
# Every run's --json must equal a --no-cache run over the same files.
#
#   tools/link_state_drill.sh path/to/rustsight examples/mir/eval
set -euo pipefail
RS=$1
SRC=$2
TOOLS=$(cd "$(dirname "$0")" && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cp -r "$SRC" "$WORK/eval"
CACHE=$WORK/cache

fail() {
  echo "link-state drill: $*" >&2
  exit 1
}

# check NAME: a warm run into NAME.json and NAME.log, held to --no-cache.
check() {
  "$RS" check --json --cache-dir "$CACHE" "$WORK/eval" \
    > "$WORK/$1.json" 2> "$WORK/$1.log" || test $? -eq 1
  "$RS" check --json --no-cache "$WORK/eval" \
    > "$WORK/$1.want" 2> /dev/null || test $? -eq 1
  cmp -s "$WORK/$1.want" "$WORK/$1.json" ||
    fail "$1: --json differs from --no-cache"
}
reused() {
  grep -qE "link: [0-9]+ file\(s\) reused, $2 changed" "$WORK/$1.log" ||
    fail "$1: expected a reused link with $2 changed: $(cat "$WORK/$1.log")"
}
relinked() {
  grep -qE "link: [0-9]+ file\(s\), [0-9]+ round\(s\)" "$WORK/$1.log" ||
    fail "$1: expected a relink: $(cat "$WORK/$1.log")"
}

check cold
relinked cold

check unchanged
reused unchanged 0
cmp -s "$WORK/cold.json" "$WORK/unchanged.json" ||
  fail "unchanged: bytes differ from the cold run"

# A blank first line moves every location of a file that calls and defines
# nothing across files.
sed -i '1s/^/\n/' "$WORK/eval/clean_0.mir"
check leaf
reused leaf 1

# The benign callee body under the name the caller calls.
sed 's/xf_free_ok_0/xf_free_bug_0/' "$SRC/xfile_uaf_ok_0_def.mir" \
  > "$WORK/eval/xfile_uaf_bug_0_def.mir"
check callee
relinked callee

python3 - "$CACHE" "$TOOLS" <<'PY'
import struct, sys
sys.path.insert(0, sys.argv[2])
import cache_segment
skewed = 0
for seg in cache_segment.segments(sys.argv[1]):
    entries = cache_segment.read_segment(seg)
    for i, (key, payload) in enumerate(entries):
        if payload[:4] == b"RSLS":
            version = struct.unpack("<I", payload[4:8])[0]
            entries[i] = (key, payload[:4] + struct.pack("<I", version + 1)
                          + payload[8:])
            skewed += 1
    cache_segment.write_segment(seg, entries)
if not skewed:
    sys.exit("no link-state entries in " + sys.argv[1])
PY
check skewed
relinked skewed
if grep -qE "[1-9][0-9]* corrupt|corruption" "$WORK/skewed.log"; then
  fail "skewed: corruption reported: $(cat "$WORK/skewed.log")"
fi
cmp -s "$WORK/callee.json" "$WORK/skewed.json" ||
  fail "skewed: bytes differ from the run before the skew"
echo "link-state drill passed"
