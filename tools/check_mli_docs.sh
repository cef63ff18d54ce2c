#!/bin/sh
# Lint: every exported value in the storage, B+tree, WAL, transaction,
# core-facade, network, XML-index and observability interfaces must carry
# a documentation comment.  These are the layers whose contracts
# (durability, concurrency, isolation, failure behaviour, the public API
# surface, the instruments operators read) live in the .mli docs, so an
# undocumented export is a CI failure.
#
# A `val` (or `exception`) is considered documented when either
#   - the nearest preceding non-blank line closes a comment (ends with `*)`), or
#   - a `(**` doc comment opens after the declaration but before the next
#     top-level item (the "postfix doc" odoc style).
#
# Usage: tools/check_mli_docs.sh [dir ...]
#        (defaults to lib/storage lib/btree lib/wal lib/txn lib/core lib/net
#        lib/xindex lib/obs)
set -eu
cd "$(dirname "$0")/.."

dirs="${*:-lib/storage lib/btree lib/wal lib/txn lib/core lib/net lib/xindex lib/obs}"
status=0

for dir in $dirs; do
  for f in "$dir"/*.mli; do
    [ -e "$f" ] || continue
    awk -v file="$f" '
      { lines[NR] = $0 }
      END {
        bad = 0
        for (i = 1; i <= NR; i++) {
          line = lines[i]
          if (line !~ /^(val|exception) /) continue
          ok = 0
          # Look back for a closing comment immediately above.
          for (j = i - 1; j >= 1; j--) {
            p = lines[j]
            if (p ~ /^[ \t]*$/) continue
            if (p ~ /\*\)[ \t]*$/) ok = 1
            break
          }
          # Otherwise accept a doc comment that opens before the next item.
          if (!ok) {
            for (j = i + 1; j <= NR; j++) {
              n = lines[j]
              if (n ~ /^(val|type|exception|module|class|end)/) break
              if (n ~ /\(\*\*/) { ok = 1; break }
            }
          }
          if (!ok) {
            printf "%s:%d: undocumented export: %s\n", file, i, line
            bad = 1
          }
        }
        exit bad
      }
    ' "$f" || status=1
  done
done

if [ "$status" -ne 0 ]; then
  echo "check_mli_docs: undocumented exports found (see above)" >&2
fi
exit $status
