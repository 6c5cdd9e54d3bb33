#!/bin/bash
# run_benches.sh must reject a roster that names a bench twice. Every cell
# writes $spool_dir/<bench>.{stdout,stderr,status} (and, with JSON_OUT_DIR,
# <dir>/<bench>.json), so two cells of one bench would share those files: a
# later cell's runner truncates the status file an earlier cell's emission
# is reading, and the harness misreports a timeout. The roster is refused
# with exit 2 before any cell launches.
#
# Usage: duplicate_roster_test.sh
# Registered as the `duplicate_roster` ctest; needs no build (it uses a
# fake bench tree).
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root" || exit 1

tmp=$(mktemp -d "${TMPDIR:-/tmp}/duplicate_roster.XXXXXX") || exit 1
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/bench"
cat > "$tmp/bench/bench_ok" <<'EOF'
#!/bin/sh
echo "fake ok bench"
EOF
chmod +x "$tmp/bench/bench_ok"

env BUILD_DIR="$tmp" BENCHES="bench_ok bench_ok" JOBS=4 \
    ./run_benches.sh > "$tmp/out" 2> "$tmp/err"
rc=$?
if [[ $rc -ne 2 ]]; then
  echo "duplicate_roster_test: FAIL: expected exit 2, got $rc" >&2
  exit 1
fi
if ! grep -q "roster names 'bench_ok' twice" "$tmp/err"; then
  echo "duplicate_roster_test: FAIL: no rejection message" \
       "(stderr: $(cat "$tmp/err"))" >&2
  exit 1
fi
if [[ -s $tmp/out ]]; then
  echo "duplicate_roster_test: FAIL: a cell ran: $(cat "$tmp/out")" >&2
  exit 1
fi
echo "duplicate_roster_test: duplicate roster rejected with exit 2"
