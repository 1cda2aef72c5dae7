#!/usr/bin/env bash
# Self-test for the static-analysis gate: plants the violation cases under
# a src/-shaped path inside the build tree, synthesizes a
# compile_commands.json, and checks that every mv3c_analyze rule fires —
# then checks clean controls produce zero findings, plus the suppression
# mechanism (honored + unused-is-an-error) and the per-TU result cache.
# The analyzer runs directly (not via run_lint.sh) so --root can point at
# the scratch DB: the planted files live under the build tree, which the
# repo-rooted wrapper would scope out. Skips (exit 77) when the analyzer
# is not built (no clang dev package).
#
# Usage: lint_selftest.sh <repo-root> <scratch-dir> [analyzer-path]

set -u

ROOT="$1"
SCRATCH="$2"
ANALYZER="${3:-}"

if [[ -z "${ANALYZER}" || ! -x "${ANALYZER}" ]]; then
  echo "SKIP: mv3c_analyze not built"
  exit 77
fi

make_db() {  # make_db <dir> <case...>  — synthesizes compile_commands.json
  # A case may be spelled "dest/path.cc=case_file.cc" to plant it at a
  # specific src/-relative path (rules scope by path, e.g. the src/wal/
  # raw-I/O exemption); a bare name plants cases/<name> at src/<name>.
  local dir="$1"
  shift
  rm -rf "${dir}"
  mkdir -p "${dir}/src"
  local entries=()
  local c dest srcf
  for c in "$@"; do
    if [[ "${c}" == *=* ]]; then
      dest="${c%%=*}"
      srcf="${c#*=}"
    else
      dest="${c}"
      srcf="${c}"
    fi
    mkdir -p "${dir}/src/$(dirname "${dest}")"
    cp "${ROOT}/tests/static/cases/${srcf}" "${dir}/src/${dest}"
    entries+=("{\"directory\": \"${dir}\",
  \"command\": \"c++ -std=c++20 -I${ROOT}/src -c src/${dest}\",
  \"file\": \"src/${dest}\"}")
  done
  {
    echo "["
    local IFS=,
    echo "${entries[*]}"
    echo "]"
  } > "${dir}/compile_commands.json"
}

FAILED=0

# The shared violations DB: one planted case per rule. The new-rule cases
# are placed to stay single-rule — lock_scope_io.cc sits in src/wal/ so
# its fsync is inside the raw-I/O rule's exemption, and the atomic /
# guarded-coverage plants use "shadow" names that miss the ts-counter
# name regex. ckpt_writer.cc is the checkpoint-shaped raw-I/O violation
# (pwrite/fdatasync outside wal/).
VIOLATION_CASES=(
  raw_new_version.cc bare_lock_guard.cc stats_outside_obs.cc raw_io.cc
  ckpt_writer.cc=ckpt_raw_io.cc mvcc/shadow_ts.cc=global_ts_counter.cc
  wal/locked_io.cc=lock_scope_io.cc mvcc/shadow_epoch.cc=ts_discipline.cc
  shadow_queue.cc=guarded_coverage.cc shadow_flag.cc=atomic_order.cc
  server/frame_writer.cc=server_file_io.cc
  mvcc/shadow_socket.cc=socket_io.cc
)

# The clean control: the same raw I/O as the violation planted at
# src/wal/checkpoint.cc proves the wal/ exemption covers the checkpoint
# TUs; the same atomic ts counter planted at src/mvcc/transaction_manager.h
# proves the TID-allocator exemption is per-file, not per-directory
# (shadow_ts.cc above sits in src/mvcc/ too and must still fire); the _ok
# twins of the four analyzer rules prove each rule's sanctioned spelling
# stays silent.
CLEAN_CASES=(
  lint_clean.cc
  wal/checkpoint.cc=wal_checkpoint_io.cc
  mvcc/transaction_manager.h=global_ts_counter.cc
  wal/unlocked_io.cc=lock_scope_io_ok.cc
  mvcc/shadow_epoch.cc=ts_discipline_ok.cc
  shadow_queue.cc=guarded_coverage_ok.cc
  shadow_flag.cc=atomic_order_ok.cc
  server/conn.cc=server_socket_ok.cc
)

run_analyzer() {  # run_analyzer <db> [extra-args...]
  local db="$1"
  shift
  "${ANALYZER}" -p "${db}" --root "${db}" "$@" 2>&1
}

# (a) Every rule fires on its planted violation — twice, the second run
#     served from the per-TU cache (same key, fresh deps), which must
#     reproduce the findings rather than absorb them.
make_db "${SCRATCH}/violations" "${VIOLATION_CASES[@]}"
for pass in cold cached; do
  OUT="$(run_analyzer "${SCRATCH}/violations" \
         --cache-dir "${SCRATCH}/violations/.cache")"
  if [[ $? -ne 1 ]]; then
    echo "FAIL: analyzer (${pass}) over violations did not exit 1:"
    printf '%s\n' "${OUT}"
    FAILED=1
  fi
  for rule in no_raw_version_new no_bare_lock_guard no_stats_outside_obs \
              no_raw_io_outside_wal no_global_ts_counter lock_scope_io \
              timestamp_discipline guarded_by_coverage atomic_memory_order; do
    if ! printf '%s\n' "${OUT}" | grep -Fq "[${rule}]"; then
      echo "FAIL: analyzer (${pass}) — rule ${rule} did not fire:"
      printf '%s\n' "${OUT}"
      FAILED=1
    fi
  done
  # The raw-I/O rule must have hit the checkpoint-shaped TU specifically,
  # not just raw_io.cc — pins the rule's name list to checkpoint.cc's
  # calls.
  if ! printf '%s\n' "${OUT}" | grep -q "ckpt_writer.cc"; then
    echo "FAIL: analyzer (${pass}) missed the checkpoint-shaped raw-I/O TU:"
    printf '%s\n' "${OUT}"
    FAILED=1
  fi
  # The socket allowlist is per-callee, not per-directory: file I/O in
  # src/server/ must still fire, and send() outside the allowlisted
  # paths must fire.
  if ! printf '%s\n' "${OUT}" | grep -q "server/frame_writer.cc"; then
    echo "FAIL: analyzer (${pass}) — file I/O in src/server/ did not fire:"
    printf '%s\n' "${OUT}"
    FAILED=1
  fi
  if ! printf '%s\n' "${OUT}" | grep -q "shadow_socket.cc"; then
    echo "FAIL: analyzer (${pass}) — send() outside the allowlist did not fire:"
    printf '%s\n' "${OUT}"
    FAILED=1
  fi
done

# (b) The clean control must produce zero findings.
make_db "${SCRATCH}/clean" "${CLEAN_CASES[@]}"
if ! OUT="$(run_analyzer "${SCRATCH}/clean" --no-cache)"; then
  echo "FAIL: analyzer over the clean control reported findings:"
  printf '%s\n' "${OUT}"
  FAILED=1
fi

# (c) Suppressions: a `mv3c-lint: allow(...)` comment (both the
#     whole-line and trailing spellings) silences a real violation...
make_db "${SCRATCH}/suppress_ok" shadow_probe.cc=suppression_ok.cc
if ! OUT="$(run_analyzer "${SCRATCH}/suppress_ok" --no-cache)"; then
  echo "FAIL: honored suppression still reported findings:"
  printf '%s\n' "${OUT}"
  FAILED=1
fi

# (d) ...and a suppression with no violation left is itself an error,
#     so stale escapes cannot linger.
make_db "${SCRATCH}/suppress_unused" shadow_probe.cc=suppression_unused.cc
OUT="$(run_analyzer "${SCRATCH}/suppress_unused" --no-cache)"
if [[ $? -ne 1 ]] || ! printf '%s\n' "${OUT}" | grep -qi "unused"; then
  echo "FAIL: stale suppression was not reported as unused:"
  printf '%s\n' "${OUT}"
  FAILED=1
fi

exit "${FAILED}"
