#!/usr/bin/env bash
# Structured lint suite driver (DESIGN §5e/§5j): runs the mv3c_analyze
# libTooling binary (tools/mv3c_analyze — all nine protocol rules,
# suppressions, per-TU result caching) over the compilation database. A
# missing analyzer (no clang dev package) degrades to a no-op unless
# MV3C_LINT_STRICT=1 (CI sets it), where the gate must never silently skip.
#
# Usage: scripts/lint/run_lint.sh [build-dir]
#   build-dir defaults to `build` and must contain compile_commands.json
#   (the top-level CMakeLists sets CMAKE_EXPORT_COMPILE_COMMANDS=ON).
#
# Environment:
#   MV3C_LINT_STRICT=1    a missing analyzer is a setup error, not a skip.
#   MV3C_ANALYZE=path     analyzer binary override (default:
#                         <build-dir>/tools/mv3c_analyze/mv3c_analyze).
#   MV3C_LINT_CACHE=dir   analyzer result cache (default:
#                         <build-dir>/mv3c_analyze_cache).
#
# Exit codes: 0 clean (or analyzer unavailable and MV3C_LINT_STRICT unset),
#             1 rule violation, 2 setup error.

set -u

cd "$(dirname "$0")/../.."
BUILD_DIR="${1:-build}"

if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
  echo "lint: ${BUILD_DIR}/compile_commands.json not found." >&2
  echo "lint: configure first: cmake -B ${BUILD_DIR} -S ." >&2
  exit 2
fi

ANALYZER="${MV3C_ANALYZE:-${BUILD_DIR}/tools/mv3c_analyze/mv3c_analyze}"
if [[ ! -x "${ANALYZER}" ]]; then
  if [[ "${MV3C_LINT_STRICT:-0}" != "0" ]]; then
    echo "lint: mv3c_analyze not built (${ANALYZER}) and" \
         "MV3C_LINT_STRICT is set." >&2
    exit 2
  fi
  echo "lint: mv3c_analyze not built (${ANALYZER}); skipping AST lint" \
       "(set MV3C_LINT_STRICT=1 to make this an error)."
  exit 0
fi

CACHE_DIR="${MV3C_LINT_CACHE:-${BUILD_DIR}/mv3c_analyze_cache}"
echo "lint: running ${ANALYZER} (cache: ${CACHE_DIR})"
"${ANALYZER}" -p "${BUILD_DIR}" --root "$(pwd)" --cache-dir "${CACHE_DIR}"
rc=$?
if [[ ${rc} -eq 0 ]]; then
  echo "lint: ok   mv3c_analyze (all rules clean)"
fi
exit "${rc}"
