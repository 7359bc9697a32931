#!/usr/bin/env bash
# Sanitizer sweep for the concurrent datapath and the hostile-input parsers.
#
# Builds the COCO_SANITIZE CMake presets and runs the tests that exercise the
# code the sanitizers are aimed at:
#   thread  — TSan over the lock-free SPSC rings, the one datapath's
#             worker loop (ovs::RunScaleout: epoch rotation under load, the
#             consumer handoff from a killed worker to its respawned
#             replacement, the watchdog's stall-detect/kill/respawn paths
#             with per-shard checkpoint restore, attack detection and seed
#             rotation), the batched merge, the relaxed-atomic metrics
#             registry, and the network-wide agent/collector transports —
#             ovs_test, batch_test, obs_test, netwide_test,
#             adversarial_test, scaleout_test
#   address — ASan+UBSan over the deserializers, fuzz loops, the
#             frame/delta decoders, the key probes' word
#             loads against the padded SoA key plane, and the hostile trace
#             generators (fuzz_test plus the same six, for free)
#
# Usage:
#   scripts/run_sanitizers.sh            # both presets
#   scripts/run_sanitizers.sh thread     # just TSan
#   scripts/run_sanitizers.sh address    # just ASan+UBSan
set -euo pipefail
cd "$(dirname "$0")/.."

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

run_preset() {
  local preset="$1"
  shift
  local dir="build-${preset}san"
  echo "===== COCO_SANITIZE=${preset} ====="
  cmake -B "${dir}" -S . -DCOCO_SANITIZE="${preset}" >/dev/null
  cmake --build "${dir}" -j --target "$@" >/dev/null
  for t in "$@"; do
    echo "--- ${preset}: ${t}"
    "${dir}/tests/${t}"
  done
}

presets=("${1:-}")
if [[ -z "${presets[0]}" ]]; then
  presets=(thread address)
fi

for p in "${presets[@]}"; do
  case "$p" in
    thread) run_preset thread ovs_test batch_test obs_test netwide_test adversarial_test scaleout_test ;;
    address) run_preset address fuzz_test ovs_test batch_test obs_test netwide_test adversarial_test scaleout_test ;;
    *)
      echo "unknown preset '$p' (expected: thread | address)" >&2
      exit 2
      ;;
  esac
done

echo "All sanitizer runs passed."
