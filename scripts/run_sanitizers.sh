#!/usr/bin/env bash
# Sanitizer sweep for the concurrent datapath and the hostile-input parsers.
#
# Builds the COCO_SANITIZE CMake presets and runs the tests that exercise the
# code the sanitizers are aimed at:
#   thread  — TSan over the lock-free SPSC rings, the one datapath's
#             worker loop and the control loop on its calling thread
#             (ovs::RunScaleout: the shard-id chunks each producer fills
#             and the padded chunk counts the other producers wait on
#             before they walk a chunk, the epoch marks each producer
#             publishes beside its ring and its worker reads after the
#             ring's head, a worker waiting at a mark until the collector
#             recycles its previous epoch, the consumer handoff from a
#             killed worker to its respawned replacement, stall detection,
#             kill/respawn with per-shard checkpoint restore, attack
#             detection and seed rotation), the batched merge, the
#             relaxed-atomic metrics registry, and the network-wide
#             agent/collector transports —
#             ovs_test, batch_test, obs_test, netwide_test,
#             adversarial_test, scaleout_test. The interleavings (a respawn
#             while the other shards wait at a mark, say) depend on the
#             shard count, so scaleout_test runs again at
#             COCO_TEST_THREADS=2 and =8.
#   address — ASan+UBSan over the deserializers, fuzz loops, the
#             frame/delta decoders (the delta build's walk over the set
#             bits of the dirty bitmap, whose last word is partial, and the
#             collector's in-place delta apply, which reads each entry's
#             old bucket value before it writes), the key probes' word
#             loads against the padded SoA key plane, Hash64's overlapping
#             tail loads against exact-size inputs of every length 0..40,
#             the flat flow table (query::FlowTable: index growth, and rows
#             hashed with the keyed two-word fold, compared and copied from
#             padded bucket words) and the SQL GROUP BY built on it, the
#             partial-key packer (keys::TupleKeySpec::Pack: UBSan checks
#             every 128-bit shift count of its runs), and the hostile trace
#             generators (fuzz_test, hash_test, keys_test, query_test,
#             sql_test, plus the same six, for free)
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
    thread)
      run_preset thread ovs_test batch_test obs_test netwide_test adversarial_test scaleout_test
      for n in 2 8; do
        echo "--- thread: scaleout_test, COCO_TEST_THREADS=${n}"
        COCO_TEST_THREADS="${n}" build-threadsan/tests/scaleout_test
      done
      ;;
    address) run_preset address fuzz_test hash_test keys_test query_test sql_test ovs_test batch_test obs_test netwide_test adversarial_test scaleout_test ;;
    *)
      echo "unknown preset '$p' (expected: thread | address)" >&2
      exit 2
      ;;
  esac
done

echo "All sanitizer runs passed."
