#!/usr/bin/env bash
# Diffs two BENCH_*.json snapshots (bench/bench_json.h format) and flags
# regressions, so perf PRs carry evidence instead of anecdotes.
#
# Usage:
#   scripts/bench_compare.sh BASELINE.json CURRENT.json [THRESHOLD_PCT]
#
#   THRESHOLD_PCT  regression threshold in percent (default 5): any metric
#                  that drops by more than this vs the baseline is flagged
#                  and the script exits non-zero.
#
# Every metric in these files is higher-is-better by convention (Mpps,
# speedup ratios), so one comparison rule covers everything.
#
# Generating snapshots:
#   build/bench/bench_micro_update --benchmark_filter='^$'   # update table only
#   build/bench/bench_fig14_cpu                              # slower, full roster
#   build/bench/bench_fig15a_ovs   # BENCH_fig15a_scaling.json: the scale-out
#                                  # curve, per shard count the rate with
#                                  # the sketch (mpps), forwarding only
#                                  # (forwarding_mpps) and per-core
#                                  # efficiency; CI asserts only t8's
#                                  # per_core_efficiency >= 0.7 and never
#                                  # runs this script on it
# Each writes its BENCH_*.json into the working directory (override the path
# via COCO_BENCH_JSON). Typical flow:
#   git stash && build-and-run -> cp BENCH_micro_update.json /tmp/base.json
#   git stash pop && build-and-run
#   scripts/bench_compare.sh /tmp/base.json BENCH_micro_update.json
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,29p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

BASELINE="$1"
CURRENT="$2"
THRESHOLD="${3:-5}"

for f in "$BASELINE" "$CURRENT"; do
  if [[ ! -r "$f" ]]; then
    echo "error: cannot read $f" >&2
    exit 1
  fi
done

python3 - "$BASELINE" "$CURRENT" "$THRESHOLD" <<'EOF'
import json
import sys

base_path, cur_path, threshold_pct = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror}", file=sys.stderr)
        sys.exit(1)
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON in {path}: {e}", file=sys.stderr)
        sys.exit(1)
    if not isinstance(data, dict):
        print(f"error: {path} is not a bench snapshot (top-level JSON "
              f"object expected)", file=sys.stderr)
        sys.exit(1)
    metrics = data.get("metrics", {})
    if not isinstance(metrics, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in metrics.values()):
        print(f"error: {path} has a malformed 'metrics' table (expected an "
              f"object of numeric values)", file=sys.stderr)
        sys.exit(1)
    return data.get("bench", "?"), metrics

base_name, base = load(base_path)
cur_name, cur = load(cur_path)
if base_name != cur_name:
    print(f"warning: comparing different benches ({base_name} vs {cur_name})")

shared = sorted(set(base) & set(cur))
if not shared:
    print("error: no shared metrics between the two files", file=sys.stderr)
    sys.exit(1)

width = max(len(n) for n in shared)
print(f"{'metric':<{width}} {'baseline':>12} {'current':>12} {'delta':>8}")
regressions = []
for name in shared:
    b, c = base[name], cur[name]
    delta = (c / b - 1.0) if b else 0.0
    flag = ""
    if delta * 100 < -threshold_pct:
        flag = "  <-- REGRESSION"
        regressions.append((name, delta))
    print(f"{name:<{width}} {b:>12.3f} {c:>12.3f} {delta:>+7.1%}{flag}")

only_base = sorted(set(base) - set(cur))
only_cur = sorted(set(cur) - set(base))
for name in only_base:
    print(f"{name:<{width}} {base[name]:>12.3f} {'(gone)':>12}")
for name in only_cur:
    print(f"{name:<{width}} {'(new)':>12} {cur[name]:>12.3f}")

if regressions:
    print(f"\n{len(regressions)} metric(s) regressed by more than "
          f"{threshold_pct:g}% vs {base_path}")
    sys.exit(1)
print(f"\nno regressions beyond {threshold_pct:g}% "
      f"({len(shared)} metrics compared)")
EOF
