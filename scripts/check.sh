#!/usr/bin/env bash
# Full local gate: warnings-as-errors build + tests, secret-hygiene lint,
# the concurrency suite under TSan, then the same suite under ASan(+LSan)
# and UBSan.
#
#   scripts/check.sh            # everything (tier-1, lint, tsan, asan, ubsan)
#   scripts/check.sh --fast     # tier-1 build + tests + lint + tsan only
#
# Run from anywhere; paths resolve relative to the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 2)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: configure + build (-Werror)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"

step "tier-1: ctest"
ctest --preset default -j "$jobs"

step "mbtls-lint: src/ tests/ tools/ bench/ (dataflow + baseline)"
# Machine-readable findings; the per-rule counts land on stderr. A finding
# is fatal unless it is in the reviewed baseline (tools/lint/lint_baseline.txt).
lint_json=/tmp/mbtls-lint-findings.json
if ./build/tools/lint/mbtls-lint --json --baseline tools/lint/lint_baseline.txt \
    src tests tools bench > "$lint_json"; then
  echo "lint clean (findings: $lint_json)"
else
  echo "lint FAILED — non-baselined findings:" >&2
  cat "$lint_json" >&2
  exit 1
fi

step "transport: posix backend + cross-backend conformance + loopback"
# TimerWheel/EpollLoop units (including cross-thread post/wakeup), the
# multi-loop SO_REUSEPORT LoopGroup suite, the sim-vs-epoll conformance
# matrix (including the transport-glue bugfix regressions), the timer-driven
# ticket rotator, and the loopback integration passes (three-thread and
# 4-loop-per-tier) — all over real 127.0.0.1 sockets.
ctest --preset default \
  -R 'TimerWheel\.|EpollLoop\.|LoopGroup\.|TransportConformance/|PosixLoopback\.|TransportGlue\.|TicketRotator\.' \
  --output-on-failure

step "chaos: fault-injection pass (ctest -R Chaos)"
ctest --preset default -R 'Chaos\.' --output-on-failure

step "trace: protocol-invariant pass (ctest -R TraceInvariants)"
ctest --preset default -R 'TraceInvariants\.' --output-on-failure

step "bench: quick run + JSON emission (scripts/bench.sh --quick --churn)"
# --churn smokes the control-plane harness too: sharded cache + ticket
# rotation + cert pool, with the resumed>=5x and cert-hit>=90% floors on.
scripts/bench.sh --quick --churn --out /tmp/mbtls-bench-check

# The concurrent subsystems run under TSan even in --fast mode — a data race
# there corrupts sessions silently, which nothing else in the gate would
# catch.
step "tsan: build concurrency tests"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs" --target test_chacha_drbg test_posix_loopback \
  test_posix_net test_transport_conformance test_control_plane

step "tsan: DrbgThreading"
ctest --preset tsan -R 'DrbgThreading\.' --output-on-failure

# The control-plane caches (sharded session cache, cert pool, quote cache,
# ticket key rotation) are hit from several threads while the main thread
# rotates keys — the mutex-striping and atomic counters must hold up. The
# cert pool's signature memo is hammered on one chain by every worker.
step "tsan: control-plane shard hammer + cert pool signature memo"
ctest --preset tsan -R 'ControlPlaneConcurrency\.|CertPoolMemoConcurrency\.' --output-on-failure

# The loopback integration tests drive epoll loops on real threads — three
# single loops in the flagship pass, 4-loop SO_REUSEPORT groups per tier in
# the multi-loop pass — plus the cross-thread post/eventfd-wakeup units and
# the conformance matrix, all under the same instrumentation. Transport is
# the subsystem where a missed happens-before corrupts sessions silently.
step "tsan: posix loopback + loop groups + transport conformance"
ctest --preset tsan \
  -R 'PosixLoopback\.|LoopGroup\.|EpollLoop\.(Posted|Pending|CrossThread)|TransportConformance/' \
  --output-on-failure

if [[ "$fast" == 1 ]]; then
  step "fast mode: skipping sanitizer builds"
  exit 0
fi

step "asan: configure + build"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$jobs"

step "asan: ctest (leaks + stack-use-after-return on)"
ctest --preset asan -j "$jobs"

step "ubsan: configure + build"
cmake --preset ubsan >/dev/null
cmake --build --preset ubsan -j "$jobs"

step "ubsan: ctest (halt on first report)"
ctest --preset ubsan -j "$jobs"

step "all checks passed"
