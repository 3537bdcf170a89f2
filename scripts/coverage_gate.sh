#!/usr/bin/env bash
# Coverage gate for the crypto/verification core and the serving tier.
# Fails if `go test -cover` for any gated package drops below the floor
# recorded when its gate was introduced (measured values at the time:
# secure 87.8%, mac 68.7%, vngen 97.5%, serve 86.8%, workload 94.5% —
# floors sit a hair below to absorb formatting-level drift, not real
# coverage loss). PR 18 rewrote the inner kernels of mac, crypto and nn
# and pinned their definitions: mac's floor rose with its new tests
# (71.2% -> 76.6%), and crypto (84.8% -> 95.5%) and nn (86.2% -> 89.3%)
# joined the gate. PR 19: secure's floor follows what it has read since
# PR 13 (92.9% -> 94.1% with the loader and repeat-read tests; the floor
# had stayed at 87.0), and protect (79.8% -> 83.3%) and mem (95.9%) join.
# PR 22: protect's floor follows ReadInputRun's differential test (83.8%).
# The MAC helper (protect/helper.go) replaced sharded tile crypto: secure
# reads 94.2% and protect 84.7 - 85.5% (which helper branches run depends on
# scheduling), so the floors rise to 93.5 and 84.0.
# The serial SeculatorMemory API became a delegate to a shard (one block
# path): protect reads 89.2 - 90.0% (the deleted serial bodies were fully
# covered; which helper branches run still depends on scheduling), so its
# floor rises to 89.0, and attack (84.5%), whose scenarios now run the
# executor's shard code, joins at 84.0.
# The serving-workload mix registry left internal/workload with the W1-W6
# scenario suite; the package reads 93.8% (from 94.5%), its floor stays 93.0.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A floor=(
  [seculator/internal/secure]=93.5
  [seculator/internal/protect]=89.0
  [seculator/internal/attack]=84.0
  [seculator/internal/mem]=95.5
  [seculator/internal/mac]=76.0
  [seculator/internal/crypto]=95.0
  [seculator/internal/nn]=89.0
  [seculator/internal/vngen]=97.0
  [seculator/internal/serve]=85.0
  [seculator/internal/workload]=93.0
)

fail=0
for pkg in "${!floor[@]}"; do
  out=$(go test -cover "$pkg")
  echo "$out"
  pct=$(echo "$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')
  if [ -z "$pct" ]; then
    echo "coverage_gate: no coverage figure for $pkg" >&2
    fail=1
    continue
  fi
  if awk -v p="$pct" -v f="${floor[$pkg]}" 'BEGIN { exit !(p < f) }'; then
    echo "coverage_gate: $pkg at ${pct}% is below the ${floor[$pkg]}% floor" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "coverage_gate: FAILED — raise the tests, not the floor" >&2
  exit 1
fi
echo "coverage_gate: all floors held"
