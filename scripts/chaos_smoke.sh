#!/usr/bin/env bash
# Chaos smoke: drives a campaign and a serve session under a hostile
# (seeded, deterministic) fault plan and asserts the robustness layer
# holds the line —
#
#   1. a campaign run with transient sink faults (interrupted appends,
#      full-disk flushes, busy syncs), one injected worker panic, and one
#      scribbled checkpoint line converges — after the weather clears —
#      to EXACTLY the verdict set of a fault-free run (straddle-tolerant:
#      only Solved<->Overrun flips on identical units are forgiven);
#   2. the scribbled checkpoint line lands in the quarantine ledger
#      (`quarantine.jsonl`) instead of corrupting the record set;
#   3. a poisoned heavy job under `mgrts serve` (a solve that panics on
#      every attempt past the retry budget) settles its ticket as
#      `failed` — the client poll terminates, the worker survives, and
#      healthy traffic afterwards is unaffected;
#   4. every serve ticket resolves to done|failed, and SIGTERM shutdown
#      leaves ZERO lease files in either store (panics release leases
#      immediately, they do not strand them until TTL).
#
# Runs locally (`scripts/chaos_smoke.sh`) and as the CI chaos-smoke job.
#
# Usage: scripts/chaos_smoke.sh [WORK_DIR]   (default target/chaos-smoke)
#
# Environment:
#   MGRTS_BIN         mgrts binary (default ./target/release/mgrts)
#   MGRTS_SERVE_ADDR  listen address (default 127.0.0.1:7178)
set -euo pipefail

bin="${MGRTS_BIN:-./target/release/mgrts}"
root="${1:-target/chaos-smoke}"
addr="${MGRTS_SERVE_ADDR:-127.0.0.1:7178}"
ref="$root/store-ref"
chaos="$root/store-chaos"
serve_store="$root/store-serve"

rm -rf "$root"
mkdir -p "$root"

# Small multi-shard campaign: 4 cells x 4 instances over 2-unit shards =
# 8 shard commits, enough surface for the plan below to hit every sink
# site and still finish inside the smoke budget.
cat > "$root/chaos.toml" <<'EOF'
[campaign]
name = "chaos-smoke"
seed = 2009
time_limit_ms = 2000
instances_per_cell = 4
shard_size = 2

[grid]
n = [4, 5]
m = [2]
t_max = [5]
solvers = ["csp2-dc", "sat"]
EOF

# --- 1: fault-free reference run ----------------------------------------
"$bin" bench campaign run --manifest "$root/chaos.toml" \
  --out "$ref" --threads 2 --quiet
echo "chaos_smoke: reference campaign complete"

# --- 2: the same campaign under fire ------------------------------------
# Seeded plan: one-shot transient errors on append/flush/sync (absorbed
# by the commit retry + segment fail-over machinery), one worker panic
# mid-campaign (retried by the panic supervisor), and one scribbled
# checkpoint line (quarantined on the next load, shard re-run).
plan='seed=42;sink.append:interrupted:n2;sink.flush:full:n1;sink.sync:busy:n3;sink.checkpoint:corrupt:n3;engine.solve:panic:n5'
if MGRTS_FAULT_PLAN="$plan" "$bin" bench campaign run \
    --manifest "$root/chaos.toml" --out "$chaos" --threads 2 --quiet \
    > "$root/chaos-run.log" 2>&1; then
  echo "chaos_smoke: chaos campaign completed under fire"
else
  echo "chaos_smoke: chaos campaign gave up under fire (store must heal by resume)"
fi

# Heal with the plan cleared: the corrupt checkpoint line is quarantined,
# its shard re-run, everything else already committed stays committed.
"$bin" bench campaign resume --out "$chaos" --threads 2 --quiet
echo "chaos_smoke: chaos store healed by resume"

# --- 3: verdict-set equality (straddle-tolerant) ------------------------
# `compact` snapshots the canonical export (time- and winner-normalised,
# deduped, deterministic order) to canonical.jsonl in each store.
"$bin" bench campaign compact --out "$ref"
"$bin" bench campaign compact --out "$chaos"
python3 - "$ref/canonical.jsonl" "$chaos/canonical.jsonl" <<'EOF'
import json, sys

def load(path):
    out = {}
    for line in open(path):
        if not line.strip():
            continue
        r = json.loads(line)
        key = (r["cell"], r["global_instance"], str(r["solver"]))
        assert key not in out, f"duplicate unit {key} in {path}"
        out[key] = r
    return out

a, b = load(sys.argv[1]), load(sys.argv[2])
assert a, "reference export is empty"
missing = sorted(set(a) - set(b))
extra = sorted(set(b) - set(a))
assert not missing, f"chaos run LOST units: {missing[:5]}"
assert not extra, f"chaos run INVENTED units: {extra[:5]}"
straddles = 0
for key, ra in a.items():
    rb = b[key]
    if ra == rb:
        continue
    # The only tolerated divergence: a wall-clock straddle flipping
    # Solved <-> Overrun on an otherwise identical record.
    oa, ob = ra.pop("outcome"), rb.pop("outcome")
    assert ra == rb, f"unit {key} diverged beyond outcome: {ra} vs {rb}"
    assert {oa, ob} <= {"Solved", "Overrun"}, \
        f"unit {key}: {oa} vs {ob} is not a time straddle"
    straddles += 1
print(f"chaos_smoke: verdict sets equal over {len(a)} units "
      f"({straddles} tolerated straddle(s))")
EOF

# --- 4: the scribbled checkpoint line was quarantined, not believed -----
quarantined=$(wc -l < "$chaos/quarantine.jsonl" 2>/dev/null || echo 0)
if [ "$quarantined" -lt 1 ]; then
  echo "chaos_smoke: FAIL — expected >=1 quarantined line, got $quarantined"
  exit 1
fi
echo "chaos_smoke: quarantine ledger holds $quarantined line(s)"

# Neither store may hold lease files once all processes have exited:
# `run` and `resume` drain through leases too, release each one after its
# commit, and a committed shard forgets its panic strikes.
for store in "$ref" "$chaos"; do
  leases=0
  if [ -d "$store/leases" ]; then
    leases=$(find "$store/leases" -type f | wc -l)
  fi
  if [ "$leases" -ne 0 ]; then
    echo "chaos_smoke: FAIL — $leases leaked lease file(s) in $store/leases"
    exit 1
  fi
done

# --- 5: poisoned heavy job under `mgrts serve` --------------------------
# The first solve the server attempts panics twice (one-shot n1 + n2
# triggers); with --job-retries 1 that exhausts the budget, so the FIRST
# job submitted must settle `failed` while later traffic is clean.
"$bin" generate --n 6 --tmax 5 --m 2 --seed 7 > "$root/small.json"
"$bin" generate --n 24 --tmax 6 --m 4 --seed 9 > "$root/big.json"

MGRTS_FAULT_PLAN='seed=5;engine.solve:panic:n1;engine.solve:panic:n2' \
  "$bin" serve --addr "$addr" --data-dir "$serve_store" \
  --workers 2 --queue-cap 32 --budget-ms 5000 \
  --spill-tasks 16 --spill-budget-ms 600000 --job-retries 1 &
pid=$!
trap 'kill -9 "$pid" 2>/dev/null || true' EXIT

"$bin" client stats --addr "$addr" --connect-ms 30000 >/dev/null
echo "chaos_smoke: server answering on $addr"

# Poison job first: oversized -> heavy queue -> panics past the retry
# budget -> ticket settles `failed` (and the poll TERMINATES on it).
# Pinned to a single solver so each attempt is exactly ONE engine.solve
# occurrence: attempt 1 eats the n1 trigger, the retry eats n2, and the
# retry budget (--job-retries 1) is exhausted deterministically.
"$bin" client solve "$root/big.json" --addr "$addr" \
  --solver csp2-dc > "$root/ticket.json"
ticket=$(python3 - "$root/ticket.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["type"] == "ticket", r
print(r["ticket"])
EOF
)
"$bin" client poll --addr "$addr" --ticket "$ticket" --wait-ms 120000 \
  > "$root/poll.json"
cat "$root/poll.json"
python3 - "$root/poll.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["type"] == "poll" and r["status"] == "failed", r
assert r["outcome"] == "Failed", r
print("chaos_smoke: poisoned ticket settled `failed`")
EOF

# Healthy traffic after the poison job: the worker survived its panics.
"$bin" client solve "$root/small.json" --addr "$addr" > "$root/solve.json"
python3 - "$root/solve.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r.get("cache") in ("miss", "hit", "inflight"), r
assert r.get("outcome") not in (None, "Failed"), r
print(f"chaos_smoke: post-poison solve OK ({r['outcome']})")
EOF

"$bin" client stats --json --addr "$addr" > "$root/stats.json"
python3 - "$root/stats.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["failed"] == 1, s
assert s["rejected"] == 0, s
print("chaos_smoke: stats OK", {k: s[k] for k in
      ("requests", "solves", "spilled", "failed")})
EOF

# The exposition must reflect the chaos: injected faults, worker panics,
# and the failed settlement are all first-class series.
"$bin" client metrics --addr "$addr" > "$root/metrics.txt"
python3 - "$root/metrics.txt" <<'EOF'
import sys
samples = {}
for raw in open(sys.argv[1]):
    line = raw.rstrip("\n")
    if not line or line.startswith("#"):
        continue
    body, _, value = line.rpartition(" ")
    samples[body.split("{", 1)[0]] = samples.get(body.split("{", 1)[0], 0.0) + float(value)
assert samples.get("mgrts_worker_panics_total", 0) >= 2, samples
assert samples.get("mgrts_serve_failed_total", 0) >= 1, samples
assert samples.get("mgrts_fault_injections_total", 0) >= 2, samples
print("chaos_smoke: metrics reflect "
      f"{int(samples['mgrts_fault_injections_total'])} injected fault(s), "
      f"{int(samples['mgrts_worker_panics_total'])} panic(s), "
      f"{int(samples['mgrts_serve_failed_total'])} failed settlement(s)")
EOF

# --- 6: SIGTERM -> clean shutdown, zero leases anywhere ------------------
kill -TERM "$pid"
wait "$pid"
trap - EXIT
leases=0
if [ -d "$serve_store/leases" ]; then
  leases=$(find "$serve_store/leases" -type f | wc -l)
fi
if [ "$leases" -ne 0 ]; then
  echo "chaos_smoke: FAIL — $leases leaked lease file(s) in $serve_store/leases"
  exit 1
fi
echo "chaos_smoke: PASS — verdicts equal, corruption quarantined, poison failed cleanly, zero leases"
