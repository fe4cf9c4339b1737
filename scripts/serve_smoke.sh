#!/usr/bin/env bash
# End-to-end smoke of `mgrts serve`: boots the resident service, then
# asserts the four behaviours the server exists for —
#
#   1. concurrent identical requests coalesce onto ONE solve (the joiners
#      answer `cache: inflight`, exactly one `cache: miss`);
#   2. a repeat request is answered from the record store (`cache: hit`);
#   3. an oversized request spills to the heavy queue, returns a ticket,
#      and `client poll` resolves it to a settled outcome;
#   4. a `metrics` request answers with well-formed Prometheus text
#      exposition reflecting the traffic above;
#   5. a task set every engine refuses (D > T) gets an `error` response
#      at parse time: no failed job, no store record;
#   6. SIGTERM shuts the server down cleanly: exit code 0 and no orphaned
#      lease files in the store.
#
# Runs locally (`scripts/serve_smoke.sh`) and as the CI serve-smoke job.
#
# Usage: scripts/serve_smoke.sh [WORK_DIR]   (default target/serve-smoke)
#
# Environment:
#   MGRTS_BIN         mgrts binary (default ./target/release/mgrts)
#   MGRTS_SERVE_ADDR  listen address (default 127.0.0.1:7177)
set -euo pipefail

bin="${MGRTS_BIN:-./target/release/mgrts}"
root="${1:-target/serve-smoke}"
addr="${MGRTS_SERVE_ADDR:-127.0.0.1:7177}"
store="$root/store"

rm -rf "$root"
mkdir -p "$root"

# One small instance (dedupe/cache path) and one oversized instance
# (24 tasks > the 16-task spill threshold below).
"$bin" generate --n 6 --tmax 5 --m 2 --seed 7 > "$root/small.json"
"$bin" generate --n 24 --tmax 6 --m 4 --seed 9 > "$root/big.json"

# Slow solves (500 ms artificial delay) hold the in-flight window open so
# the concurrent identical requests deterministically coalesce.
"$bin" serve --addr "$addr" --data-dir "$store" \
  --workers 2 --queue-cap 32 --budget-ms 5000 \
  --spill-tasks 16 --spill-budget-ms 600000 --solve-delay-ms 500 &
pid=$!
trap 'kill -9 "$pid" 2>/dev/null || true' EXIT

# The client retries connecting until the server is up.
"$bin" client stats --addr "$addr" --connect-ms 30000 >/dev/null
echo "serve_smoke: server answering on $addr"

# --- 1 + 2: concurrent dedupe, then a record-store hit ------------------
"$bin" client solve "$root/small.json" --addr "$addr" \
  --solver csp2-dc --count 4 --parallel > "$root/solves.jsonl"
"$bin" client solve "$root/small.json" --addr "$addr" \
  --solver csp2-dc >> "$root/solves.jsonl"
cat "$root/solves.jsonl"
python3 - "$root/solves.jsonl" <<'EOF'
import json, sys
tags = [json.loads(l)["cache"] for l in open(sys.argv[1]) if l.strip()]
assert len(tags) == 5, tags
assert tags.count("miss") == 1, tags
assert tags.count("inflight") >= 1, tags
assert tags[-1] == "hit", tags
print(f"serve_smoke: dedupe OK ({tags})")
EOF

# --- 3: oversized request -> spill ticket -> poll to completion ---------
"$bin" client solve "$root/big.json" --addr "$addr" > "$root/ticket.json"
cat "$root/ticket.json"
ticket=$(python3 - "$root/ticket.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["type"] == "ticket", r
assert r["status"] in ("queued", "pending"), r
print(r["ticket"])
EOF
)
"$bin" client poll --addr "$addr" --ticket "$ticket" --wait-ms 120000 \
  > "$root/poll.json"
cat "$root/poll.json"
python3 - "$root/poll.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["type"] == "poll" and r["status"] == "done", r
print(f"serve_smoke: spill settled as {r['outcome']}")
EOF

# The settled spill is now an ordinary cache hit.
"$bin" client solve "$root/big.json" --addr "$addr" | grep -q '"hit"'

# --- 5: a D > T task set is a protocol error, not a failed job ----------
python3 - "$addr" "$store" <<'EOF'
import glob, json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
def records():
    return sum(1 for f in glob.glob(sys.argv[2] + "/records*.jsonl") for _ in open(f))
before = records()
line = ('{"type":"solve","m":1,"solver":"csp2-dc","taskset":{"tasks":'
        '[{"offset":0,"wcet":1,"deadline":5,"period":4}]}}\n')
with socket.create_connection((host, int(port)), timeout=30) as s:
    s.sendall(line.encode())
    r = json.loads(s.makefile().readline())
assert r["type"] == "error" and "bad `taskset`" in r["error"], r
assert records() == before, (before, records())
print(f"serve_smoke: D > T rejected ({r['error']})")
EOF

# --- stats: the counters reflect everything above -----------------------
"$bin" client stats --json --addr "$addr" > "$root/stats.json"
cat "$root/stats.json"
python3 - "$root/stats.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["cache_misses"] >= 1, s
assert s["inflight_hits"] >= 1, s
assert s["cache_hits"] >= 2, s
assert s["spilled"] == 1, s
assert s["rejected"] == 0, s
assert s["failed"] == 0, s
print("serve_smoke: stats OK", {k: s[k] for k in
      ("requests", "solves", "cache_hits", "inflight_hits", "spilled")})
EOF

# --- metrics: the exposition parses and reflects the same traffic -------
"$bin" client metrics --addr "$addr" > "$root/metrics.txt"
python3 - "$root/metrics.txt" <<'EOF'
import sys
samples = {}
types = {}
for raw in open(sys.argv[1]):
    line = raw.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ", 3)
        assert kind in ("counter", "gauge", "histogram"), line
        types[name] = kind
        continue
    if line.startswith("#"):
        continue
    body, _, value = line.rpartition(" ")
    float(value)  # every sample value must parse
    name = body.split("{", 1)[0]
    samples[name] = float(value)
assert samples["mgrts_serve_requests_total"] > 0, samples
assert types.get("mgrts_serve_requests_total") == "counter", types
assert types.get("mgrts_serve_queue_depth") == "gauge", types
assert types.get("mgrts_serve_request_duration_us") == "histogram", types
assert "mgrts_serve_request_duration_us_bucket" in samples, sorted(samples)
assert samples["mgrts_serve_request_duration_us_count"] > 0, samples
assert types.get("mgrts_serve_hit_duration_us") == "histogram", types
assert "mgrts_serve_hit_duration_us_bucket" in samples, sorted(samples)
assert samples["mgrts_serve_hit_duration_us_count"] > 0, samples
assert (samples["mgrts_serve_hit_duration_us_count"]
        == samples["mgrts_serve_cache_hits_total"]), samples
print("serve_smoke: metrics OK "
      f"({int(samples['mgrts_serve_requests_total'])} requests scraped, "
      f"{len(types)} series)")
EOF

# --- 6: SIGTERM -> clean shutdown, no orphaned leases -------------------
kill -TERM "$pid"
wait "$pid"
trap - EXIT
leases=$(find "$store/leases" -type f 2>/dev/null | wc -l)
if [ "$leases" -ne 0 ]; then
  echo "serve_smoke: FAIL — $leases orphaned lease file(s) in $store/leases"
  exit 1
fi
echo "serve_smoke: clean SIGTERM shutdown, no orphaned leases"
