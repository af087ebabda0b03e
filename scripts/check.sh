#!/bin/sh
# Full repository check: build, tests, and a short multicore-scaling smoke.
# This is exactly what CI runs; run it locally before pushing.
set -eu
cd "$(dirname "$0")/.."

# Every index file `eppi construct -o` writes starts with the 8-byte magic
# \x89EPPIDX\n (docs/SERVE.md, "Index files").
assert_index_file() {
  magic=$(head -c 8 "$1" | od -An -tx1 | tr -d ' \n')
  if [ "$magic" != "894550504944580a" ]; then
    echo "check: $1 does not start with the index-file magic (got $magic)" >&2
    exit 1
  fi
}

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

# A ~5 s smoke of the scaling bench: small n, 1 and 2 domains. Exercises the
# domain pool, the sharded CountBelow path, the circuit cache, and the
# bench's own cross-strategy output-equality check (it exits non-zero if the
# sharded construction ever diverges from the monolithic reference).
echo "== scaling smoke =="
SCALING_N=200 SCALING_M=6 SCALING_DOMAINS=1,2 dune exec bench/main.exe -- scaling
rm -f BENCH_construct.json

# A ~5 s smoke of the serving bench: tiny index, short replay, 1 and 2
# domains. Exercises the postings compiler, caches, admission control and
# the bench's reply-equality + shed-conservation assertions, then checks
# the emitted JSON is well-formed and carries the headline fields.
echo "== serve smoke =="
SERVE_N=120 SERVE_M=64 SERVE_QUERIES=4000 SERVE_DOMAINS=1,2 \
  SERVE_TELEMETRY_QUERIES=2000 SERVE_TELEMETRY_DOMAINS=2 \
  dune exec bench/main.exe -- serve
test -s BENCH_serve.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("BENCH_serve.json") as f:
    data = json.load(f)
for key in ("speedup_postings_vs_naive", "cache_hit_rate", "latency_s",
            "domain_runs", "admission", "telemetry", "metrics"):
    if key not in data:
        raise SystemExit(f"BENCH_serve.json missing {key!r}")
if not data["telemetry"]["overhead_ok"]:
    raise SystemExit(f"BENCH_serve.json: telemetry overhead gate failed: {data['telemetry']}")
print("BENCH_serve.json well-formed")
EOF
fi
rm -f BENCH_serve.json

# A ~5 s smoke of the tracing layer (docs/OBSERVABILITY.md): trace a small
# secure 2-domain construction end to end, then check the emitted Chrome
# trace-event JSON parses and actually contains what the instrumentation
# promises — complete spans for all three construction phases, GMW spans
# with byte accounting, one counter track per pool worker, and the
# artifact.write span with the index file's size.
echo "== trace smoke =="
dune exec bin/eppi_cli.exe -- generate --owners 60 --providers 12 --seed 3 \
  -o /tmp/eppi_trace_dataset.csv >/dev/null
dune exec bin/eppi_cli.exe -- construct -d /tmp/eppi_trace_dataset.csv \
  --secure --domains 2 --trace /tmp/eppi_trace.json -o /tmp/eppi_trace_index.eppi
assert_index_file /tmp/eppi_trace_index.eppi
EPPI_TRACE_INDEX_BYTES=$(wc -c < /tmp/eppi_trace_index.eppi)
export EPPI_TRACE_INDEX_BYTES
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json, os
with open("/tmp/eppi_trace.json") as f:
    events = json.load(f)["traceEvents"]
def spans(name):
    b = sum(1 for e in events if e["name"] == name and e["ph"] == "B")
    e = sum(1 for e in events if e["name"] == name and e["ph"] == "E")
    return b, e
for phase in ("phase.beta", "phase.mixing", "phase.publish"):
    b, e = spans(phase)
    if b < 1 or b != e:
        raise SystemExit(f"trace: {phase} has {b} begins / {e} ends")
gb, ge = spans("gmw.execute")
if gb < 1 or gb != ge:
    raise SystemExit(f"trace: gmw.execute has {gb} begins / {ge} ends")
if not any(e["name"] == "gmw.execute" and e["ph"] == "E" and "bytes" in e.get("args", {})
           for e in events):
    raise SystemExit("trace: gmw.execute spans carry no bytes accounting")
workers = {e["name"] for e in events if e["ph"] == "C" and e["name"].startswith("pool/worker-")}
if len(workers) < 2:
    raise SystemExit(f"trace: expected counter tracks for 2 pool workers, got {sorted(workers)}")
ab, ae = spans("artifact.write")
if ab != 1 or ae != 1:
    raise SystemExit(f"trace: artifact.write has {ab} begins / {ae} ends, expected one span")
size = int(os.environ["EPPI_TRACE_INDEX_BYTES"])
written = [e["args"].get("bytes") for e in events
           if e["name"] == "artifact.write" and e["ph"] == "E"]
if written != [size]:
    raise SystemExit(f"trace: artifact.write bytes {written}, index file has {size}")
print(f"trace ok: {len(events)} events, pool counters {sorted(workers)}, "
      f"artifact.write {size} bytes")
EOF
fi
rm -f /tmp/eppi_trace_dataset.csv /tmp/eppi_trace_index.eppi

# A ~5 s smoke of the network front-end (docs/SERVE.md): check that the
# daemon refuses a CSV index file with a clean non-zero exit, then start it
# on a Unix socket with 4 worker domains, drive 100 pipelined queries, a
# binary hot-swap republish and a CSV compat republish through
# `eppi query`/`eppi republish`, assert the metrics conserve every request
# and record the swaps, then shut down gracefully and check that the
# daemon exits 0 and leaves no socket file behind.
echo "== net smoke =="
EPPI=./_build/default/bin/eppi_cli.exe
NET_DIR=$(mktemp -d /tmp/eppi_net_smoke.XXXXXX)
NET_SOCK="$NET_DIR/eppi.sock"
trap 'rm -rf "$NET_DIR"' EXIT
"$EPPI" generate --owners 80 --providers 24 --seed 5 -o "$NET_DIR/net.csv" >/dev/null
"$EPPI" construct -d "$NET_DIR/net.csv" -o "$NET_DIR/index1.eppi" 2>/dev/null
"$EPPI" construct -d "$NET_DIR/net.csv" --seed 9 --policy basic -o "$NET_DIR/index2.eppi" 2>/dev/null
assert_index_file "$NET_DIR/index1.eppi"
assert_index_file "$NET_DIR/index2.eppi"
# A CSV index (the old on-disk format, now only `eppi export --csv`) is
# refused by content: exit 1, a message naming both commands, no
# exception, and no socket left behind.
"$EPPI" export --csv -i "$NET_DIR/index1.eppi" -o "$NET_DIR/index1.csv"
if "$EPPI" serve -i "$NET_DIR/index1.csv" --listen "$NET_SOCK" 2>"$NET_DIR/csv.err"; then
  echo "net smoke: eppi serve accepted a CSV index file" >&2
  exit 1
fi
grep -q "eppi construct" "$NET_DIR/csv.err"
grep -q "eppi export" "$NET_DIR/csv.err"
if grep -q -i "exception" "$NET_DIR/csv.err"; then
  echo "net smoke: eppi serve raised on a CSV index file" >&2
  exit 1
fi
test ! -e "$NET_SOCK"
"$EPPI" serve -i "$NET_DIR/index1.eppi" --listen "$NET_SOCK" --shards 2 --domains 4 \
  >"$NET_DIR/server.json" 2>"$NET_DIR/server.log" &
NET_PID=$!
# 100 queries: two rounds of 50, pipelined over one connection each, with a
# binary hot-swap republish in between (generation 1 -> 2, queries keep
# flowing), then a CSV-payload republish (generation 3) for compat.
seq 0 49 | sed 's/^/--owner /' | xargs "$EPPI" query --connect "$NET_SOCK" >"$NET_DIR/replies1.txt"
"$EPPI" republish --connect "$NET_SOCK" -i "$NET_DIR/index2.eppi" | grep -q "generation 2"
seq 0 49 | sed 's/^/--owner /' | xargs "$EPPI" query --connect "$NET_SOCK" >"$NET_DIR/replies2.txt"
"$EPPI" republish --connect "$NET_SOCK" --csv -i "$NET_DIR/index1.eppi" | grep -q "generation 3"
test "$(wc -l < "$NET_DIR/replies1.txt")" -eq 50
test "$(wc -l < "$NET_DIR/replies2.txt")" -eq 50
"$EPPI" stats --connect "$NET_SOCK" >"$NET_DIR/stats.json"
# Live telemetry (docs/OBSERVABILITY.md): the stage decomposition's
# conservation law must hold as an exact integer identity, the Stats
# reply must carry the per-worker counters, and both watch modes must
# produce bounded output.
"$EPPI" top --connect "$NET_SOCK" --json >"$NET_DIR/telemetry.json"
"$EPPI" stats --connect "$NET_SOCK" --watch 0.2 --iterations 2 >"$NET_DIR/watch.txt"
test "$(wc -l < "$NET_DIR/watch.txt")" -eq 2
grep -q "queries" "$NET_DIR/watch.txt"
if command -v python3 >/dev/null 2>&1; then
  NET_STATS="$NET_DIR/stats.json" NET_TELEMETRY="$NET_DIR/telemetry.json" python3 - <<'EOF'
import json, os
with open(os.environ["NET_STATS"]) as f:
    m = json.load(f)
if m["queries"] != m["served"] + m["unknown"] + m["shed_rate"] + m["shed_queue"]:
    raise SystemExit(f"net: request conservation violated: {m}")
if m["queries"] < 100:
    raise SystemExit(f"net: expected >= 100 queries, got {m['queries']}")
if m["generation"] != 3:
    raise SystemExit(f"net: expected generation 3 after republishes, got {m['generation']}")
if m["swaps"] < 1:
    raise SystemExit(f"net: republish recorded no swap: {m}")
if len(m.get("workers", [])) != 4:
    raise SystemExit(f"net: stats should list 4 worker domains: {m.get('workers')}")
if "trace_dropped" not in m:
    raise SystemExit("net: stats reply lacks trace_dropped")
with open(os.environ["NET_TELEMETRY"]) as f:
    t = json.load(f)
c = t["conservation"]
if not c["exact"] or c["stage_sum_ns"] != c["total_ns"]:
    raise SystemExit(f"net: telemetry stage conservation violated: {c}")
if t["requests"] < 100:
    raise SystemExit(f"net: telemetry saw {t['requests']} requests, expected >= 100")
if len(t["workers"]) != 4:
    raise SystemExit(f"net: telemetry should list 4 worker domains: {t['workers']}")
if t["stages"]["decode"]["count"] != t["stages"]["flush"]["count"]:
    raise SystemExit(f"net: stage counts disagree: {t['stages']}")
if not t["slow"]:
    raise SystemExit("net: slow-request ring is empty after load")
print(f"net stats ok: {m['queries']} queries conserved, generation {m['generation']}, "
      f"{m['swaps']} swap observation(s)")
print(f"net telemetry ok: {t['requests']} requests, stage sum {c['stage_sum_ns']} ns "
      f"== total {c['total_ns']} ns (exact)")
EOF
fi
"$EPPI" shutdown --connect "$NET_SOCK" 2>/dev/null
wait "$NET_PID"
test ! -e "$NET_SOCK"
rm -rf "$NET_DIR"
trap - EXIT

# A ~5 s smoke of the replication layer (docs/SERVE.md, "Replication"):
# three daemons sharing a --peers list form a replica set; a cluster
# republish fans the binary payload to all three, cluster-addressed
# queries keep answering through transparent failover while one replica
# is killed, a second fan-out with --require 2 succeeds on the
# survivors, and `top --json` over the set shows the survivors
# generation-converged with the dead replica reported down, not erroring.
echo "== cluster smoke =="
CLU_DIR=$(mktemp -d /tmp/eppi_cluster_smoke.XXXXXX)
trap 'rm -rf "$CLU_DIR"' EXIT
"$EPPI" generate --owners 80 --providers 24 --seed 5 -o "$CLU_DIR/net.csv" >/dev/null
"$EPPI" construct -d "$CLU_DIR/net.csv" -o "$CLU_DIR/index1.eppi" 2>/dev/null
"$EPPI" construct -d "$CLU_DIR/net.csv" --seed 9 --policy basic -o "$CLU_DIR/index2.eppi" 2>/dev/null
assert_index_file "$CLU_DIR/index1.eppi"
assert_index_file "$CLU_DIR/index2.eppi"
CLU_PEERS="$CLU_DIR/a.sock,$CLU_DIR/b.sock,$CLU_DIR/c.sock"
for r in a b c; do
  "$EPPI" serve -i "$CLU_DIR/index1.eppi" --listen "$CLU_DIR/$r.sock" --shards 2 --domains 2 \
    --peers "$CLU_PEERS" >"$CLU_DIR/$r.json" 2>"$CLU_DIR/$r.log" &
done
for r in a b c; do
  i=0
  while [ ! -S "$CLU_DIR/$r.sock" ] && [ "$i" -lt 50 ]; do sleep 0.1; i=$((i + 1)); done
  test -S "$CLU_DIR/$r.sock"
done
"$EPPI" republish --cluster "$CLU_PEERS" -i "$CLU_DIR/index2.eppi" >"$CLU_DIR/repub1.txt"
grep -q "republished 3/3 replicas at generation 2" "$CLU_DIR/repub1.txt"
seq 0 49 | sed 's/^/--owner /' | xargs "$EPPI" query --connect "$CLU_PEERS" >"$CLU_DIR/replies1.txt"
test "$(wc -l < "$CLU_DIR/replies1.txt")" -eq 50
"$EPPI" shutdown --connect "$CLU_DIR/a.sock" 2>/dev/null
# The replica set still lists the dead daemon: queries must fail over
# transparently and the fan-out must report honest partial success.
seq 0 49 | sed 's/^/--owner /' | xargs "$EPPI" query --connect "$CLU_PEERS" >"$CLU_DIR/replies2.txt"
test "$(wc -l < "$CLU_DIR/replies2.txt")" -eq 50
"$EPPI" republish --cluster "$CLU_PEERS" --require 2 -i "$CLU_DIR/index1.eppi" >"$CLU_DIR/repub2.txt"
grep -q "republished 2/3 replicas at generation 3" "$CLU_DIR/repub2.txt"
"$EPPI" top --connect "$CLU_PEERS" --json >"$CLU_DIR/top.json"
if command -v python3 >/dev/null 2>&1; then
  CLU_TOP="$CLU_DIR/top.json" python3 - <<'EOF'
import json, os
with open(os.environ["CLU_TOP"]) as f:
    rows = json.load(f)
if len(rows) != 3:
    raise SystemExit(f"cluster: top --json should list 3 replicas, got {len(rows)}")
down = [r for r in rows if not r["up"]]
up = [r for r in rows if r["up"]]
if len(down) != 1 or not down[0]["addr"].endswith("a.sock"):
    raise SystemExit(f"cluster: expected exactly the killed replica down: {rows}")
gens = {r["generation"] for r in up}
if gens != {3}:
    raise SystemExit(f"cluster: survivors not generation-converged: {rows}")
if any(r["peers"] != 3 for r in up):
    raise SystemExit(f"cluster: replicas should echo a 3-member peer list: {rows}")
print(f"cluster top ok: 1 down, survivors converged at generation {gens.pop()}")
EOF
fi
"$EPPI" shutdown --connect "$CLU_DIR/b.sock" 2>/dev/null
"$EPPI" shutdown --connect "$CLU_DIR/c.sock" 2>/dev/null
wait
test ! -e "$CLU_DIR/b.sock"
test ! -e "$CLU_DIR/c.sock"
rm -rf "$CLU_DIR"
trap - EXIT

# A ~5 s smoke of the network bench: tiny index, short replay, two pipeline
# depths, a 1-vs-2 domain sweep (with its reply-equality check), CSV and
# binary republishes under load; then check the emitted JSON.
echo "== net bench smoke =="
NET_N=120 NET_M=64 NET_QUERIES=3000 NET_DEPTHS=1,8 NET_DOMAINS=1,2 NET_SWAPS=5 \
  dune exec bench/main.exe -- net
test -s BENCH_net.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("BENCH_net.json") as f:
    data = json.load(f)
for key in ("depth_runs", "domain_runs", "payload", "swap", "swap_csv", "cores",
            "replication", "metrics"):
    if key not in data:
        raise SystemExit(f"BENCH_net.json missing {key!r}")
if len(data["depth_runs"]) < 2:
    raise SystemExit("BENCH_net.json: depth sweep not populated")
if len(data["domain_runs"]) < 2:
    raise SystemExit("BENCH_net.json: domain sweep not populated")
if data["payload"]["ratio"] <= 1.0:
    raise SystemExit(f"BENCH_net.json: binary payload not smaller than CSV: {data['payload']}")
csv_swaps = data["swap_csv"]["count"]
if data["swap"]["final_generation"] != data["swap"]["count"] + csv_swaps + 1:
    raise SystemExit(f"BENCH_net.json: generation accounting off: {data['swap']}")
repl = data["replication"]
init = repl["initial_republish"]
if init["succeeded"] != repl["replicas"] or not init["converged_within_round"]:
    raise SystemExit(f"BENCH_net.json: initial fan-out incomplete: {init}")
kill = repl["kill"]
if kill["errors_after_settle"] != 0:
    raise SystemExit(f"BENCH_net.json: errors persisted after failover settled: {kill}")
if kill["failovers"] < 1:
    raise SystemExit(f"BENCH_net.json: replica kill produced no failover: {kill}")
for key in ("p99_baseline_s", "p99_kill_window_s", "failover_latency_s"):
    if kill[key] <= 0.0:
        raise SystemExit(f"BENCH_net.json: {key} not recorded: {kill}")
cr = repl["cluster_republish"]
if (cr["succeeded"] != repl["replicas"] - 1 or cr["failed"] != 1
        or not cr["converged_within_round"]):
    raise SystemExit(f"BENCH_net.json: post-kill fan-out off: {cr}")
print("BENCH_net.json well-formed (replication: converged, zero settled errors, "
      f"{kill['failovers']} failover(s))")
EOF
fi
rm -f BENCH_net.json

# A ~5 s smoke of the fuzzy lookup path (docs/FUZZY.md): generate a roster
# alongside the dataset, start the daemon with a resolver under an explicit
# linkage seed, resolve a planted owner through a clean probe and a typo'd
# one, assert a wrong seed resolves nothing, that --fuzzy without
# --linkage-seed is refused, and that the fuzzy metrics conserve; then shut
# down cleanly.
echo "== fuzzy smoke =="
FUZ_DIR=$(mktemp -d /tmp/eppi_fuzzy_smoke.XXXXXX)
FUZ_SOCK="$FUZ_DIR/eppi.sock"
trap 'rm -rf "$FUZ_DIR"' EXIT
"$EPPI" generate --owners 80 --providers 24 --seed 5 -o "$FUZ_DIR/net.csv" \
  --roster "$FUZ_DIR/roster.csv" >/dev/null
"$EPPI" construct -d "$FUZ_DIR/net.csv" -o "$FUZ_DIR/index.eppi" 2>/dev/null
assert_index_file "$FUZ_DIR/index.eppi"
"$EPPI" serve -i "$FUZ_DIR/index.eppi" --listen "$FUZ_SOCK" --shards 2 --domains 2 \
  --roster "$FUZ_DIR/roster.csv" --linkage-seed 4242 \
  >"$FUZ_DIR/server.json" 2>"$FUZ_DIR/server.log" &
FUZ_PID=$!
# Owner 0's roster row (line 1 is the header): query it back verbatim,
# then with a corrupted first name — both must resolve to owner 0.
ROW=$(sed -n '2p' "$FUZ_DIR/roster.csv")
FIRST=$(printf '%s' "$ROW" | cut -d, -f2)
LAST=$(printf '%s' "$ROW" | cut -d, -f3)
DOB=$(printf '%s' "$ROW" | cut -d, -f4)
ZIP=$(printf '%s' "$ROW" | cut -d, -f5)
"$EPPI" query --connect "$FUZ_SOCK" --fuzzy --linkage-seed 4242 \
  --first "$FIRST" --last "$LAST" --dob "$DOB" --zip "$ZIP" >"$FUZ_DIR/exact.txt"
head -n1 "$FUZ_DIR/exact.txt" | grep -q "^0 1.0000"
"$EPPI" query --connect "$FUZ_SOCK" --fuzzy --linkage-seed 4242 \
  --first "${FIRST%?}x" --last "$LAST" --dob "$DOB" >"$FUZ_DIR/typo.txt"
head -n1 "$FUZ_DIR/typo.txt" | grep -q "^0 "
if "$EPPI" query --connect "$FUZ_SOCK" --fuzzy --linkage-seed 9999 \
  --first "$FIRST" --last "$LAST" --dob "$DOB" >/dev/null 2>&1; then
  echo "fuzzy smoke: a probe under the wrong linkage seed must not resolve" >&2
  exit 1
fi
if "$EPPI" query --connect "$FUZ_SOCK" --fuzzy --first "$FIRST" >/dev/null 2>&1; then
  echo "fuzzy smoke: --fuzzy without --linkage-seed must be refused" >&2
  exit 1
fi
"$EPPI" stats --connect "$FUZ_SOCK" >"$FUZ_DIR/stats.json"
if command -v python3 >/dev/null 2>&1; then
  FUZ_STATS="$FUZ_DIR/stats.json" python3 - <<'EOF'
import json, os
with open(os.environ["FUZ_STATS"]) as f:
    m = json.load(f)
total = (m["fuzzy_resolved"] + m["fuzzy_empty"] + m["fuzzy_rejected"] + m["fuzzy_shed"])
if m["fuzzy_queries"] != total:
    raise SystemExit(f"fuzzy: request conservation violated: {m}")
if m["fuzzy_resolved"] < 2 or m["fuzzy_empty"] < 1:
    raise SystemExit(f"fuzzy: expected 2+ resolved and 1+ empty, got {m}")
print(f"fuzzy stats ok: {m['fuzzy_queries']} queries conserved, "
      f"{m['fuzzy_resolved']} resolved, {m['fuzzy_scanned']} signatures scanned")
EOF
fi
"$EPPI" shutdown --connect "$FUZ_SOCK" 2>/dev/null
wait "$FUZ_PID"
test ! -e "$FUZ_SOCK"
rm -rf "$FUZ_DIR"
trap - EXIT

# A ~5 s smoke of the fuzzy bench: small roster, short query stream.  The
# bench itself exits non-zero unless recall@10 >= 0.9 at default noise, no
# generated frame contains a plaintext demographic byte, and the
# disabled-tracing overhead stays under the bound; here we additionally
# check the emitted JSON carries the headline fields.
echo "== fuzzy bench smoke =="
FUZZY_N=300 FUZZY_M=64 FUZZY_QUERIES=600 dune exec bench/main.exe -- fuzzy
test -s BENCH_fuzzy.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("BENCH_fuzzy.json") as f:
    data = json.load(f)
for key in ("resolver_build_seconds", "no_plaintext_in_frames", "noise_runs",
            "recall_at_k_default_noise", "exact_latency_s", "trace", "metrics"):
    if key not in data:
        raise SystemExit(f"BENCH_fuzzy.json missing {key!r}")
if data["recall_at_k_default_noise"] < 0.9:
    raise SystemExit(f"BENCH_fuzzy.json: recall gate failed: {data['recall_at_k_default_noise']}")
if len(data["noise_runs"]) < 3:
    raise SystemExit("BENCH_fuzzy.json: noise sweep not populated")
print("BENCH_fuzzy.json well-formed")
EOF
fi
rm -f BENCH_fuzzy.json

# A ~5 s smoke of the fault-tolerant construction (docs/ROBUSTNESS.md):
# the chaos bench sweeps drop rates and crashes a provider mid-SecSumShare
# and a coordinator mid-MPC.  The bench itself exits non-zero unless every
# lossy run is bit-identical to the lossless baseline and every crash run
# comes back Degraded with the epsilon contract intact over the survivors;
# here we additionally check the emitted JSON records those verdicts.
echo "== chaos smoke =="
CHAOS_N=40 CHAOS_M=10 CHAOS_DROPS=0.05,0.1 dune exec bench/main.exe -- chaos
test -s BENCH_chaos.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("BENCH_chaos.json") as f:
    data = json.load(f)
if len(data["loss_sweep"]) < 2:
    raise SystemExit("BENCH_chaos.json: loss sweep not populated")
for run in data["loss_sweep"]:
    if not run["bit_identical"]:
        raise SystemExit(f"BENCH_chaos.json: lossy run diverged: {run}")
for key in ("provider_crash", "coordinator_crash"):
    crash = data[key]
    if crash["outcome"] != "degraded" or not crash["epsilon_contract"]:
        raise SystemExit(f"BENCH_chaos.json: {key} violated the contract: {crash}")
print("BENCH_chaos.json well-formed: loss masked, crashes degraded gracefully")
EOF
fi

echo "== check.sh: all green =="
