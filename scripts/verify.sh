#!/usr/bin/env sh
# Pre-merge verification, fully offline (the workspace has no registry
# dependencies; see DESIGN.md "Campaign API" / README "Offline builds").
#
#   sh scripts/verify.sh
#
# Runs, in order:
#   1. tier-1: release build + the root test suite (ROADMAP.md);
#   2. the full workspace test suite;
#   3. clippy over every target, warnings denied;
#   4. the VM benchmark harness in --smoke mode (scripts/bench.sh);
#   5. telemetry smoke: a quick campaign with the JSONL sink attached,
#      validated line-by-line by telcheck, and a render byte-identity
#      check against a sink-less run;
#   6. snapshot smoke: the same quick campaign with --no-fork-server
#      must render byte-identically to the fork-served run (the
#      architectural-equivalence contract, DESIGN.md §10), and the
#      fork-served run's telemetry must carry vm.snapshot.* metrics;
#   7. tier smoke: the same quick campaign with --no-tier2 must render
#      byte-identically to the tiered run (tier 2 is a pure speedup,
#      DESIGN.md §12), and the tiered run's telemetry must carry
#      vm.tier2.* metrics — including the vm.tier2.ic_* inline-cache
#      counters — proving blocks actually compiled and ran;
#   8. fault-injection smoke: the E16 crash matrix standalone, plus a
#      --fault-demo run that must exit non-zero, report its failed
#      cells, and emit cell_failed telemetry; `--only 17` (an id outside
#      the E1–E16 registry), `--workers abc` and a bare `--seed` must be
#      usage errors (exit 2) with empty stdout;
#   9. fuzz smoke: the E18 coverage-guided campaign (swsec-fuzz) at a
#      fixed seed and budget must rediscover the E2 stack smash, see
#      zero fast-path-vs-baseline divergences, and render byte-identical
#      reports at 1 and 4 workers (deterministic findings contract,
#      DESIGN.md §11), with --no-tier2 (the coverage feedback that
#      steers the campaign may not depend on the serving tier) and
#      with --no-fork-server (rebuilt machines match restored ones);
#  10. trace smoke: a quick campaign with spans and the sampling
#      profiler attached must render byte-identically to the plain run,
#      stream span records and vm.prof.* metrics into the telemetry
#      dump, export a structurally valid Chrome trace, and write a
#      non-empty .folded profile; the fuzz --profile pass must produce
#      a symbolized single-victim profile (DESIGN.md §13);
#  11. service smoke: a two-tenant campaign-service round must render
#      byte-identically at 1 vs 4 workers and fork-served vs rebuilt,
#      stream serve.* metrics and job spans into its telemetry dump,
#      never shed when the queue has room, and exit non-zero under
#      --saturate with typed shed/rejected outcomes in the report and
#      job_shed events in the telemetry (DESIGN.md §14);
#  12. global-state guard: no crate source may bring back process-wide
#      execution state — no `set_default_*` fn, no `thread_local!`
#      besides the VM context (crates/vm/src/context.rs) and the span
#      recorder (crates/obs/src/span.rs), and no `static` holding an
#      atomic, lock or lazy cell. Runs carry their configuration
#      explicitly (swsec_vm::VmConfig, DESIGN.md §7).
#  13. compiler round-trip guard: crates/minc/src may not call the text
#      assembler (`assemble`); the compiler builds swsec_asm::Assembly
#      items and encodes them with the shared back end. Nor may it call
#      the renderer (`.render(`) outside the Listing type
#      (crates/minc/src/codegen/listing.rs): `compile` renders nothing,
#      the listing is rendered from the same items on first read
#      (DESIGN.md §7 "Assembler cost").
#  14. thread-spawn guard: crates/core/src may start threads in one
#      place only, the campaign runner's worker spawn (`spawn_thread`
#      in crates/core/src/campaign.rs). Any other `thread::spawn`,
#      `Builder::…spawn` or `thread::scope` outside `#[cfg(test)]`
#      items fails: attempts run inline on the runner's workers, never
#      on a thread of their own (DESIGN.md §9);
#  15. benchmark build and tests: swsecbench/ is a Cargo workspace of
#      its own, so neither `cargo test` nor `cargo test --workspace`
#      compiles it; a public-API change that breaks the benchmark fails
#      here instead of in the benchmark run;
#  16. vm-counter guard: swsec_vm::trace::ExecStats is the one VM
#      counter type and ExecStats::absorb_into the one place the vm.*
#      counter names are written, so crates/core/src may not emit a
#      `counter("vm.…")` of its own (reading one back with
#      `counter_value` is fine), and `VmCounters` may not reappear
#      under crates/, tests/ or examples/ (DESIGN.md "Observability");
#  17. format check: `cargo fmt --all --check` over the workspace
#      (swsecbench/ is not a member and is not checked);
#  18. one-path guard: crates/core/src/experiments may not bring back a
#      `pub fn compute` twin of an `Experiment` impl, a
#      `Table::new("cell", …)` carrier or cells routed by `t.title`;
#  19. feature guard: no workspace manifest (swsecbench/ is not a
#      member) may declare `[features]`, and no source under crates/,
#      tests/, examples/ or suite/ may gate code on `cfg(feature …)` or
#      mention `proptest`: every test builds offline and runs in the
#      default suite, where steps 2 and 3 test and lint it.
#  20. one-semantics guard: each instruction has one implementation,
#      the executor core (Machine::exec_instr in crates/vm/src/cpu.rs)
#      that tier 1 and tier-2 blocks both run. Outside isa.rs (opcodes
#      and mnemonics) and `#[cfg(test)]` items, crates/vm/src must have
#      exactly one `AluOp::Sar =>` arm and construct
#      `Fault::ShadowStackMismatch` exactly once (DESIGN.md §12).
#  21. one-dispatch-loop guard: tier-2 blocks chain in one place, the
#      dispatch loop (Machine::tier2_dispatch), which probes a block's
#      inline cache once per hop; exec_block runs exactly one block.
#      Outside `#[cfg(test)]` items, crates/vm/src/cpu.rs must call
#      `.ic_probe(` exactly once, and crates/vm/src may not declare a
#      `trait DataPath` (the data accessors are chosen by a const
#      generic, DESIGN.md §12).
#  22. one-page-table guard: the page table holds one entry per mapped
#      region (a sorted Vec, DESIGN.md §7), so crates/vm/src/mem.rs may
#      not hold a per-page map, a `BTreeMap<u32` or `HashMap<u32`.
#  23. one-state guard: two machines are compared through
#      swsec_vm::arch::ArchState, the one definition of architectural
#      state (DESIGN.md §10). Outside crates/vm/src/arch.rs and
#      crates/vm/src/trace.rs (which defines the stats projection), no
#      source under crates/, tests/, examples/ or suite/ may call
#      `.architectural()`, read the register file through `ALL_REGS`,
#      or compare one register across two machines.
set -eu
cd "$(dirname "$0")/.."

# Prints every non-comment line outside `#[cfg(test)]` items of the
# .rs files `find` lists under its arguments, as FILE:LINE: text; a
# test item is skipped through its closing brace.
non_test_lines() {
    find "$@" -name '*.rs' | sort | xargs awk '
        FNR == 1 { skip = 0 }
        skip == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip == 1 {
            for (i = 1; i <= length($0); i++) {
                c = substr($0, i, 1)
                if (c == "{") { depth++; opened = 1 } else if (c == "}") depth--
            }
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }
    '
}

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> workspace tests"
cargo test -q --offline --workspace

echo "==> clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> vmbench smoke"
sh scripts/bench.sh --smoke

echo "==> telemetry smoke"
cargo build -q --release --offline --example campaign
cargo build -q --release --offline -p swsec-obs --bin telcheck
TELDIR="target/telemetry-smoke"
mkdir -p "$TELDIR"
target/release/examples/campaign --quick --render-only \
    --telemetry "$TELDIR/campaign.jsonl" > "$TELDIR/render_with_sink.txt"
target/release/examples/campaign --quick --render-only \
    > "$TELDIR/render_no_sink.txt"
cmp "$TELDIR/render_with_sink.txt" "$TELDIR/render_no_sink.txt" || {
    echo "verify: render differs with telemetry sink attached" >&2
    exit 1
}
target/release/telcheck "$TELDIR/campaign.jsonl" \
    --require pma_violation --require canary_trip \
    --require metric --require meta

echo "==> snapshot smoke"
# Fork-served and rebuild-per-attempt campaigns must render the same
# bytes: restored machines are architecturally identical to freshly
# built ones, and rendered reports exclude the (warm) cache counters.
target/release/examples/campaign --quick --render-only --no-fork-server \
    > "$TELDIR/render_no_fork.txt"
cmp "$TELDIR/render_with_sink.txt" "$TELDIR/render_no_fork.txt" || {
    echo "verify: render differs with the fork server disabled" >&2
    exit 1
}
# The fork-served run must have actually snapshotted and restored.
target/release/telcheck "$TELDIR/campaign.jsonl" \
    --require "metric:vm.snapshot.snapshots" \
    --require "metric:vm.snapshot.restores" \
    --require "metric:vm.snapshot.dirty_pages"

echo "==> tier smoke"
# Tier 2 must be semantically invisible: a campaign with the block
# engine disabled renders the same bytes as the tiered run...
target/release/examples/campaign --quick --render-only --no-tier2 \
    > "$TELDIR/render_no_tier2.txt"
cmp "$TELDIR/render_with_sink.txt" "$TELDIR/render_no_tier2.txt" || {
    echo "verify: render differs with tier 2 disabled" >&2
    exit 1
}
# ... while the tiered run must have actually compiled and served
# superinstruction blocks, and carried the inline-cache counters.
target/release/telcheck "$TELDIR/campaign.jsonl" \
    --require "metric:vm.tier2.blocks_compiled" \
    --require "metric:vm.tier2.block_hits" \
    --require "metric:vm.tier2.instructions" \
    --require "metric:vm.tier2.ic_hits" \
    --require "metric:vm.tier2.ic_misses" \
    --require "metric:vm.tier2.ic_installs" \
    --require "metric:vm.tier2.ic_megamorphic"

echo "==> fault-injection smoke"
FAULTDIR="target/fault-smoke"
mkdir -p "$FAULTDIR"
# The crash matrix alone: every CrashPoint x slot combination, the
# sealed-blob tampering probes, and the VM bit-flip cell must pass.
target/release/examples/campaign --quick --only 16 --render-only \
    > "$FAULTDIR/crash_matrix.txt"
grep -q "E16a" "$FAULTDIR/crash_matrix.txt" || {
    echo "verify: crash-matrix render is missing its tables" >&2
    exit 1
}
# The fault demo: cells panic and time out on purpose; the campaign
# must finish, name the failures, and exit non-zero.
if target/release/examples/campaign --fault-demo --quick \
    --telemetry "$FAULTDIR/fault_demo.jsonl" \
    > "$FAULTDIR/fault_demo.txt" 2> "$FAULTDIR/fault_demo.err"; then
    echo "verify: --fault-demo must exit non-zero on failed cells" >&2
    exit 1
fi
grep -q "failed cells" "$FAULTDIR/fault_demo.txt" || {
    echo "verify: --fault-demo did not render the failed-cells table" >&2
    exit 1
}
target/release/telcheck "$FAULTDIR/fault_demo.jsonl" \
    --require cell_failed --require metric --require meta
# E17 is not a registered experiment: --only 17 is a usage error.
if target/release/examples/campaign --quick --only 17 > "$FAULTDIR/only_17.txt" 2> /dev/null \
    || [ -s "$FAULTDIR/only_17.txt" ]; then
    echo "verify: --only 17 must exit non-zero with empty stdout" >&2
    exit 1
fi
# A flag missing its value, or given a malformed one, is a usage error
# too, never a panic.
for args in "--workers abc" "--seed"; do
    status=0
    # $args is unquoted on purpose: it splits into flag and value.
    target/release/examples/campaign --quick $args > "$FAULTDIR/bad_flag.txt" 2> /dev/null \
        || status=$?
    if [ "$status" -ne 2 ] || [ -s "$FAULTDIR/bad_flag.txt" ]; then
        echo "verify: campaign $args must exit 2 with empty stdout (got $status)" >&2
        exit 1
    fi
done

echo "==> fuzz smoke"
cargo build -q --release --offline -p swsec-fuzz --bin fuzz
FUZZDIR="target/fuzz-smoke"
mkdir -p "$FUZZDIR"
target/release/fuzz --seed 9 --workers 1 --render-only \
    > "$FUZZDIR/render_w1.txt"
target/release/fuzz --seed 9 --workers 4 --render-only \
    > "$FUZZDIR/render_w4.txt"
cmp "$FUZZDIR/render_w1.txt" "$FUZZDIR/render_w4.txt" || {
    echo "verify: fuzz render differs across worker counts" >&2
    exit 1
}
# Tier 2 (blocks, inline caches, in-block coverage) must be invisible
# to the campaign: same findings, same corpus growth, same bytes.
target/release/fuzz --seed 9 --workers 1 --render-only --no-tier2 \
    > "$FUZZDIR/render_no_tier2.txt"
cmp "$FUZZDIR/render_w1.txt" "$FUZZDIR/render_no_tier2.txt" || {
    echo "verify: fuzz render differs with tier 2 disabled" >&2
    exit 1
}
# Rebuilding a fresh machine per attempt instead of restoring the
# snapshot must not change a single finding either.
target/release/fuzz --seed 9 --workers 1 --render-only --no-fork-server \
    > "$FUZZDIR/render_no_fork.txt"
cmp "$FUZZDIR/render_w1.txt" "$FUZZDIR/render_no_fork.txt" || {
    echo "verify: fuzz render differs with the fork server disabled" >&2
    exit 1
}
# The known-vulnerable victim must yield the exploit-path finding ...
grep -q "SECRET" "$FUZZDIR/render_w1.txt" || {
    echo "verify: fuzz smoke did not rediscover the E2 stack smash" >&2
    exit 1
}
grep -Eq "known exploit path rediscovered \(victim-smash\) +yes" \
    "$FUZZDIR/render_w1.txt" || {
    echo "verify: fuzz verdict table is missing the exploit row" >&2
    exit 1
}
# ... and the fast-path VM must agree with the baseline on every input.
grep -Eq "fast-path vs baseline divergences +0[[:space:]]*$" \
    "$FUZZDIR/render_w1.txt" || {
    echo "verify: fuzz smoke saw fast-vs-baseline divergences" >&2
    exit 1
}

echo "==> trace smoke"
TRACEDIR="target/trace-smoke"
mkdir -p "$TRACEDIR"
# Spans and the profiler ride the telemetry channel, so the rendering
# contract holds: the traced run's stdout is byte-identical to the
# plain run's. Interval 256: quick-campaign attempts are short and the
# sample countdown re-arms at every attempt boundary, so the stock
# 4096 would record nothing.
target/release/examples/campaign --quick --render-only \
    --spans --chrome "$TRACEDIR/trace.json" \
    --profile "$TRACEDIR/campaign.folded" --profile-interval 256 \
    --telemetry "$TRACEDIR/campaign.jsonl" > "$TRACEDIR/render_traced.txt"
cmp "$TELDIR/render_no_sink.txt" "$TRACEDIR/render_traced.txt" || {
    echo "verify: render differs with spans+profiler attached" >&2
    exit 1
}
target/release/telcheck "$TRACEDIR/campaign.jsonl" \
    --require span:campaign --require span:cell --require span:boot \
    --require "metric:vm.prof.*" \
    --chrome "$TRACEDIR/trace.json"
test -s "$TRACEDIR/campaign.folded" || {
    echo "verify: campaign profile is empty" >&2
    exit 1
}
# The single-victim profiling pass must symbolize: guest function
# names in the folded stacks, not just raw addresses.
target/release/fuzz --seed 9 --render-only \
    --profile "$TRACEDIR/victim.folded" > /dev/null
grep -q "main" "$TRACEDIR/victim.folded" || {
    echo "verify: victim profile is empty or unsymbolized" >&2
    exit 1
}

echo "==> service smoke"
cargo build -q --release --offline --example serve
SERVEDIR="target/serve-smoke"
mkdir -p "$SERVEDIR"
# The per-tenant report is architectural data: worker count and serve
# mode must not change a byte of it.
target/release/examples/serve --tenants 2 --jobs 4 --workers 1 --render-only \
    > "$SERVEDIR/render_w1.txt"
target/release/examples/serve --tenants 2 --jobs 4 --workers 4 --render-only \
    --telemetry "$SERVEDIR/serve.jsonl" > "$SERVEDIR/render_w4.txt"
target/release/examples/serve --tenants 2 --jobs 4 --workers 4 --rebuild \
    --render-only > "$SERVEDIR/render_rebuild.txt"
cmp "$SERVEDIR/render_w1.txt" "$SERVEDIR/render_w4.txt" || {
    echo "verify: service render differs across worker counts" >&2
    exit 1
}
cmp "$SERVEDIR/render_w1.txt" "$SERVEDIR/render_rebuild.txt" || {
    echo "verify: service render differs between fork and rebuild serving" >&2
    exit 1
}
# An idle-capacity run must not degrade anyone (shed-when-idle is the
# bug class this step pins down), and the round's telemetry must carry
# the service metrics and one job span per job.
if grep -Eq "shed|rejected" "$SERVEDIR/render_w1.txt"; then
    echo "verify: service shed or rejected jobs with queue capacity to spare" >&2
    exit 1
fi
target/release/telcheck "$SERVEDIR/serve.jsonl" \
    --require "metric:serve.rounds" --require "metric:serve.attempts" \
    --require "metric:serve.pool.hits" --require "metric:serve.pool.evictions" \
    --require "metric:cache.hits" --require span:job --require meta
# Saturation: a queue sized under the load must shed/reject with typed
# outcomes, emit job_shed telemetry, and make the run exit non-zero.
if target/release/examples/serve --tenants 3 --jobs 6 --saturate \
    --telemetry "$SERVEDIR/saturate.jsonl" \
    > "$SERVEDIR/render_saturate.txt" 2> "$SERVEDIR/saturate.err"; then
    echo "verify: --saturate must exit non-zero on degraded service" >&2
    exit 1
fi
grep -Eq "shed|rejected" "$SERVEDIR/render_saturate.txt" || {
    echo "verify: saturated service reported no typed shed/rejected outcomes" >&2
    exit 1
}
target/release/telcheck "$SERVEDIR/saturate.jsonl" --require job_shed

echo "==> global-state guard"
if grep -rnE 'fn set_default_' crates/*/src; then
    echo "verify: a set_default_* fn is back; pass configuration explicitly" >&2
    exit 1
fi
TLS=$(grep -rlE 'thread_local!' crates/*/src | sort | tr '\n' ' ')
if [ "$TLS" != "crates/obs/src/span.rs crates/vm/src/context.rs " ] \
    || [ "$(grep -rE 'thread_local!' crates/*/src | wc -l)" -ne 2 ]; then
    echo "verify: thread_local! outside the VM context and span recorder: $TLS" >&2
    exit 1
fi
if grep -rnE '(^|[^a-z_])static +[A-Za-z_0-9]+ *:[^=]*(Atomic|Mutex|RwLock|OnceLock|LazyLock)' \
    crates/*/src; then
    echo "verify: a static holds mutable process-wide state" >&2
    exit 1
fi

echo "==> compiler round-trip guard"
if grep -rnE '(^|[^A-Za-z0-9_])assemble([^A-Za-z0-9_]|$)' crates/minc/src; then
    echo "verify: crates/minc/src calls the text assembler; build swsec_asm::Assembly items" >&2
    exit 1
fi
if grep -rn '\.render(' crates/minc/src | grep -v '^crates/minc/src/codegen/listing\.rs:'; then
    echo "verify: crates/minc/src renders a listing outside codegen::Listing; leave it to the first read" >&2
    exit 1
fi

echo "==> thread-spawn guard"
# Every non-test line of crates/core/src that starts a thread.
SPAWNS=$(non_test_lines crates/core/src \
    | grep -E 'thread::(spawn|scope)|Builder::|\.spawn(_scoped|_unchecked)?\(' || true)
if [ "$(printf '%s\n' "$SPAWNS" | grep -c .)" -ne 1 ] \
    || ! printf '%s\n' "$SPAWNS" | grep -q '^crates/core/src/campaign.rs:.*std::thread::Builder::new().name(name).spawn(work)'; then
    printf '%s\n' "$SPAWNS" >&2
    echo "verify: crates/core/src starts a thread outside the campaign runner's worker spawn" >&2
    exit 1
fi

echo "==> benchmark tests"
cargo test -q --release --offline --manifest-path swsecbench/Cargo.toml

echo "==> vm-counter guard"
if grep -rn 'counter("vm\.' crates/core/src; then
    echo "verify: crates/core/src emits a vm.* counter; call ExecStats::absorb_into" >&2
    exit 1
fi
if grep -rn 'VmCounters' crates tests examples; then
    echo "verify: VmCounters is back; ExecStats is the one VM counter type" >&2
    exit 1
fi

echo "==> format check"
cargo fmt --all --check

echo "==> one-path guard"
if grep -rnE 'pub fn compute[[:space:]]*[(<]|Table::new\("cell"|\.title\.as_str\(\)|(^|[^A-Za-z0-9_])t\.title([^A-Za-z0-9_]|$)' \
    crates/core/src/experiments; then
    echo "verify: an experiment has a second path; run it through its Experiment impl" >&2
    exit 1
fi

echo "==> feature guard"
if grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
    echo "verify: a workspace manifest declares cargo features; tests run in the default suite" >&2
    exit 1
fi
if grep -rnE 'cfg(_attr)?\((.*[^A-Za-z0-9_])?feature *=|proptest' \
    crates tests examples suite --include='*.rs'; then
    echo "verify: feature-gated or proptest code is back; write seeded swsec-rng cases" >&2
    exit 1
fi

echo "==> one-semantics guard"
# A construction is an occurrence that is not a match pattern (`… } =>`).
VM_LINES=$(non_test_lines crates/vm/src ! -name isa.rs)
SAR_ARMS=$(printf '%s\n' "$VM_LINES" | grep -c 'AluOp::Sar =>' || true)
MISMATCHES=$(printf '%s\n' "$VM_LINES" | grep 'Fault::ShadowStackMismatch {' \
    | grep -vc '}[[:space:]]*=>' || true)
if [ "$SAR_ARMS" -ne 1 ] || [ "$MISMATCHES" -ne 1 ]; then
    printf '%s\n' "$VM_LINES" | grep -E 'AluOp::Sar =>|Fault::ShadowStackMismatch \{' >&2
    echo "verify: crates/vm/src has $SAR_ARMS AluOp::Sar arms and $MISMATCHES ShadowStackMismatch constructions; each instruction runs through the one executor core" >&2
    exit 1
fi

echo "==> one-dispatch-loop guard"
PROBES=$(non_test_lines crates/vm/src/cpu.rs | grep -c '\.ic_probe(' || true)
if [ "$PROBES" -ne 1 ]; then
    non_test_lines crates/vm/src/cpu.rs | grep '\.ic_probe(' >&2
    echo "verify: crates/vm/src/cpu.rs has $PROBES inline-cache probes; blocks chain only in the dispatch loop" >&2
    exit 1
fi
if grep -rn 'trait DataPath' crates/vm/src; then
    echo "verify: the DataPath trait is back; select the data accessors with a const generic" >&2
    exit 1
fi

echo "==> one-page-table guard"
if grep -nE '(BTreeMap|HashMap)<u32' crates/vm/src/mem.rs; then
    echo "verify: crates/vm/src/mem.rs holds a per-page map; the page table has one entry per region" >&2
    exit 1
fi

echo "==> one-state guard"
if grep -rnE '\.architectural\(\)|ALL_REGS[^;]*\.reg\(|\.reg\(([A-Za-z0-9_:]+)\).*\.reg\(\1\)' \
    crates tests examples suite --include='*.rs' \
    | grep -vE '^crates/vm/src/(arch|trace)\.rs:'; then
    echo "verify: a hand-picked machine-state comparison is back; compare through swsec_vm::arch::ArchState" >&2
    exit 1
fi

echo "verify: all checks passed"
