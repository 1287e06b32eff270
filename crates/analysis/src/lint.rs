//! Source-level concurrency lint.
//!
//! Walks Rust sources and enforces ten repo rules:
//!
//! 1. **`unsafe` sites must be justified**: every `unsafe` block, `unsafe
//!    fn`, or `unsafe impl` must have a `// SAFETY:` comment (or a
//!    `# Safety` doc section) immediately above it — above at most a
//!    short run of doc comments, attributes and signature lines.
//! 2. **`Ordering::Relaxed` only where audited**: `Relaxed` may appear
//!    only in files on [`RELAXED_ALLOWLIST`] (each entry is an audited
//!    module — see DESIGN.md §6 for how to add one).
//! 3. **No bare sync primitives outside the facade**: `std::sync::atomic`
//!    and `std::thread::spawn` may appear only in files on
//!    [`SYNC_ALLOWLIST`]; everything else goes through
//!    `rcuarray_analysis::{atomic, thread}` so the checker can see it.
//! 4. **No new bare statistics counters in instrumented crates**: a
//!    relaxed `fetch_add` in an [`INSTRUMENTED_CRATES`] file is an ad-hoc
//!    metric; new ones must go through the `rcuarray-obs` facade
//!    (`LazyCounter`/`LazyGauge`/`LazyHistogram`) so they show up in the
//!    registry, and only the audited pre-obs sites on
//!    [`COUNTER_ALLOWLIST`] are exempt (each entry names the relaxed
//!    sites that remain and why they are not obs handles). An event
//!    counted per object *and* in the registry uses one `ScopedCounter`
//!    (`LazyCounter::scoped`) instead of two counters.
//! 5. **No const-bool scheme branching outside the reclaim core**: the
//!    `IS_QSBR` flag pattern (a marker const that call sites branch on,
//!    the literal reading of the paper's `isQSBR` parameter) may appear
//!    only under [`SCHEME_FLAG_ALLOWLIST`]. Everywhere else, scheme
//!    differences must be *behavior* on the `rcuarray-reclaim::Reclaim`
//!    trait — a new scheme plugs in without touching consumers.
//! 6. **No read guard held across a blocking call** in
//!    [`INSTRUMENTED_CRATES`]: a `let`-bound guard from `read_lock()` /
//!    `pin()` that is still in scope at a `park()` / `sleep` / `join` /
//!    `recv` call is exactly the stalled reader DESIGN.md §9 defends
//!    against — it pins the reclamation backlog for the full block.
//!    Detection is lexical (brace-depth scope tracking) and stops at the
//!    first `#[cfg(test)]` line: tests deliberately stall readers to
//!    exercise quarantine and evacuation.
//! 7. **No leaked read guards**: `std::mem::forget` or
//!    `ManuallyDrop::new` applied to a `let`-bound read-side guard
//!    (`read_lock()` / `pin()`) suppresses the drop that ends the
//!    critical section — the epoch/hazard/QSBR record stays pinned
//!    forever and reclamation wedges (the shadow-heap oracle would show
//!    it as an unbounded `Retired` backlog). Binding names are tracked
//!    with the same brace-depth scoping as rule 6; `Retired::leak`'s
//!    internal `mem::forget` of its *closure* is not a guard binding and
//!    does not match. Like rule 6, scanning stops at `#[cfg(test)]`.
//! 8. **No unbounded queue construction in the serving layer**: files
//!    under [`BOUNDED_QUEUE_CRATES`] (currently `crates/service/`) may
//!    not construct an unbounded channel or growable queue
//!    (`mpsc::channel`, crossbeam-style `unbounded()`, `VecDeque::new`,
//!    `LinkedList::new`, `SegQueue::new`). The service's admission
//!    control rests on every queue refusing at a hard capacity
//!    (DESIGN.md §11); one unbounded buffer anywhere in the request path
//!    silently converts overload from refusal into latency and memory
//!    growth. Use `BoundedQueue` (or `VecDeque::with_capacity` plus an
//!    explicit length check) instead.
//! 9. **No raw comm accounting outside the runtime**: the
//!    `CommLayer::record_*` family (`record_get` / `record_put` /
//!    `record_on` / `record_local` / `record_retry`) is the runtime's
//!    *internal* charging vocabulary. Every cross-locale byte outside
//!    `crates/runtime/` must be expressed as a typed `CommMessage`
//!    through `CommLayer::send` (or its `Cluster::send_to` /
//!    `copy_between` wrappers), so per-link fault rules apply uniformly
//!    (DESIGN.md §14).
//! 10. **No raw block placement outside the placement map**: the
//!     round-robin home-selection vocabulary (`RoundRobinCounter`,
//!     `next_round_robin(`) may appear in `crates/rcuarray/` only inside
//!     `src/placement.rs`. Every locale-indexed placement decision —
//!     which locale homes a block, where a replica or repair copy lands —
//!     must go through `PlacementMap`/`BlockGroup`, so replication,
//!     failover, and membership-aware planning stay in one auditable
//!     place (DESIGN.md §15). Ad-hoc cursors bypass the membership view
//!     and break the bit-stable-at-RF-1 guarantee.
//!
//! Detection runs on *code only*: comments, strings (incl. raw strings)
//! and char literals are stripped by a small state machine first, so
//! prose mentioning `unsafe` or `Relaxed` never trips the lint.

use std::path::{Path, PathBuf};

/// Files (path suffixes, `/`-separated) where `Ordering::Relaxed` is
/// allowed. Keep each entry tied to an audit note in the file itself.
pub const RELAXED_ALLOWLIST: &[&str] = &[
    // The facade + checker map and reason about all orderings.
    "crates/analysis/",
    // The OrderingMode mutation seam: deliberately maps to Relaxed for
    // the broken mode the ebr_modes checker suite must catch.
    "crates/ebr/src/ordering.rs",
    // Monotonic statistics counters only; never used for synchronization.
    "crates/ebr/src/epoch.rs",
    "crates/qsbr/src/domain.rs",
    "crates/qsbr/src/defer_list.rs",
    "crates/rcuarray/src/array.rs",
    "crates/rcuarray/src/stats.rs",
    // Replica-lag ledger: monotonic byte tallies drained at checkpoints;
    // never used for synchronization (the groups Mutex orders stores).
    "crates/rcuarray/src/placement.rs",
    // Per-element cells: Relaxed load/store is the paper's data-plane
    // contract (element visibility is ordered by snapshot publication).
    "crates/rcuarray/src/element.rs",
    // Pre-facade crates, audited wholesale: the abstract model checker
    // and the baseline arrays (whose hazard-pointer domain uses Relaxed
    // only for its statistics counters and the slot-claim hint).
    "crates/model/",
    "crates/baselines/",
    "crates/collections/",
    // Comm/fault counters in the simulated runtime (not migrated; the
    // migrated global_lock.rs gets a narrow entry below).
    "crates/runtime/src/comm.rs",
    "crates/runtime/src/fault.rs",
    // Round-robin placement hint: the counter only steers which locale
    // homes the next block; any interleaving yields a valid placement.
    "crates/runtime/src/dist.rs",
    // Allocation statistics counters (record_allocation & getters).
    "crates/runtime/src/locale.rs",
    // Acquisition statistics counters; the lock itself is a parking_lot
    // mutex behind the facade. Test-module counters are lock-protected.
    "crates/runtime/src/global_lock.rs",
    // Test-module counters: coforall/forall visit counts (joined before
    // asserting).
    "crates/runtime/src/lib.rs",
    // debug_assert sanity load directly before the Release store that
    // actually publishes the checkpoint.
    "crates/qsbr/src/record.rs",
    // Test module: stop flags joined by scope exit.
    "crates/ebr/tests/cell_model.rs",
    // The telemetry facade: sharded monotonic counters, gauges and
    // histogram buckets are Relaxed by design — readers only ever sum or
    // snapshot them, never synchronize through them (DESIGN.md §7).
    "crates/obs/",
];

/// Crates whose hot layers are wired into the `rcuarray-obs` metrics
/// registry; rule 4 applies to files under these prefixes.
pub const INSTRUMENTED_CRATES: &[&str] = &[
    "crates/ebr/",
    "crates/qsbr/",
    "crates/rcuarray/",
    "crates/runtime/",
    "crates/service/",
];

/// Audited pre-obs relaxed-`fetch_add` sites inside the instrumented
/// crates. Everything else must use the obs facade for new counters.
pub const COUNTER_ALLOWLIST: &[&str] = &[
    // ZoneStats-only `pins` (kept out of the registry: the per-read hot
    // path) and `retires`, plus the evacuation gauges' count and bytes.
    "crates/ebr/src/epoch.rs",
    // DomainStats-only `defer_bytes`, the `ticks` robustness clock and
    // the domain-id source.
    "crates/qsbr/src/domain.rs",
    // ArrayStats-only `fallback_reads` and `degraded_writes`, and a
    // test-module visit counter.
    "crates/rcuarray/src/array.rs",
    // Per-locale replica-lag ledger backing ArrayStats::replica_lag_bytes;
    // the obs gauge is set from the total in the same functions.
    "crates/rcuarray/src/placement.rs",
    // The per-cluster (from, to) link table, the one place a comm event
    // is counted, and per-locale fault accounting: locality and per-link
    // assertions need the per-cluster split the global registry lacks.
    "crates/runtime/src/comm.rs",
    "crates/runtime/src/fault.rs",
    "crates/runtime/src/locale.rs",
    "crates/runtime/src/global_lock.rs",
    // Round-robin placement cursor: an index, not a metric.
    "crates/runtime/src/dist.rs",
    // Test-module visit counters (joined before asserting).
    "crates/runtime/src/lib.rs",
];

/// Crates whose request path must never construct an unbounded queue or
/// channel (rule 8): admission control only works when every buffer
/// refuses at a hard capacity.
pub const BOUNDED_QUEUE_CRATES: &[&str] = &["crates/service/"];

/// Files allowed to call the `CommLayer::record_*` charging primitives
/// (rule 9). Only the runtime itself may speak them; every other crate
/// sends typed `CommMessage`s through `CommLayer::send`.
pub const RAW_COMM_ALLOWLIST: &[&str] = &["crates/runtime/"];

/// Crates whose locale-indexed block placement must go through the
/// placement map (rule 10).
pub const PLACEMENT_CRATES: &[&str] = &["crates/rcuarray/"];

/// The one file inside [`PLACEMENT_CRATES`] allowed to speak the
/// round-robin home-selection vocabulary (rule 10).
pub const PLACEMENT_ALLOWLIST: &[&str] = &["crates/rcuarray/src/placement.rs"];

/// Files allowed to name an `IS_QSBR`-style scheme flag. Only the
/// reclamation core may ever need one (e.g. internally to a future
/// scheme); every consumer layer dispatches through the `Reclaim` trait.
pub const SCHEME_FLAG_ALLOWLIST: &[&str] = &["crates/reclaim/"];

/// Files allowed to name `std::sync::atomic` / `std::thread::spawn`.
pub const SYNC_ALLOWLIST: &[&str] = &[
    // The facade itself wraps the std types.
    "crates/analysis/",
    // Not-yet-migrated crates (tracked in ROADMAP): the model checker,
    // baselines, collections, and the unmigrated parts of the simulated
    // runtime.
    "crates/model/",
    "crates/baselines/",
    "crates/collections/",
    "crates/runtime/",
];

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub msg: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    MissingSafety,
    RelaxedOutsideAllowlist,
    BareSyncPrimitive,
    BareCounterOutsideObs,
    SchemeFlagBranching,
    GuardAcrossBlocking,
    ForgetGuard,
    UnboundedQueue,
    RawComm,
    RawPlacement,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rule = match self.rule {
            Rule::MissingSafety => "missing-safety",
            Rule::RelaxedOutsideAllowlist => "relaxed-ordering",
            Rule::BareSyncPrimitive => "bare-sync",
            Rule::BareCounterOutsideObs => "bare-counter",
            Rule::SchemeFlagBranching => "scheme-flag",
            Rule::GuardAcrossBlocking => "guard-across-blocking",
            Rule::ForgetGuard => "forget-guard",
            Rule::UnboundedQueue => "unbounded-queue",
            Rule::RawComm => "raw-comm",
            Rule::RawPlacement => "raw-placement",
        };
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            rule,
            self.msg
        )
    }
}

/// Strip comments, string/char literals from `src`, preserving line
/// structure (stripped characters become spaces), and return the
/// code-only lines. Handles nested block comments, raw strings with
/// hashes, escapes, and lifetimes-vs-char-literals.
pub fn strip_noncode(src: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut st = St::Code;
    let mut out = String::with_capacity(src.len());
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    out.push(' ');
                }
                'r' if matches!(next, Some('"') | Some('#')) => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Lifetime ('a) vs char literal ('x').
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && b.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        out.push(c);
                    } else {
                        st = St::Char;
                        out.push(' ');
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    st = if depth > 1 {
                        St::BlockComment(depth - 1)
                    } else {
                        St::Code
                    };
                    out.push(' ');
                    i += 2;
                    continue;
                }
            }
            St::Str => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '\\' {
                    if next == Some('\n') {
                        out.push('\n');
                    } else {
                        out.push(' ');
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = St::Code;
                }
            }
            St::RawStr(hashes) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && b.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        for _ in (i + 1)..j {
                            out.push(' ');
                        }
                        st = St::Code;
                        i = j;
                        continue;
                    }
                }
            }
            St::Char => {
                out.push(' ');
                if c == '\\' {
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '\'' || c == '\n' {
                    st = St::Code;
                }
            }
        }
        i += 1;
    }
    out.lines().map(|l| l.to_string()).collect()
}

fn has_word(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= line.len()
            || !line[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

fn is_safety_marker(line: &str) -> bool {
    line.contains("SAFETY:") || line.contains("# Safety")
}

/// True when the `unsafe` site at `idx` (0-based) is covered by a safety
/// comment: on the same line, or above it across doc comments,
/// attributes, blank lines, and at most two plain code lines (multi-line
/// signatures / `let` bindings).
fn site_has_safety(raw_lines: &[&str], idx: usize) -> bool {
    if is_safety_marker(raw_lines[idx]) {
        return true;
    }
    let mut skipped_code = 0;
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = raw_lines[j].trim_start();
        if is_safety_marker(t) {
            return true;
        }
        let is_annotation = t.is_empty()
            || t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with("//")
            || t.starts_with("#[")
            || t.starts_with("#!")
            || t.starts_with('*'); // inner lines of block doc comments
        if !is_annotation {
            skipped_code += 1;
            if skipped_code > 2 {
                return false;
            }
        }
    }
    false
}

/// Source patterns that `let`-bind a read-side guard.
const GUARD_BINDERS: &[&str] = &["read_lock()", ".pin()", "Guard::pin("];

/// True when `line` makes a call that blocks the thread for an unbounded
/// (or scheduler-scale) duration. `park(` is word-boundary matched so
/// `unpark()` — which wakes a thread, never blocks one — stays clean.
fn is_blocking_call(line: &str) -> bool {
    if line.contains("thread::sleep") || line.contains(".join(") || line.contains(".recv(") {
        return true;
    }
    let mut start = 0;
    while let Some(pos) = line[start..].find("park(") {
        let at = start + pos;
        let boundary = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        start = at + "park(".len();
    }
    false
}

/// Rule 6: scan `code_lines` for a guard binding still in scope (by brace
/// depth) at a blocking call. Scanning stops at the first `#[cfg(test)]`
/// line — test modules stall readers on purpose.
fn guard_across_blocking(path: &Path, code_lines: &[String]) -> Vec<Violation> {
    let mut out = Vec::new();
    // (depth the guard's scope closes at, line it was bound on)
    let mut guards: Vec<(i64, usize)> = Vec::new();
    let mut depth: i64 = 0;
    for (i, code) in code_lines.iter().enumerate() {
        if code.contains("#[cfg(test)]") {
            break;
        }
        let trimmed = code.trim_start();
        if trimmed.starts_with("let ") && GUARD_BINDERS.iter().any(|g| code.contains(g)) {
            guards.push((depth, i + 1));
        } else if !guards.is_empty() && is_blocking_call(code) {
            let (_, bound_at) = guards[guards.len() - 1];
            out.push(Violation {
                file: path.to_path_buf(),
                line: i + 1,
                rule: Rule::GuardAcrossBlocking,
                msg: format!(
                    "blocking call while the read guard bound on line {bound_at} is live; \
                     a parked reader pins the reclamation backlog (DESIGN.md §9)"
                ),
            });
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|&(d, _)| d <= depth);
                }
                _ => {}
            }
        }
    }
    out
}

/// The binding name introduced by a guard `let` line (`let g = ...` /
/// `let mut g = ...`), if the line binds one of [`GUARD_BINDERS`].
fn guard_binding_name(trimmed: &str) -> Option<&str> {
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

/// Rule 7: a live read-guard binding passed to `mem::forget` or
/// `ManuallyDrop::new`. Same scope model as rule 6: brace-depth tracked
/// bindings, scanning stops at the first `#[cfg(test)]` line.
fn forget_guard(path: &Path, code_lines: &[String]) -> Vec<Violation> {
    const SINKS: &[&str] = &["mem::forget(", "ManuallyDrop::new("];
    let mut out = Vec::new();
    // (depth the guard's scope closes at, binding name, line bound on)
    let mut guards: Vec<(i64, String, usize)> = Vec::new();
    let mut depth: i64 = 0;
    for (i, code) in code_lines.iter().enumerate() {
        if code.contains("#[cfg(test)]") {
            break;
        }
        let trimmed = code.trim_start();
        if trimmed.starts_with("let ") && GUARD_BINDERS.iter().any(|g| code.contains(g)) {
            if let Some(name) = guard_binding_name(trimmed) {
                guards.push((depth, name.to_string(), i + 1));
            }
        } else if !guards.is_empty() {
            for sink in SINKS {
                let Some(pos) = code.find(sink) else { continue };
                let arg = &code[pos + sink.len()..];
                if let Some((_, name, bound_at)) =
                    guards.iter().find(|(_, name, _)| has_word(arg, name))
                {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: i + 1,
                        rule: Rule::ForgetGuard,
                        msg: format!(
                            "`{}` applied to the read guard `{name}` bound on line \
                             {bound_at}; a leaked guard never ends its critical \
                             section, so reclamation backs up forever",
                            sink.trim_end_matches('(')
                        ),
                    });
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|g| g.0 <= depth);
                }
                _ => {}
            }
        }
    }
    out
}

/// Constructors of queues with no capacity bound (rule 8). Each is a
/// call-site pattern; `VecDeque::with_capacity` — which the service's
/// `BoundedQueue` uses under an explicit length check — does not match.
const UNBOUNDED_QUEUE_CTORS: &[&str] = &[
    "mpsc::channel(",
    "unbounded(",
    "VecDeque::new(",
    "LinkedList::new(",
    "SegQueue::new(",
];

/// True when `line` constructs an unbounded queue/channel. The bare
/// `unbounded(` pattern is word-boundary matched so identifiers like
/// `pop_unbounded(` don't trip it.
fn constructs_unbounded_queue(line: &str) -> bool {
    UNBOUNDED_QUEUE_CTORS.iter().any(|pat| {
        let mut start = 0;
        while let Some(pos) = line[start..].find(pat) {
            let at = start + pos;
            let boundary = at == 0
                || !line[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if boundary {
                return true;
            }
            start = at + pat.len();
        }
        false
    })
}

fn allowlisted(path: &Path, allow: &[&str]) -> bool {
    let norm: String = path
        .to_string_lossy()
        .chars()
        .map(|c| if c == '\\' { '/' } else { c })
        .collect();
    allow.iter().any(|a| norm.contains(a))
}

/// Lint a single file's source text.
pub fn lint_source(path: &Path, src: &str) -> Vec<Violation> {
    let raw_lines: Vec<&str> = src.lines().collect();
    let code_lines = strip_noncode(src);
    let mut out = Vec::new();
    for (i, code) in code_lines.iter().enumerate() {
        let line_no = i + 1;
        if has_word(code, "unsafe") && !site_has_safety(&raw_lines, i) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: Rule::MissingSafety,
                msg: "`unsafe` site without a `// SAFETY:` (or `# Safety`) justification".into(),
            });
        }
        if has_word(code, "Relaxed") && !allowlisted(path, RELAXED_ALLOWLIST) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: Rule::RelaxedOutsideAllowlist,
                msg: "`Ordering::Relaxed` outside the audited allowlist (see DESIGN.md §6)".into(),
            });
        }
        if (code.contains("std::sync::atomic") || code.contains("std::thread::spawn"))
            && !allowlisted(path, SYNC_ALLOWLIST)
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: Rule::BareSyncPrimitive,
                msg: "bare std sync primitive; use the rcuarray_analysis facade".into(),
            });
        }
        if has_word(code, "IS_QSBR") && !allowlisted(path, SCHEME_FLAG_ALLOWLIST) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: Rule::SchemeFlagBranching,
                msg: "const-bool scheme flag outside the reclaim core; express \
                      scheme differences as Reclaim-trait behavior (DESIGN.md §8)"
                    .into(),
            });
        }
        if constructs_unbounded_queue(code) && allowlisted(path, BOUNDED_QUEUE_CRATES) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: Rule::UnboundedQueue,
                msg: "unbounded queue/channel constructor in the serving layer; \
                      admission control requires every buffer to refuse at a hard \
                      capacity — use BoundedQueue (DESIGN.md §11)"
                    .into(),
            });
        }
        if code.contains("fetch_add")
            && has_word(code, "Relaxed")
            && allowlisted(path, INSTRUMENTED_CRATES)
            && !allowlisted(path, COUNTER_ALLOWLIST)
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: Rule::BareCounterOutsideObs,
                msg: "ad-hoc relaxed counter in an instrumented crate; use the \
                      rcuarray-obs facade (LazyCounter/LazyGauge/LazyHistogram)"
                    .into(),
            });
        }
        const RECORD_CALLS: [&str; 5] = [
            "record_get",
            "record_put",
            "record_on",
            "record_local",
            "record_retry",
        ];
        if RECORD_CALLS.iter().any(|c| has_word(code, c)) && !allowlisted(path, RAW_COMM_ALLOWLIST)
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: Rule::RawComm,
                msg: "raw `CommLayer::record_*` call outside crates/runtime; \
                      express remote traffic as a typed CommMessage through \
                      `CommLayer::send` (DESIGN.md §14)"
                    .into(),
            });
        }
        if (has_word(code, "RoundRobinCounter") || has_word(code, "next_round_robin"))
            && allowlisted(path, PLACEMENT_CRATES)
            && !allowlisted(path, PLACEMENT_ALLOWLIST)
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: Rule::RawPlacement,
                msg: "raw round-robin placement outside the placement map; \
                      home selection in crates/rcuarray must go through \
                      PlacementMap/BlockGroup so replication and failover \
                      see every decision (DESIGN.md §15)"
                    .into(),
            });
        }
    }
    if allowlisted(path, INSTRUMENTED_CRATES) {
        out.extend(guard_across_blocking(path, &code_lines));
    }
    out.extend(forget_guard(path, &code_lines));
    out
}

/// Recursively lint every `.rs` file under `roots`, skipping `target`
/// and `fixtures` directories. Returns violations plus the file count.
pub fn lint_paths(roots: &[PathBuf]) -> std::io::Result<(Vec<Violation>, usize)> {
    let mut violations = Vec::new();
    let mut files = 0usize;
    let mut stack: Vec<PathBuf> = roots.to_vec();
    let mut all: Vec<PathBuf> = Vec::new();
    while let Some(p) = stack.pop() {
        let meta = std::fs::metadata(&p)?;
        if meta.is_dir() {
            let skip = p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n == "target" || n == "fixtures" || n.starts_with('.'));
            if skip {
                continue;
            }
            for entry in std::fs::read_dir(&p)? {
                stack.push(entry?.path());
            }
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            all.push(p);
        }
    }
    all.sort();
    for p in all {
        let src = std::fs::read_to_string(&p)?;
        violations.extend(lint_source(&p, &src));
        files += 1;
    }
    Ok((violations, files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(s: &str) -> Vec<Violation> {
        lint_source(Path::new("somewhere/else.rs"), s)
    }

    #[test]
    fn strip_removes_comments_and_strings() {
        let src = "let x = \"unsafe Relaxed\"; // unsafe Relaxed\n/* unsafe */ let y = 1;";
        let lines = strip_noncode(src);
        assert!(!lines[0].contains("unsafe"));
        assert!(!lines[0].contains("Relaxed"));
        assert!(lines[1].contains("let y = 1;"));
        assert!(!lines[1].contains("unsafe"));
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let src = "let s = r#\"unsafe \"# ; fn f<'a>(x: &'a u8) -> &'a u8 { x }";
        let joined = strip_noncode(src).join("\n");
        assert!(!joined.contains("unsafe"));
        assert!(joined.contains("fn f<'a>"));
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let v = lint_str("fn f() {\n    unsafe { danger() };\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MissingSafety);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_ok() {
        let v = lint_str("fn f() {\n    // SAFETY: fine because reasons.\n    unsafe { ok() };\n}");
        assert!(v.is_empty());
    }

    #[test]
    fn unsafe_fn_with_doc_safety_ok() {
        let v = lint_str(
            "/// Does a thing.\n///\n/// # Safety\n/// Caller must uphold X.\npub unsafe fn g() {}\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn safety_does_not_reach_across_statements() {
        let v = lint_str(
            "// SAFETY: covers only the next site.\nlet a = 1;\nlet b = 2;\nlet c = 3;\nunsafe { far() };\n",
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn relaxed_flagged_outside_allowlist() {
        let v = lint_str("use std::x;\na.load(Ordering::Relaxed);\n");
        assert!(v.iter().any(|v| v.rule == Rule::RelaxedOutsideAllowlist));
    }

    #[test]
    fn relaxed_ok_in_allowlisted_file() {
        let v = lint_source(
            Path::new("crates/rcuarray/src/element.rs"),
            "a.load(Ordering::Relaxed);\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn bare_atomic_import_flagged() {
        let v = lint_str("use std::sync::atomic::AtomicUsize;\n");
        assert!(v.iter().any(|v| v.rule == Rule::BareSyncPrimitive));
    }

    #[test]
    fn facade_import_ok() {
        let v = lint_str("use rcuarray_analysis::atomic::AtomicUsize;\n");
        assert!(v.is_empty());
    }

    #[test]
    fn word_boundaries_respected() {
        // `RelaxedFoo` is not `Relaxed`.
        let v = lint_str("call(RelaxedFoo);\nlet not_unsafe_name = 1;\n");
        assert!(v.is_empty());
    }

    #[test]
    fn bare_counter_flagged_in_instrumented_crate() {
        let v = lint_source(
            Path::new("crates/ebr/src/new_module.rs"),
            "self.hits.fetch_add(1, Ordering::Relaxed);\n",
        );
        assert!(v.iter().any(|v| v.rule == Rule::BareCounterOutsideObs));
    }

    #[test]
    fn bare_counter_ok_on_audited_site() {
        let v = lint_source(
            Path::new("crates/qsbr/src/domain.rs"),
            "self.ticks.fetch_add(1, Ordering::Relaxed);\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::BareCounterOutsideObs));
    }

    #[test]
    fn bare_counter_ok_outside_instrumented_crates() {
        let v = lint_source(
            Path::new("crates/collections/src/dist_table.rs"),
            "self.len.fetch_add(1, Ordering::Relaxed);\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::BareCounterOutsideObs));
    }

    #[test]
    fn scheme_flag_flagged_outside_reclaim_core() {
        let v = lint_source(
            Path::new("crates/rcuarray/src/array.rs"),
            "if S::IS_QSBR {\n    domain.defer(f);\n}\n",
        );
        assert!(v.iter().any(|v| v.rule == Rule::SchemeFlagBranching));
    }

    #[test]
    fn scheme_flag_ok_inside_reclaim_core() {
        let v = lint_source(
            Path::new("crates/reclaim/src/lib.rs"),
            "const IS_QSBR: bool = false;\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::SchemeFlagBranching));
    }

    #[test]
    fn scheme_flag_word_boundary_respected() {
        // Prose-like identifiers containing the token as a substring are
        // not the flag pattern.
        let v = lint_str("let this_is_qsbr_adjacent = 1;\ncall(MY_IS_QSBR_X);\n");
        assert!(!v.iter().any(|v| v.rule == Rule::SchemeFlagBranching));
    }

    #[test]
    fn guard_across_sleep_flagged_in_instrumented_crate() {
        let v = lint_source(
            Path::new("crates/qsbr/src/new_module.rs"),
            "fn f(d: &D) {\n    let g = d.read_lock();\n    std::thread::sleep(t);\n}\n",
        );
        assert_eq!(
            v.iter()
                .filter(|v| v.rule == Rule::GuardAcrossBlocking)
                .count(),
            1
        );
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn guard_dropped_before_blocking_ok() {
        let v = lint_source(
            Path::new("crates/ebr/src/new_module.rs"),
            "fn f(z: &Z) {\n    {\n        let g = z.read_lock();\n        use_it(&g);\n    }\n    handle.join().unwrap();\n}\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::GuardAcrossBlocking));
    }

    #[test]
    fn blocking_without_guard_ok() {
        let v = lint_source(
            Path::new("crates/rcuarray/src/new_module.rs"),
            "fn f() {\n    std::thread::sleep(t);\n    worker.join().unwrap();\n}\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::GuardAcrossBlocking));
    }

    #[test]
    fn guard_across_blocking_ignored_in_test_modules() {
        let v = lint_source(
            Path::new("crates/qsbr/src/new_module.rs"),
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(d: &D) {\n        let g = d.read_lock();\n        std::thread::sleep(t);\n    }\n}\n",
        );
        assert!(
            !v.iter().any(|v| v.rule == Rule::GuardAcrossBlocking),
            "tests stall readers on purpose"
        );
    }

    #[test]
    fn guard_across_blocking_not_enforced_outside_instrumented_crates() {
        let v = lint_source(
            Path::new("crates/model/src/whatever.rs"),
            "fn f(d: &D) {\n    let g = d.read_lock();\n    std::thread::sleep(t);\n}\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::GuardAcrossBlocking));
    }

    #[test]
    fn pin_binding_across_park_flagged() {
        let v = lint_source(
            Path::new("crates/ebr/src/new_module.rs"),
            "fn f(z: &Zone) {\n    let t = z.pin();\n    std::thread::park();\n}\n",
        );
        assert!(v.iter().any(|v| v.rule == Rule::GuardAcrossBlocking));
    }

    #[test]
    fn forget_of_guard_binding_flagged() {
        let v = lint_str(
            "fn f(z: &Zone) {\n    let ticket = z.pin();\n    std::mem::forget(ticket);\n}\n",
        );
        let hits: Vec<_> = v.iter().filter(|v| v.rule == Rule::ForgetGuard).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].msg.contains("ticket"), "{}", hits[0].msg);
    }

    #[test]
    fn manually_drop_of_guard_binding_flagged() {
        let v = lint_str(
            "fn f(d: &D) {\n    let mut g = d.read_lock();\n    let held = ManuallyDrop::new(g);\n}\n",
        );
        assert!(v.iter().any(|v| v.rule == Rule::ForgetGuard));
    }

    #[test]
    fn forget_of_non_guard_value_ok() {
        // `Retired::leak` forgets its *closure*, not a guard binding.
        let v = lint_str(
            "fn leak(self) {\n    let g = d.read_lock();\n    drop(g);\n    std::mem::forget(self.run);\n}\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::ForgetGuard));
    }

    #[test]
    fn forget_after_guard_scope_closed_ok() {
        let v = lint_str(
            "fn f(z: &Zone, x: X) {\n    {\n        let t = z.pin();\n        use_it(&t);\n    }\n    std::mem::forget(x);\n}\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::ForgetGuard));
    }

    #[test]
    fn forget_guard_ignored_in_test_modules() {
        let v = lint_str(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(z: &Zone) {\n        let t = z.pin();\n        std::mem::forget(t);\n    }\n}\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::ForgetGuard));
    }

    #[test]
    fn forget_guard_shadowed_name_word_boundary() {
        // `ticket2` is not `ticket`.
        let v = lint_str(
            "fn f(z: &Zone, ticket2: X) {\n    let ticket = z.pin();\n    std::mem::forget(ticket2);\n}\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::ForgetGuard));
    }

    #[test]
    fn unbounded_ctors_flagged_in_service_crate() {
        for src in [
            "let (tx, rx) = mpsc::channel();\n",
            "let (tx, rx) = crossbeam_channel::unbounded();\n",
            "let buf = VecDeque::new();\n",
            "let buf: LinkedList<u32> = LinkedList::new();\n",
            "let q = SegQueue::new();\n",
        ] {
            let v = lint_source(Path::new("crates/service/src/new_module.rs"), src);
            assert_eq!(
                v.iter().filter(|v| v.rule == Rule::UnboundedQueue).count(),
                1,
                "expected exactly one unbounded-queue hit for {src:?}"
            );
        }
    }

    #[test]
    fn bounded_constructions_ok_in_service_crate() {
        let v = lint_source(
            Path::new("crates/service/src/queue.rs"),
            "let buf = VecDeque::with_capacity(cap);\nlet q = BoundedQueue::with_capacity(cap);\nfn pop_unbounded() {}\npop_unbounded();\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::UnboundedQueue));
    }

    #[test]
    fn unbounded_ctors_not_enforced_outside_service_crate() {
        let v = lint_source(
            Path::new("crates/collections/src/dist_table.rs"),
            "let (tx, rx) = mpsc::channel();\nlet buf = VecDeque::new();\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::UnboundedQueue));
    }

    #[test]
    fn raw_comm_calls_flagged_outside_runtime() {
        for src in [
            "cluster.comm().record_get(from, to, 8)?;\n",
            "comm.record_put(from, to, bytes).unwrap();\n",
            "let _ = comm.record_on(from, home);\n",
            "comm.record_local(here);\n",
            "comm.record_retry(here);\n",
        ] {
            let v = lint_source(Path::new("crates/collections/src/dist_vector.rs"), src);
            assert_eq!(
                v.iter().filter(|v| v.rule == Rule::RawComm).count(),
                1,
                "expected exactly one raw-comm hit for {src:?}"
            );
        }
    }

    #[test]
    fn raw_comm_ok_inside_runtime() {
        let v = lint_source(
            Path::new("crates/runtime/src/lib.rs"),
            "self.comm.record_get(from, owner, bytes)\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::RawComm));
    }

    #[test]
    fn raw_comm_word_boundary_respected() {
        // `record_gets` / prose-like identifiers are not the charging calls,
        // and mentions in strings or comments are stripped before matching.
        let v = lint_str(
            "let record_gets = stats.gets;\n// record_put is runtime-internal\nlet s = \"record_on\";\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::RawComm));
    }

    #[test]
    fn raw_placement_flagged_in_rcuarray_outside_placement_map() {
        for src in [
            "let home = cursor.take();\nlet next = home.next_round_robin(n);\n",
            "let cursor = RoundRobinCounter::new(n);\n",
        ] {
            let v = lint_source(Path::new("crates/rcuarray/src/array.rs"), src);
            assert_eq!(
                v.iter().filter(|v| v.rule == Rule::RawPlacement).count(),
                1,
                "expected exactly one raw-placement hit for {src:?}"
            );
        }
    }

    #[test]
    fn raw_placement_ok_inside_placement_map() {
        let v = lint_source(
            Path::new("crates/rcuarray/src/placement.rs"),
            "let cursor = RoundRobinCounter::new(n);\nlet next = home.next_round_robin(n);\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::RawPlacement));
    }

    #[test]
    fn raw_placement_not_enforced_outside_rcuarray() {
        // The runtime defines the counter; collections use their own
        // spreading logic — rule 10 scopes to crates/rcuarray only.
        let v = lint_source(
            Path::new("crates/runtime/src/dist.rs"),
            "pub struct RoundRobinCounter { next: AtomicU32 }\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::RawPlacement));
    }

    #[test]
    fn raw_placement_word_boundary_respected() {
        let v = lint_source(
            Path::new("crates/rcuarray/src/array.rs"),
            "let my_next_round_robin_ish = 1;\ncall(XRoundRobinCounterY);\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::RawPlacement));
    }

    /// Every allowlist entry names a file or directory that exists: a
    /// stale entry silently exempts whatever later lands at that path.
    #[test]
    fn allowlist_paths_exist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let lists: [(&str, &[&str]); 9] = [
            ("RELAXED_ALLOWLIST", RELAXED_ALLOWLIST),
            ("INSTRUMENTED_CRATES", INSTRUMENTED_CRATES),
            ("COUNTER_ALLOWLIST", COUNTER_ALLOWLIST),
            ("BOUNDED_QUEUE_CRATES", BOUNDED_QUEUE_CRATES),
            ("RAW_COMM_ALLOWLIST", RAW_COMM_ALLOWLIST),
            ("PLACEMENT_CRATES", PLACEMENT_CRATES),
            ("PLACEMENT_ALLOWLIST", PLACEMENT_ALLOWLIST),
            ("SCHEME_FLAG_ALLOWLIST", SCHEME_FLAG_ALLOWLIST),
            ("SYNC_ALLOWLIST", SYNC_ALLOWLIST),
        ];
        let stale: Vec<String> = lists
            .iter()
            .flat_map(|(name, list)| list.iter().map(move |p| (name, p)))
            .filter(|(_, p)| !root.join(p).exists())
            .map(|(name, p)| format!("{name}: {p}"))
            .collect();
        assert!(stale.is_empty(), "stale allowlist entries: {stale:?}");
    }

    #[test]
    fn non_relaxed_fetch_add_not_a_counter() {
        // AcqRel fetch_add is synchronization, not statistics; rule 4
        // only targets relaxed tallies.
        let v = lint_source(
            Path::new("crates/ebr/src/new_module.rs"),
            "self.seq.fetch_add(1, Ordering::AcqRel);\n",
        );
        assert!(!v.iter().any(|v| v.rule == Rule::BareCounterOutsideObs));
    }
}
