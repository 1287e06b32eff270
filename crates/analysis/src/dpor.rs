//! Source-DPOR exploration for the deterministic checker.
//!
//! [`Policy::Dpor`](crate::sched::Policy::Dpor) replaces seeded sampling
//! with systematic exploration of the Mazurkiewicz trace space: two
//! executions are equivalent iff they order every pair of *dependent*
//! operations (same location, at least one write — see
//! `checker::dependent`) the same way, and the explorer aims to execute
//! exactly one representative per equivalence class.
//!
//! The loop (Flanagan–Godefroid persistent sets + Godefroid sleep sets):
//!
//! 1. Run the program once under a forced schedule prefix (empty for the
//!    first run) with a deterministic round-robin default past the
//!    prefix; the engine records a trace: `(thread, op, enabled set)`
//!    per scheduling step.
//! 2. Replay the trace through *dependence clocks* — vector clocks that
//!    track only program order, spawn/join edges, and same-location
//!    conflicts. Unlike the checker's synchronization clocks (where a
//!    `SeqCst` op orders against every other through the SC clock — true
//!    for memory semantics, fatal for exploration), dependence clocks
//!    leave differently-located operations unordered, so each dependent
//!    pair that executed back-to-back-unordered becomes a *backtrack
//!    point*: at the earlier step's node, the later op's thread must also
//!    be tried.
//! 3. Pick the deepest node with an untried backtrack thread, force the
//!    schedule prefix up to it plus that thread, and carry a *sleep set*:
//!    the choices already explored from that node. A sleeping thread is
//!    skipped by default picks until some executed op is dependent with
//!    its recorded next op (the wake rule); an execution whose enabled
//!    threads are all asleep is aborted as redundant.
//! 4. Stop when no untried branch remains (`complete`) or the execution
//!    budget (`Config::iterations`) is spent (`remaining` > 0).
//!
//! An optional preemption bound skips branches whose forced prefix would
//! exceed the bound; skipped branches are counted, never silently lost.
//!
//! Failing schedules are shrunk by `minimize` (shortest failing prefix
//! by bisection, then ddmin-style chunk deletion, every candidate
//! re-validated by a forced replay) and serialized with
//! [`serialize_schedule`] into the form [`Checker::replay`] accepts.
//!
//! [`Checker::replay`]: crate::checker::Checker::replay

use std::collections::{BTreeSet, HashMap};

use crate::checker::{wakes, Op, SleepEntry, TraceStep};
use crate::clock::VectorClock;

/// Exploration accounting, reported as [`Report::dpor`].
///
/// [`Report::dpor`]: crate::checker::Report::dpor
#[derive(Clone, Debug, Default)]
pub struct DporReport {
    /// Executions actually run (including redundant-aborted ones).
    pub executions: usize,
    /// Branches provably redundant (sleep sets) or skipped by the
    /// preemption bound.
    pub pruned: usize,
    /// Untried backtrack branches left when exploration stopped; `0`
    /// with [`complete`](Self::complete) means the space was exhausted.
    pub remaining: usize,
    /// Exploration finished because no untried branch remained (rather
    /// than hitting the execution budget).
    pub complete: bool,
}

impl std::fmt::Display for DporReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dpor: {} execution(s), {} pruned, {} branch(es) remaining ({})",
            self.executions,
            self.pruned,
            self.remaining,
            if self.complete {
                "exhausted"
            } else {
                "budget-bounded"
            }
        )
    }
}

/// One planned execution: force this schedule prefix, then default
/// round-robin; `sleep` applies (wake rule included) from trace index
/// `sleep_from` on.
pub(crate) struct PlannedRun {
    pub(crate) schedule: Vec<usize>,
    pub(crate) sleep: Vec<SleepEntry>,
    pub(crate) sleep_from: usize,
}

/// One decision point along the currently-explored path.
struct Node {
    /// Thread executed here on the current path.
    choice: usize,
    /// The operation `choice` executed.
    op: Op,
    /// Enabled threads at the decision (fixed by the prefix: determinism
    /// makes it identical across runs sharing the prefix).
    enabled: Vec<usize>,
    /// Threads that must additionally be tried here (from dependence
    /// races in explored traces).
    backtrack: BTreeSet<usize>,
    /// Choices already explored from here, with the op each executed
    /// (they become the sleep set of later siblings).
    done: Vec<(usize, Op)>,
    /// Sleep set on entry to this node along the current path.
    sleep_entry: Vec<SleepEntry>,
    /// Backtrack candidates skipped (sleep-redundant or over the
    /// preemption bound) — never re-tried, counted in the report.
    pruned: BTreeSet<usize>,
    /// Location watermark before this step: ids below it are stable
    /// across executions sharing the prefix (see `checker::wakes`).
    watermark: usize,
}

/// Per-location dependence state while replaying a trace.
#[derive(Default)]
struct LocState {
    /// Last write: `(trace index, thread, thread-local clock at write)`.
    write: Option<(usize, usize, u64)>,
    write_clock: VectorClock,
    /// Reads since the last write.
    reads: Vec<(usize, usize, u64)>,
    read_clock: VectorClock,
}

/// The source-DPOR explorer: owns the node stack for the current path
/// and hands the checker one [`PlannedRun`] at a time.
pub(crate) struct Explorer {
    nodes: Vec<Node>,
    bound: Option<usize>,
    started: bool,
    executions: usize,
    pruned_sleep: usize,
    pruned_bound: usize,
    redundant_runs: usize,
    /// Branch point of the run in flight: `(node index, sleep handed to
    /// the engine)` — consumed by [`integrate`](Self::integrate).
    pending: Option<(usize, Vec<SleepEntry>)>,
}

impl Explorer {
    pub(crate) fn new(preemption_bound: Option<usize>) -> Self {
        Explorer {
            nodes: Vec::new(),
            bound: preemption_bound,
            started: false,
            executions: 0,
            pruned_sleep: 0,
            pruned_bound: 0,
            redundant_runs: 0,
            pending: None,
        }
    }

    /// The next execution to run, or `None` when every backtrack branch
    /// has been explored or pruned.
    pub(crate) fn next_run(&mut self) -> Option<PlannedRun> {
        if !self.started {
            self.started = true;
            return Some(PlannedRun {
                schedule: Vec::new(),
                sleep: Vec::new(),
                sleep_from: 0,
            });
        }
        for i in (0..self.nodes.len()).rev() {
            loop {
                let b = {
                    let n = &self.nodes[i];
                    n.backtrack
                        .iter()
                        .copied()
                        .find(|b| !n.done.iter().any(|e| e.0 == *b) && !n.pruned.contains(b))
                };
                let Some(b) = b else { break };
                // Prune only on *reliable* sleep entries: an op whose
                // location was stamped after the entry's own divergence
                // watermark may name a different object on this path, so
                // id-based matching can't be trusted — explore instead.
                let reliably_asleep = self.nodes[i]
                    .sleep_entry
                    .iter()
                    .any(|&(t, s, w)| t == b && (!s.kind.is_memory() || s.loc < w));
                if reliably_asleep {
                    // Its next op was already explored from an ancestor
                    // and nothing dependent ran since: provably redundant.
                    self.pruned_sleep += 1;
                    self.nodes[i].pruned.insert(b);
                    continue;
                }
                if let Some(bound) = self.bound {
                    if self.prefix_preemptions(i, b) > bound {
                        self.pruned_bound += 1;
                        self.nodes[i].pruned.insert(b);
                        continue;
                    }
                }
                // Commit to branch `b` at node `i`: previously explored
                // siblings go to sleep, the path below `i` is discarded.
                // Done entries originate here, so they carry this node's
                // watermark.
                let w = self.nodes[i].watermark;
                let sleep: Vec<SleepEntry> = self.nodes[i]
                    .sleep_entry
                    .iter()
                    .copied()
                    .chain(self.nodes[i].done.iter().map(|&(t, op)| (t, op, w)))
                    .collect();
                self.nodes[i].done.push((b, Op::NONE));
                self.nodes[i].choice = b;
                self.nodes.truncate(i + 1);
                let mut schedule: Vec<usize> = self.nodes[..i].iter().map(|n| n.choice).collect();
                schedule.push(b);
                self.pending = Some((i, sleep.clone()));
                return Some(PlannedRun {
                    schedule,
                    sleep,
                    sleep_from: i,
                });
            }
        }
        None
    }

    /// Preemptions in the forced prefix `choices[0..i] ++ [b]`: context
    /// switches away from a still-enabled thread. (The default scheduler
    /// past the prefix only preempts on yields, so the prefix dominates.)
    fn prefix_preemptions(&self, i: usize, b: usize) -> usize {
        let mut count = 0;
        for k in 1..=i {
            let prev = self.nodes[k - 1].choice;
            let cur = if k == i { b } else { self.nodes[k].choice };
            if cur != prev && self.nodes[k].enabled.contains(&prev) {
                count += 1;
            }
        }
        count
    }

    /// Fold an executed trace back in: extend the node stack, evolve
    /// sleep sets along the new path, and add backtrack points for every
    /// dependence race in the trace.
    pub(crate) fn integrate(&mut self, trace: &[TraceStep], redundant: bool) {
        self.executions += 1;
        if redundant {
            self.redundant_runs += 1;
        }
        let (start, mut cur_sleep) = match self.pending.take() {
            Some((i, sleep)) => (i, sleep),
            None => (0, Vec::new()),
        };
        // An aborted run can be shorter than the retained prefix.
        if self.nodes.len() > trace.len() {
            self.nodes.truncate(trace.len());
        }
        for (k, step) in trace.iter().enumerate().skip(start) {
            if k < self.nodes.len() {
                // The branch node: record the op the new choice executed.
                let n = &mut self.nodes[k];
                n.choice = step.thread;
                n.op = step.op;
                if let Some(e) = n.done.iter_mut().find(|e| e.0 == step.thread) {
                    e.1 = step.op;
                }
            } else {
                self.nodes.push(Node {
                    choice: step.thread,
                    op: step.op,
                    enabled: step.enabled.clone(),
                    backtrack: BTreeSet::new(),
                    done: vec![(step.thread, step.op)],
                    sleep_entry: cur_sleep.clone(),
                    pruned: BTreeSet::new(),
                    watermark: step.watermark,
                });
            }
            // Wake rule along the path: the next node's entry sleep.
            cur_sleep.retain(|&(_, s, w)| !wakes(s, w, step.op));
        }
        self.add_backtracks(trace);
    }

    fn add_backtracks(&mut self, trace: &[TraceStep]) {
        for (k1, k2) in dependence_races(trace) {
            let p2 = trace[k2].thread;
            if k1 >= self.nodes.len() {
                continue;
            }
            let n = &mut self.nodes[k1];
            if n.choice == p2 {
                continue;
            }
            if n.enabled.contains(&p2) {
                if !n.done.iter().any(|e| e.0 == p2) {
                    n.backtrack.insert(p2);
                }
            } else {
                // The racing thread was not yet schedulable here (e.g.
                // blocked): conservatively try every other enabled thread.
                let adds: Vec<usize> = n
                    .enabled
                    .iter()
                    .copied()
                    .filter(|&c| c != n.choice && !n.done.iter().any(|e| e.0 == c))
                    .collect();
                n.backtrack.extend(adds);
            }
        }
    }

    /// Untried (and unpruned) backtrack branches across the node stack.
    pub(crate) fn frontier(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                n.backtrack
                    .iter()
                    .filter(|b| !n.done.iter().any(|e| e.0 == **b) && !n.pruned.contains(b))
                    .count()
            })
            .sum()
    }

    pub(crate) fn stats(&self) -> DporReport {
        DporReport {
            executions: self.executions,
            pruned: self.pruned_sleep + self.pruned_bound + self.redundant_runs,
            remaining: self.frontier(),
            complete: false,
        }
    }
}

/// All dependent-and-unordered event pairs `(earlier, later)` of a
/// trace, under dependence clocks: program order, spawn/join edges, and
/// same-location conflict edges only.
fn dependence_races(trace: &[TraceStep]) -> Vec<(usize, usize)> {
    use crate::checker::OpKind;
    let mut clocks: Vec<VectorClock> = Vec::new();
    let mut locs: HashMap<usize, LocState> = HashMap::new();
    let mut races = Vec::new();
    let ensure = |clocks: &mut Vec<VectorClock>, t: usize| {
        if clocks.len() <= t {
            clocks.resize_with(t + 1, VectorClock::new);
        }
    };
    for (k, step) in trace.iter().enumerate() {
        let p = step.thread;
        ensure(&mut clocks, p);
        match step.op.kind {
            OpKind::Spawn => {
                clocks[p].tick(p);
                let child = step.op.loc;
                ensure(&mut clocks, child);
                clocks[child] = clocks[p].clone();
            }
            OpKind::Join => {
                clocks[p].tick(p);
                let target = step.op.loc;
                if target < clocks.len() {
                    let tc = clocks[target].clone();
                    clocks[p].join(&tc);
                }
            }
            OpKind::Step | OpKind::Yield => {
                clocks[p].tick(p);
            }
            OpKind::Load | OpKind::DataRead => {
                let at = clocks[p].tick(p);
                let ls = locs.entry(step.op.loc).or_default();
                if let Some((wi, wt, wat)) = ls.write {
                    if wt != p && clocks[p].get(wt) < wat {
                        races.push((wi, k));
                    }
                }
                clocks[p].join(&ls.write_clock);
                ls.reads.retain(|&(_, rt, _)| rt != p);
                ls.reads.push((k, p, at));
                ls.read_clock.join(&clocks[p]);
            }
            OpKind::Store | OpKind::Rmw | OpKind::DataWrite | OpKind::Sync => {
                let at = clocks[p].tick(p);
                let ls = locs.entry(step.op.loc).or_default();
                if let Some((wi, wt, wat)) = ls.write {
                    if wt != p && clocks[p].get(wt) < wat {
                        races.push((wi, k));
                    }
                }
                for &(ri, rt, rat) in &ls.reads {
                    if rt != p && clocks[p].get(rt) < rat {
                        races.push((ri, k));
                    }
                }
                clocks[p].join(&ls.write_clock);
                let rc = ls.read_clock.clone();
                clocks[p].join(&rc);
                ls.write_clock = clocks[p].clone();
                ls.read_clock.clear();
                ls.reads.clear();
                ls.write = Some((k, p, at));
            }
        }
    }
    races
}

// ---------------------------------------------------------------------------
// Schedule serialization + minimization
// ---------------------------------------------------------------------------

/// Serialize a schedule (thread index per step) as a run-length-encoded
/// string: `"0*3,1,0*2"` means thread 0 thrice, thread 1 once, thread 0
/// twice. The empty schedule serializes to `""` (replaying it runs the
/// deterministic default schedule).
pub fn serialize_schedule(schedule: &[usize]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < schedule.len() {
        let t = schedule[i];
        let mut n = 1;
        while i + n < schedule.len() && schedule[i + n] == t {
            n += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        if n == 1 {
            out.push_str(&t.to_string());
        } else {
            out.push_str(&format!("{t}*{n}"));
        }
        i += n;
    }
    out
}

/// Like [`serialize_schedule`] but truncated to `cap` steps (budget-abort
/// prefixes can be tens of thousands of steps long).
pub(crate) fn serialize_schedule_capped(schedule: &[usize], cap: usize) -> String {
    if schedule.len() <= cap {
        serialize_schedule(schedule)
    } else {
        format!(
            "{},… (+{} more steps)",
            serialize_schedule(&schedule[..cap]),
            schedule.len() - cap
        )
    }
}

/// Parse a schedule serialized by [`serialize_schedule`].
pub fn parse_schedule(s: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    if s.trim().is_empty() {
        return Ok(out);
    }
    for part in s.split(',') {
        let part = part.trim();
        let (t, n) = match part.split_once('*') {
            Some((t, n)) => (
                t.trim(),
                n.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("bad repeat count {n:?}: {e}"))?,
            ),
            None => (part, 1),
        };
        let t = t
            .parse::<usize>()
            .map_err(|e| format!("bad thread index {t:?}: {e}"))?;
        if n == 0 || n > 1_000_000 {
            return Err(format!("repeat count out of range: {n}"));
        }
        for _ in 0..n {
            out.push(t);
        }
    }
    Ok(out)
}

/// Shrink a failing schedule: find the shortest failing prefix by
/// bisection, then delete chunks ddmin-style, re-validating every
/// candidate with `fails` (a forced replay). Deterministic; bounded to
/// ~100 replays.
pub(crate) fn minimize(schedule: &[usize], fails: &dyn Fn(&[usize]) -> bool) -> Vec<usize> {
    const MAX_PROBES: usize = 96;
    let mut best = schedule.to_vec();
    let mut probes = 1;
    if !fails(&best) {
        // The truncated schedule alone doesn't reproduce (the failure
        // needed the default continuation in a way truncation broke):
        // report it unminimized rather than loop.
        return best;
    }
    // Shortest failing prefix (bisection; re-verified below since the
    // predicate need not be monotone).
    let mut lo = 0usize;
    let mut hi = best.len();
    while lo < hi && probes < MAX_PROBES {
        let mid = (lo + hi) / 2;
        probes += 1;
        if fails(&best[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if hi < best.len() && probes < MAX_PROBES {
        probes += 1;
        if fails(&best[..hi]) {
            best.truncate(hi);
        }
    }
    // ddmin-style chunk deletion.
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 && probes < MAX_PROBES && !best.is_empty() {
        let mut i = 0;
        while i + chunk <= best.len() && probes < MAX_PROBES {
            let mut cand = best.clone();
            cand.drain(i..i + chunk);
            probes += 1;
            if fails(&cand) {
                best = cand;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_roundtrip() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 0, 1, 0, 0, 2, 2],
            vec![5, 4, 3, 2, 1, 0],
            vec![1; 100],
        ];
        for sched in cases {
            let s = serialize_schedule(&sched);
            assert_eq!(parse_schedule(&s).unwrap(), sched, "via {s:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_schedule("a,b").is_err());
        assert!(parse_schedule("1*x").is_err());
        assert!(parse_schedule("1*0").is_err());
        assert!(parse_schedule("1*9999999999").is_err());
    }

    #[test]
    fn capped_serialization_notes_truncation() {
        let sched = vec![0; 10];
        let s = serialize_schedule_capped(&sched, 4);
        assert!(s.contains("more steps"), "{s}");
        assert_eq!(serialize_schedule_capped(&sched, 10), "0*10");
    }

    #[test]
    fn minimize_shrinks_to_the_failing_core() {
        // Fails iff the schedule contains the subsequence [1, 2].
        let fails = |s: &[usize]| {
            let mut saw1 = false;
            for &t in s {
                if t == 1 {
                    saw1 = true;
                } else if t == 2 && saw1 {
                    return true;
                }
            }
            false
        };
        let noisy: Vec<usize> = vec![0, 0, 3, 1, 0, 0, 3, 2, 0, 0, 0, 3];
        let min = minimize(&noisy, &fails);
        assert!(fails(&min));
        assert!(min.len() <= 2, "{min:?}");
    }

    #[test]
    fn minimize_keeps_non_reproducing_input() {
        let never = |_: &[usize]| false;
        let sched = vec![0, 1, 2];
        assert_eq!(minimize(&sched, &never), sched);
    }
}
