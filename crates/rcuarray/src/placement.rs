//! Replicated block placement: the availability layer's map from logical
//! blocks to locales (DESIGN.md §15).
//!
//! The paper homes every block on exactly one locale (round-robin, §VI).
//! This module generalizes that decision into a *placement map*: each
//! logical block owns a [`BlockGroup`] — the snapshot ("primary") block
//! plus `replication_factor - 1` replica blocks on distinct locales. All
//! home selection in the crate happens here (enforced by lint rule 10
//! `raw-placement`): the round-robin cursor moved out of `array.rs`, and
//! with `replication_factor == 1` the plans it produces are bit-identical
//! to the paper's original sequence.
//!
//! Invariants:
//!
//! * **Entry 0 is pinned.** The first entry of every group is the block
//!   the snapshots reference. It is never replaced — that is Lemma 6:
//!   references obtained from any snapshot stay valid forever. Repair
//!   only ever swaps *replica* entries (index ≥ 1).
//! * **Groups are append-only under the write lock** (one per logical
//!   block, in block order) and truncated only by resize rollback,
//!   mirroring the snapshot prefix property.
//! * **Replica writes are lag-accounted, not synchronously charged.** A
//!   fanned-out store lands immediately (blocks are shared memory in the
//!   simulation) but its communication charge is deferred into a
//!   per-locale lag ledger, drained at QSBR checkpoints or when the lag
//!   passes the pressure watermark — the "primary-ack, bounded replica
//!   lag" contract.

use crate::block::BlockRef;
use crate::element::Element;
use rcuarray_analysis::atomic::{AtomicU64, Ordering};
use rcuarray_analysis::sync::Mutex;
use rcuarray_runtime::{
    CommError, LocaleId, Membership, MembershipView, OpKind, RoundRobinCounter,
};

/// The placement of one logical block: the snapshot block first (pinned,
/// Lemma 6), then `replication_factor - 1` replica blocks on distinct
/// locales.
pub struct BlockGroup<T: Element> {
    /// `(home locale, block)` per copy; `entries[0]` is the snapshot
    /// block and is never replaced.
    pub entries: Vec<(LocaleId, BlockRef<T>)>,
}

impl<T: Element> BlockGroup<T> {
    /// The locale the snapshot block lives on.
    #[inline]
    pub fn primary_home(&self) -> LocaleId {
        self.entries[0].0
    }

    /// True when some copy of this group is homed on `locale`.
    pub fn hosts(&self, locale: LocaleId) -> bool {
        self.entries.iter().any(|(l, _)| *l == locale)
    }

    /// Replica entries (everything but the pinned snapshot block).
    #[inline]
    pub fn replicas(&self) -> &[(LocaleId, BlockRef<T>)] {
        &self.entries[1..]
    }

    /// Where repair homes the fresh replica for a copy stranded on
    /// `dead`: the first `Up` locale past it (round-robin order) not
    /// already hosting a copy of this group. `None` means no spare
    /// locale exists and the group stays under-replicated — degraded,
    /// not corrupted.
    pub fn repair_target(&self, dead: LocaleId, membership: &Membership) -> Option<LocaleId> {
        let n = membership.num_locales();
        let mut target = dead.next_round_robin(n);
        for _ in 0..n {
            if membership.is_up(target) && !self.hosts(target) {
                return Some(target);
            }
            target = target.next_round_robin(n);
        }
        None
    }
}

impl<T: Element> std::fmt::Debug for BlockGroup<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockGroup")
            .field(
                "homes",
                &self.entries.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// A home assignment for a run of new blocks, computed against one
/// membership view. Produced by [`PlacementMap::plan_homes`]; the cursor
/// only advances when the resize that used the plan succeeds
/// ([`PlacementMap::commit_cursor`]), preserving the paper's
/// Algorithm 3 line 28 semantics under rollback.
pub struct PlacementPlan {
    /// Per new block: the home locales, primary first, all distinct.
    pub homes: Vec<Vec<LocaleId>>,
    final_cursor: LocaleId,
}

/// The crate's single source of block-home decisions plus the replica
/// ledger. One per array, shared across locales.
pub struct PlacementMap<T: Element> {
    rf: usize,
    num_locales: usize,
    /// The paper's `locId` cursor (Algorithm 3), moved here from the
    /// array so every locale-indexed placement decision is in one place.
    cursor: RoundRobinCounter,
    groups: Mutex<Vec<BlockGroup<T>>>,
    /// Deferred replica-write charges, bytes per destination locale.
    lag: Vec<AtomicU64>,
    lag_total: AtomicU64,
}

impl<T: Element> PlacementMap<T> {
    /// An empty map for `num_locales` locales at replication factor `rf`
    /// (total copies, including the primary).
    pub fn new(rf: usize, num_locales: usize) -> Self {
        assert!(rf >= 1, "replication factor counts the primary");
        assert!(
            rf <= num_locales,
            "replication_factor ({rf}) cannot exceed the locale count \
             ({num_locales}): copies must live on distinct locales"
        );
        PlacementMap {
            rf,
            num_locales,
            cursor: RoundRobinCounter::new(num_locales),
            groups: Mutex::new(Vec::new()),
            lag: (0..num_locales).map(|_| AtomicU64::new(0)).collect(),
            lag_total: AtomicU64::new(0),
        }
    }

    /// Total copies per block, including the primary.
    #[inline]
    pub fn replication_factor(&self) -> usize {
        self.rf
    }

    /// True when blocks carry replicas (`rf > 1`); the array's hot paths
    /// gate every availability branch on this so `rf == 1` stays the
    /// paper's exact code path.
    #[inline]
    pub fn is_replicated(&self) -> bool {
        self.rf > 1
    }

    /// Number of placed logical blocks.
    pub fn num_groups(&self) -> usize {
        self.groups.lock().len()
    }

    /// Plan homes for `nblocks` new logical blocks against `view`:
    /// primaries round-robin from the cursor over in-view locales, each
    /// followed by `rf - 1` distinct in-view replica homes. Fails with
    /// [`CommError::LocaleDown`] when fewer than `rf` locales are in
    /// view. Does not advance the cursor — call
    /// [`commit_cursor`](Self::commit_cursor) once the resize publishes.
    pub fn plan_homes(
        &self,
        nblocks: usize,
        view: &MembershipView,
    ) -> Result<PlacementPlan, CommError> {
        let n = self.num_locales;
        let eligible = (0..n)
            .filter(|&i| view.in_view(LocaleId::new(i as u32)))
            .count();
        if eligible < self.rf {
            // Not enough live homes for the requested copies; the first
            // non-member is as good a culprit as any for the report.
            let culprit = (0..n)
                .map(|i| LocaleId::new(i as u32))
                .find(|l| !view.in_view(*l))
                .unwrap_or(LocaleId::ZERO);
            return Err(CommError::LocaleDown {
                op: OpKind::Put,
                locale: culprit,
            });
        }
        let mut cur = self.cursor.peek();
        let mut homes = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            // First in-view locale at or after the cursor becomes the
            // primary; with every locale in view this is exactly the
            // paper's round-robin.
            while !view.in_view(cur) {
                cur = cur.next_round_robin(n);
            }
            let primary = cur;
            cur = cur.next_round_robin(n);
            let mut group = Vec::with_capacity(self.rf);
            group.push(primary);
            let mut scan = primary;
            while group.len() < self.rf {
                scan = scan.next_round_robin(n);
                if view.in_view(scan) && !group.contains(&scan) {
                    group.push(scan);
                }
            }
            homes.push(group);
        }
        Ok(PlacementPlan {
            homes,
            final_cursor: cur,
        })
    }

    /// Store the cursor position a successful resize ended on (paper
    /// Algorithm 3 line 28). Skipped on rollback, so an aborted resize
    /// leaves placement untouched.
    pub fn commit_cursor(&self, plan: &PlacementPlan) {
        self.cursor.set(plan.final_cursor);
    }

    /// Append the group for the next logical block (under the array's
    /// write lock, in block order).
    pub fn append_group(&self, entries: Vec<(LocaleId, BlockRef<T>)>) {
        debug_assert_eq!(entries.len(), self.rf, "one entry per copy");
        self.groups.lock().push(BlockGroup { entries });
    }

    /// Drop groups past `keep` (resize rollback), mirroring
    /// the snapshot prefix that survives.
    pub fn truncate(&self, keep: usize) {
        let mut g = self.groups.lock();
        if g.len() > keep {
            g.truncate(keep);
        }
    }

    /// Run `f` with the group list locked. Write fan-out, repair and
    /// catch-up all funnel through this one lock, which is what makes
    /// "copy then swap" repair atomic with respect to concurrent
    /// replica stores (no lost updates on a freshly copied replica).
    pub(crate) fn with_groups<R>(&self, f: impl FnOnce(&mut Vec<BlockGroup<T>>) -> R) -> R {
        f(&mut self.groups.lock())
    }

    /// A live copy of `block_idx` to serve a read whose primary home is
    /// not `Up`: the first replica on an `Up` locale, else the first on
    /// an in-view (Suspect) locale. `None` means every replica home is
    /// out too — the caller degrades to the local snapshot, exactly the
    /// pre-replication behavior.
    pub fn failover_target(
        &self,
        block_idx: usize,
        membership: &Membership,
    ) -> Option<(LocaleId, BlockRef<T>)> {
        let groups = self.groups.lock();
        let group = groups.get(block_idx)?;
        let view = membership.view();
        group
            .replicas()
            .iter()
            .find(|(l, _)| membership.is_up(*l))
            .or_else(|| group.replicas().iter().find(|(l, _)| view.in_view(*l)))
            .copied()
    }

    /// Record `bytes` of deferred replica-write charge destined for
    /// `locale`. Returns the new total outstanding lag.
    pub fn add_lag(&self, locale: LocaleId, bytes: u64) -> u64 {
        self.lag[locale.index()].fetch_add(bytes, Ordering::Relaxed);
        self.lag_total.fetch_add(bytes, Ordering::Relaxed) + bytes
    }

    /// Outstanding replica-write charge not yet drained.
    pub fn lag_bytes(&self) -> u64 {
        self.lag_total.load(Ordering::Relaxed)
    }

    /// Take the whole lag ledger for draining: `(locale, bytes)` for
    /// every locale with outstanding charge, zeroing the ledger.
    pub fn take_lag(&self) -> Vec<(LocaleId, u64)> {
        let mut out = Vec::new();
        for (i, slot) in self.lag.iter().enumerate() {
            let bytes = slot.swap(0, Ordering::Relaxed);
            if bytes > 0 {
                self.lag_total.fetch_sub(bytes, Ordering::Relaxed);
                out.push((LocaleId::new(i as u32), bytes));
            }
        }
        out
    }
}

impl<T: Element> std::fmt::Debug for PlacementMap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementMap")
            .field("replication_factor", &self.rf)
            .field("groups", &self.num_groups())
            .field("lag_bytes", &self.lag_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockRegistry};

    fn view_all_up(n: usize) -> MembershipView {
        Membership::new(n).view()
    }

    fn view_with_down(n: usize, down: u32) -> (Membership, MembershipView) {
        let m = Membership::new(n);
        let l = LocaleId::new(down);
        for _ in 0..2 {
            m.record_probe(l, false);
        }
        let v = m.view();
        (m, v)
    }

    #[test]
    fn rf1_plans_reproduce_the_papers_round_robin() {
        let map: PlacementMap<u64> = PlacementMap::new(1, 3);
        let plan = map.plan_homes(4, &view_all_up(3)).unwrap();
        let primaries: Vec<u32> = plan.homes.iter().map(|g| g[0].raw()).collect();
        assert_eq!(primaries, vec![0, 1, 2, 0]);
        map.commit_cursor(&plan);
        let next = map.plan_homes(2, &view_all_up(3)).unwrap();
        let primaries: Vec<u32> = next.homes.iter().map(|g| g[0].raw()).collect();
        assert_eq!(
            primaries,
            vec![1, 2],
            "cursor resumes where the last resize ended"
        );
    }

    #[test]
    fn uncommitted_plans_leave_the_cursor_alone() {
        let map: PlacementMap<u64> = PlacementMap::new(1, 3);
        let _abandoned = map.plan_homes(2, &view_all_up(3)).unwrap();
        let plan = map.plan_homes(1, &view_all_up(3)).unwrap();
        assert_eq!(
            plan.homes[0][0],
            LocaleId::new(0),
            "rollback keeps the cursor"
        );
    }

    #[test]
    fn replicas_land_on_distinct_in_view_locales() {
        let map: PlacementMap<u64> = PlacementMap::new(2, 3);
        let plan = map.plan_homes(3, &view_all_up(3)).unwrap();
        for g in &plan.homes {
            assert_eq!(g.len(), 2);
            assert_ne!(g[0], g[1], "copies must live on distinct locales");
        }
        assert_eq!(plan.homes[0], vec![LocaleId::new(0), LocaleId::new(1)]);
        assert_eq!(plan.homes[1], vec![LocaleId::new(1), LocaleId::new(2)]);
    }

    #[test]
    fn down_locales_are_skipped_by_the_plan() {
        let (_m, view) = view_with_down(3, 1);
        let map: PlacementMap<u64> = PlacementMap::new(2, 3);
        let plan = map.plan_homes(2, &view).unwrap();
        for g in &plan.homes {
            assert!(
                !g.contains(&LocaleId::new(1)),
                "down locale must host nothing"
            );
        }
    }

    #[test]
    fn too_few_members_for_rf_is_locale_down() {
        let (_m, view) = view_with_down(2, 1);
        let map: PlacementMap<u64> = PlacementMap::new(2, 2);
        assert!(matches!(
            map.plan_homes(1, &view),
            Err(CommError::LocaleDown { .. })
        ));
    }

    #[test]
    fn failover_prefers_up_replicas_and_degrades_to_none() {
        let reg: BlockRegistry<u64> = BlockRegistry::new();
        let map: PlacementMap<u64> = PlacementMap::new(2, 3);
        let primary = reg.adopt(Block::new(LocaleId::new(0), 4));
        let replica = reg.adopt(Block::new(LocaleId::new(1), 4));
        map.append_group(vec![
            (LocaleId::new(0), primary),
            (LocaleId::new(1), replica),
        ]);

        let m = Membership::new(3);
        let (loc, bref) = map.failover_target(0, &m).expect("replica is up");
        assert_eq!(loc, LocaleId::new(1));
        assert_eq!(bref.as_ptr(), replica.as_ptr());

        // Replica down too: nothing to fail over to.
        for _ in 0..2 {
            m.record_probe(LocaleId::new(1), false);
        }
        assert!(map.failover_target(0, &m).is_none());
        // Out-of-range block: no group, no target.
        assert!(map.failover_target(9, &m).is_none());
    }

    #[test]
    fn lag_ledger_accumulates_and_drains_to_zero() {
        let map: PlacementMap<u64> = PlacementMap::new(2, 2);
        assert_eq!(map.add_lag(LocaleId::new(1), 64), 64);
        assert_eq!(map.add_lag(LocaleId::new(1), 64), 128);
        assert_eq!(map.add_lag(LocaleId::new(0), 8), 136);
        assert_eq!(map.lag_bytes(), 136);
        let mut drained = map.take_lag();
        drained.sort_by_key(|(l, _)| l.index());
        assert_eq!(
            drained,
            vec![(LocaleId::new(0), 8), (LocaleId::new(1), 128)]
        );
        assert_eq!(map.lag_bytes(), 0);
        assert!(map.take_lag().is_empty(), "ledger drains exactly once");
    }

    #[test]
    fn truncate_drops_rolled_back_groups_only() {
        let reg: BlockRegistry<u64> = BlockRegistry::new();
        let map: PlacementMap<u64> = PlacementMap::new(1, 2);
        for i in 0..3u32 {
            let b = reg.adopt(Block::new(LocaleId::new(i % 2), 4));
            map.append_group(vec![(LocaleId::new(i % 2), b)]);
        }
        map.truncate(2);
        assert_eq!(map.num_groups(), 2);
        map.truncate(5);
        assert_eq!(map.num_groups(), 2, "truncate never grows");
    }

    #[test]
    #[should_panic(expected = "distinct locales")]
    fn rf_beyond_cluster_size_rejected() {
        let _: PlacementMap<u64> = PlacementMap::new(3, 2);
    }
}
