//! Discrete-event simulation core: virtual time, schedulable events, and
//! contended resources.
//!
//! Everything time-related in the simulator is built on this module. An
//! [`Engine`] keeps a virtual time frontier — the running max of every
//! scheduled operation's end, read by [`Engine::now`] — and owns a set of
//! [`ResourceId`]-addressed resources of two kinds:
//!
//! * **Serial** resources execute one operation at a time behind a cursor —
//!   CUDA streams and any other in-order queue. Scheduling on a serial
//!   resource starts at its cursor and advances it.
//! * **Shared** resources model contended hardware: the PCIe bus a host's
//!   devices all hang off, or the host CPU computing triangulation tables.
//!   An acquisition asks for `dur` seconds of *exclusive occupancy* from a
//!   ready time; already-committed grants are never altered, and the new
//!   grant drains through the free gaps of the occupancy profile (FIFO DMA
//!   arbitration with backfill). Two transfers issued for overlapping
//!   intervals therefore serialize instead of overlapping for free — the
//!   bug this module exists to fix — while an acquisition on an idle
//!   resource completes in exactly `ready + dur`, which is what keeps
//!   serial (`k = 1`) schedules bit-identical to the pre-engine model.
//!
//! Every scheduling decision can be journaled as an [`EventRecord`];
//! replaying the same plan on a fresh engine yields a bit-identical
//! journal, which is the property the resume/fault machinery leans on.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Generational handle to an engine resource. Freed handles are detected
/// (generation mismatch) and panic like a use-after-destroy of a
/// `cudaStream_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId {
    idx: u32,
    gen: u32,
}

/// One committed occupancy interval on a shared resource.
#[derive(Debug, Clone, Copy)]
struct Grant {
    start: f64,
    end: f64,
    owner: u64,
}

#[derive(Debug)]
enum ResourceKind {
    Serial {
        cursor: f64,
    },
    Shared {
        /// Sorted by start; pairwise disjoint (new grants only ever occupy
        /// free gaps).
        grants: Vec<Grant>,
        busy_by_owner: BTreeMap<u64, f64>,
    },
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    live: bool,
    /// Label shown by the engine's `Debug` output (`"host/pcie-h2d"`, …).
    name: String,
    kind: ResourceKind,
    /// Committed busy seconds (occupancy; waits excluded).
    busy_s: f64,
}

/// One journaled scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Issue order, engine-wide.
    pub seq: u64,
    /// Resource the operation ran on.
    pub resource: ResourceId,
    /// Operation label (`"h2d"`, `"kernel"`, …).
    pub label: &'static str,
    /// Engine-local actor tag (a host slot, *not* the global device id, so
    /// replays on fresh engines journal identically).
    pub owner: u64,
    /// When the operation first held the resource.
    pub start_s: f64,
    /// When it released it.
    pub end_s: f64,
}

#[derive(Debug, Default)]
struct EngineState {
    slots: Vec<Slot>,
    free_list: Vec<u32>,
    journal: Option<Vec<EventRecord>>,
    seq: u64,
}

/// The discrete-event engine: a virtual time frontier plus a set of
/// resources. One engine per [`crate::Host`]; every device on the host
/// schedules through it, so shared resources really are shared across
/// devices.
#[derive(Default)]
pub struct Engine {
    /// `f64::to_bits` of the frontier; for non-negative floats the integer
    /// order matches the numeric order, so `fetch_max` is a time max.
    frontier: AtomicU64,
    state: Mutex<EngineState>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Engine")
            .field("now", &self.now())
            .field(
                "resources",
                &st.slots
                    .iter()
                    .filter(|s| s.live)
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("seq", &st.seq)
            .finish()
    }
}

impl Engine {
    /// Engine at virtual time 0 with no resources.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Current virtual time: the frontier of everything scheduled so far.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.frontier.load(Ordering::Acquire))
    }

    /// Move the frontier to at least `t` (never backwards).
    fn advance_to(&self, t: f64) {
        debug_assert!(t >= 0.0, "virtual time is non-negative");
        self.frontier.fetch_max(t.to_bits(), Ordering::AcqRel);
    }

    fn insert(&self, name: &str, kind: ResourceKind) -> ResourceId {
        let mut st = self.state.lock();
        if let Some(idx) = st.free_list.pop() {
            let slot = &mut st.slots[idx as usize];
            slot.live = true;
            slot.name = name.to_string();
            slot.kind = kind;
            slot.busy_s = 0.0;
            ResourceId { idx, gen: slot.gen }
        } else {
            let idx = st.slots.len() as u32;
            st.slots.push(Slot {
                gen: 0,
                live: true,
                name: name.to_string(),
                kind,
                busy_s: 0.0,
            });
            ResourceId { idx, gen: 0 }
        }
    }

    /// Create a serial (in-order queue) resource with its cursor at 0.
    pub fn serial(&self, name: &str) -> ResourceId {
        self.insert(name, ResourceKind::Serial { cursor: 0.0 })
    }

    /// Create a shared (contended-occupancy) resource.
    pub fn shared(&self, name: &str) -> ResourceId {
        self.insert(
            name,
            ResourceKind::Shared {
                grants: Vec::new(),
                busy_by_owner: BTreeMap::new(),
            },
        )
    }

    /// Destroy a resource. Its handle — and any stale copy of it — becomes
    /// invalid; further use panics, like touching a destroyed stream.
    pub fn free(&self, id: ResourceId) {
        let mut st = self.state.lock();
        let slot = &mut st.slots[id.idx as usize];
        assert!(
            slot.live && slot.gen == id.gen,
            "double free / stale resource handle {:?}",
            id
        );
        slot.live = false;
        slot.gen += 1;
        slot.kind = ResourceKind::Serial { cursor: 0.0 };
        st.free_list.push(id.idx);
    }

    fn check(st: &mut EngineState, id: ResourceId) -> &mut Slot {
        let slot = &mut st.slots[id.idx as usize];
        assert!(
            slot.live && slot.gen == id.gen,
            "stale resource handle {:?} (resource was destroyed)",
            id
        );
        slot
    }

    fn journal_push(
        st: &mut EngineState,
        resource: ResourceId,
        label: &'static str,
        owner: u64,
        start_s: f64,
        end_s: f64,
    ) {
        st.seq += 1;
        let seq = st.seq;
        if let Some(j) = st.journal.as_mut() {
            j.push(EventRecord {
                seq,
                resource,
                label,
                owner,
                start_s,
                end_s,
            });
        }
    }

    /// Schedule `dur` seconds on a serial resource: starts at the cursor,
    /// advances it. Returns the `(start, end)` interval.
    pub fn serial_advance(
        &self,
        id: ResourceId,
        owner: u64,
        label: &'static str,
        dur: f64,
    ) -> (f64, f64) {
        let mut st = self.state.lock();
        let slot = Self::check(&mut st, id);
        let ResourceKind::Serial { cursor } = &mut slot.kind else {
            panic!("serial_advance on shared resource {:?}", id);
        };
        let start = *cursor;
        let end = start + dur;
        *cursor = end;
        slot.busy_s += dur;
        if dur > 0.0 {
            Self::journal_push(&mut st, id, label, owner, start, end);
        }
        drop(st);
        self.advance_to(end);
        (start, end)
    }

    /// Move a serial cursor forward to at least `t` (an event/dependency
    /// wait; charges nothing).
    pub fn serial_wait_until(&self, id: ResourceId, t: f64) {
        let mut st = self.state.lock();
        let slot = Self::check(&mut st, id);
        let ResourceKind::Serial { cursor } = &mut slot.kind else {
            panic!("serial_wait_until on shared resource {:?}", id);
        };
        if *cursor < t {
            *cursor = t;
        }
    }

    /// Set a serial cursor outright (stream creation joining the frontier,
    /// barriers, resets).
    pub fn serial_set(&self, id: ResourceId, t: f64) {
        let mut st = self.state.lock();
        let slot = Self::check(&mut st, id);
        let ResourceKind::Serial { cursor } = &mut slot.kind else {
            panic!("serial_set on shared resource {:?}", id);
        };
        *cursor = t;
    }

    /// A serial resource's cursor: when its last scheduled op ends.
    pub fn serial_cursor(&self, id: ResourceId) -> f64 {
        let mut st = self.state.lock();
        let slot = Self::check(&mut st, id);
        match &slot.kind {
            ResourceKind::Serial { cursor } => *cursor,
            _ => panic!("serial_cursor on shared resource {:?}", id),
        }
    }

    /// Acquire `dur` seconds of exclusive occupancy on a shared resource,
    /// no earlier than `ready`. Committed grants are immutable; the new
    /// grant drains through the free gaps of the occupancy profile (FIFO
    /// with backfill) and may be split across several gaps, like a DMA
    /// engine bursting whenever the bus is free. Returns `(start, end)`:
    /// first grab of the resource, and when the last second drains.
    ///
    /// On a resource that is idle from `ready` onwards this is exactly
    /// `(ready, ready + dur)` — the arithmetic, not an approximation of it —
    /// which keeps uncontended schedules bit-identical to the pre-engine
    /// per-stream cursor model.
    pub fn shared_acquire(
        &self,
        id: ResourceId,
        owner: u64,
        label: &'static str,
        ready: f64,
        dur: f64,
    ) -> (f64, f64) {
        if dur <= 0.0 {
            return (ready, ready);
        }
        let mut st = self.state.lock();
        let slot = Self::check(&mut st, id);
        let ResourceKind::Shared {
            grants,
            busy_by_owner,
        } = &mut slot.kind
        else {
            panic!("shared_acquire on serial resource {:?}", id);
        };
        // Fast path: nothing committed at or after `ready` — the exact
        // legacy arithmetic.
        let contended = grants.iter().any(|g| g.end > ready);
        let (start, end) = if !contended {
            let end = ready + dur;
            grants.push(Grant {
                start: ready,
                end,
                owner,
            });
            (ready, end)
        } else {
            // Drain through the free gaps, in start order.
            let mut chunks: Vec<(f64, f64)> = Vec::new();
            let mut t = ready;
            let mut rem = dur;
            for g in grants.iter().filter(|g| g.end > ready) {
                if g.start > t {
                    let take = rem.min(g.start - t);
                    chunks.push((t, t + take));
                    rem -= take;
                    if rem <= 0.0 {
                        break;
                    }
                }
                if g.end > t {
                    t = g.end;
                }
            }
            if rem > 0.0 {
                chunks.push((t, t + rem));
            }
            let start = chunks[0].0;
            let end = chunks.last().unwrap().1;
            grants.extend(chunks.into_iter().map(|(s, e)| Grant {
                start: s,
                end: e,
                owner,
            }));
            grants.sort_by(|a, b| a.start.total_cmp(&b.start));
            (start, end)
        };
        *busy_by_owner.entry(owner).or_insert(0.0) += dur;
        slot.busy_s += dur;
        Self::journal_push(&mut st, id, label, owner, start, end);
        drop(st);
        self.advance_to(end);
        (start, end)
    }

    /// Drop every grant an owner holds on a shared resource and forget its
    /// busy time — the owner is starting a fresh virtual timeline (a meter
    /// reset). Other owners' commitments are untouched.
    pub fn shared_release_owner(&self, id: ResourceId, owner: u64) {
        let mut st = self.state.lock();
        let slot = Self::check(&mut st, id);
        let ResourceKind::Shared {
            grants,
            busy_by_owner,
        } = &mut slot.kind
        else {
            panic!("shared_release_owner on serial resource {:?}", id);
        };
        grants.retain(|g| g.owner != owner);
        busy_by_owner.remove(&owner);
        slot.busy_s = busy_by_owner.values().sum();
    }

    /// Committed busy seconds of a resource (all owners).
    pub fn busy_s(&self, id: ResourceId) -> f64 {
        let mut st = self.state.lock();
        Self::check(&mut st, id).busy_s
    }

    /// Committed busy seconds one owner contributed to a shared resource.
    pub fn busy_s_of(&self, id: ResourceId, owner: u64) -> f64 {
        let mut st = self.state.lock();
        let slot = Self::check(&mut st, id);
        match &slot.kind {
            ResourceKind::Shared { busy_by_owner, .. } => {
                busy_by_owner.get(&owner).copied().unwrap_or(0.0)
            }
            _ => panic!("busy_s_of on serial resource {:?}", id),
        }
    }

    /// Start (or clear and restart) journaling of scheduling decisions.
    pub fn enable_journal(&self) {
        self.state.lock().journal = Some(Vec::new());
    }

    /// Snapshot of the journal (empty when journaling is off).
    pub fn journal(&self) -> Vec<EventRecord> {
        self.state.lock().journal.clone().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_is_a_running_max() {
        let e = Engine::new();
        assert_eq!(e.now(), 0.0);
        let (a, b) = (e.serial("a"), e.serial("b"));
        e.serial_advance(a, 0, "x", 2.5);
        e.serial_advance(b, 0, "y", 1.0);
        assert_eq!(e.now(), 2.5, "never moves backwards");
        e.serial_advance(b, 0, "y", 2.75);
        assert_eq!(e.now(), 3.75);
    }

    #[test]
    fn serial_resource_behaves_like_a_stream() {
        let e = Engine::new();
        let s = e.serial("stream");
        assert_eq!(e.serial_advance(s, 0, "a", 2.0), (0.0, 2.0));
        assert_eq!(e.serial_advance(s, 0, "b", 3.0), (2.0, 5.0));
        e.serial_wait_until(s, 7.0);
        assert_eq!(e.serial_advance(s, 0, "c", 1.0), (7.0, 8.0));
        e.serial_wait_until(s, 1.0); // no-op backwards
        assert_eq!(e.serial_cursor(s), 8.0);
        assert_eq!(e.busy_s(s), 6.0, "waits charge nothing");
        assert_eq!(e.now(), 8.0, "clock tracks the frontier");
    }

    #[test]
    fn idle_shared_resource_is_exact() {
        let e = Engine::new();
        let bus = e.shared("pcie");
        let (s, t) = e.shared_acquire(bus, 0, "h2d", 1.25, 0.5);
        assert_eq!((s, t), (1.25, 1.25 + 0.5), "bit-exact when uncontended");
        // Next op entirely after the first: still the exact arithmetic.
        let (s, t) = e.shared_acquire(bus, 0, "h2d", 2.0, 0.25);
        assert_eq!((s, t), (2.0, 2.25));
    }

    #[test]
    fn overlapping_acquisitions_serialize() {
        let e = Engine::new();
        let bus = e.shared("pcie");
        let (_, e1) = e.shared_acquire(bus, 0, "h2d", 0.0, 1.0);
        // Second transfer ready at 0.4, while the bus is held until 1.0.
        let (s2, e2) = e.shared_acquire(bus, 1, "d2h", 0.4, 1.0);
        assert_eq!(e1, 1.0);
        assert_eq!(s2, 1.0, "waits for the bus");
        assert_eq!(e2, 2.0, "takes longer than either alone");
        assert_eq!(e.busy_s(bus), 2.0);
        assert_eq!(e.busy_s_of(bus, 1), 1.0);
    }

    #[test]
    fn backfill_uses_gaps_without_disturbing_commitments() {
        let e = Engine::new();
        let bus = e.shared("pcie");
        // Commit [5, 10).
        e.shared_acquire(bus, 0, "h2d", 5.0, 5.0);
        // 4 s of work ready at 3: burns [3,5) then [10,12).
        let (s, t) = e.shared_acquire(bus, 0, "d2h", 3.0, 4.0);
        assert_eq!(s, 3.0);
        assert_eq!(t, 12.0);
        // The gap [3,5) really is taken now.
        let (s, t) = e.shared_acquire(bus, 0, "h2d", 0.0, 4.0);
        assert_eq!(s, 0.0);
        assert_eq!(t, 13.0, "only [0,3) and [12,∞) remain free");
    }

    #[test]
    fn release_owner_keeps_other_owners_commitments() {
        let e = Engine::new();
        let bus = e.shared("pcie");
        e.shared_acquire(bus, 0, "h2d", 0.0, 1.0);
        e.shared_acquire(bus, 1, "h2d", 0.0, 1.0); // serializes: [1,2)
        e.shared_release_owner(bus, 0);
        assert_eq!(e.busy_s(bus), 1.0);
        // Owner 0 restarts at t=0; only the gap before owner 1's grant at
        // [1,2) is free.
        let (s, t) = e.shared_acquire(bus, 0, "h2d", 0.0, 2.0);
        assert_eq!(s, 0.0);
        assert_eq!(t, 3.0);
    }

    #[test]
    fn freed_resources_are_recycled_and_stale_handles_panic() {
        let e = Engine::new();
        let a = e.serial("stream");
        e.serial_advance(a, 0, "x", 1.0);
        e.free(a);
        let b = e.serial("stream");
        assert_eq!(a.idx, b.idx, "slot recycled");
        assert_ne!(a.gen, b.gen);
        assert_eq!(e.serial_cursor(b), 0.0, "fresh cursor");
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.serial_cursor(a);
        }));
        assert!(stale.is_err(), "stale handle must panic");
    }

    #[test]
    fn journal_replays_bit_identically() {
        let plan = |e: &Engine| {
            let s = e.serial("stream");
            let bus = e.shared("pcie");
            e.serial_advance(s, 0, "kernel", 0.125);
            e.shared_acquire(bus, 0, "h2d", 0.0, 0.5);
            e.shared_acquire(bus, 1, "d2h", 0.25, 0.5);
            e.serial_advance(s, 0, "kernel", 0.0625);
        };
        let run = || {
            let e = Engine::new();
            e.enable_journal();
            plan(&e);
            e.journal()
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty());
        assert_eq!(a, b, "same plan, bit-identical journal");
    }
}
