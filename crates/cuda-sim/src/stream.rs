//! Stream timelines: the virtual-time scheduling model.
//!
//! Operations issued to the same stream execute back to back; operations on
//! different streams overlap freely (data hazards are the caller's
//! responsibility, as in CUDA) — *except* where they meet at a shared
//! resource such as the host's PCIe bus, which is arbitrated by the
//! discrete-event engine (see [`crate::sim`]). [`Timelines::elapsed`] is
//! the overlapped makespan — with everything on the default stream it
//! equals the serial `comm + compute` sum, and with a double-buffered
//! two-stream pipeline it approaches `max(comm, compute)` plus whatever
//! bus contention adds back, which is precisely the ablation the paper's
//! related-work section motivates.
//!
//! Each stream is a **serial resource** on the device's engine; this type
//! is the device-facing handle mapping dense [`StreamId`]s onto engine
//! resources.

use std::sync::Arc;

use crate::sim::{Engine, ResourceId};

/// Identifies a stream on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// The default stream every device starts with.
    pub const DEFAULT: StreamId = StreamId(0);

    /// Index for reports.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Per-stream virtual clocks, backed by serial resources on a
/// discrete-event [`Engine`].
#[derive(Debug)]
pub struct Timelines {
    engine: Arc<Engine>,
    /// Engine-local actor tag of the owning device.
    owner: u64,
    streams: Vec<ResourceId>,
}

impl Timelines {
    /// Fresh set containing only the default stream.
    pub fn new(engine: Arc<Engine>, owner: u64) -> Timelines {
        let default = engine.serial("stream0");
        Timelines {
            engine,
            owner,
            streams: vec![default],
        }
    }

    /// Add a stream, starting "now" (at the current makespan, as if created
    /// after the preceding work was enqueued). A stream created mid-run
    /// cannot retroactively run work before the frontier — this is what
    /// makes sequential engine invocations on one device (multi-GPU
    /// failover rounds) accumulate makespan instead of overlapping at t=0.
    pub fn create_stream(&mut self) -> StreamId {
        let id = StreamId(self.streams.len());
        let res = self.engine.serial(&format!("stream{}", id.0));
        self.engine.serial_set(res, self.elapsed());
        self.streams.push(res);
        id
    }

    /// Number of streams.
    pub fn count(&self) -> usize {
        self.streams.len()
    }

    fn res(&self, stream: StreamId) -> ResourceId {
        self.streams[stream.0]
    }

    /// Schedule an operation of `duration` on `stream`; returns its
    /// `(start, end)` interval. Panics on an unknown stream id (programmer
    /// error, like using a destroyed `cudaStream_t`).
    pub fn schedule(&mut self, stream: StreamId, duration: f64) -> (f64, f64) {
        self.schedule_labeled(stream, duration, "op")
    }

    /// [`schedule`](Self::schedule) with an explicit journal label.
    pub fn schedule_labeled(
        &mut self,
        stream: StreamId,
        duration: f64,
        label: &'static str,
    ) -> (f64, f64) {
        self.engine
            .serial_advance(self.res(stream), self.owner, label, duration)
    }

    /// Make `stream` wait until `time` (an event dependency).
    pub fn wait_until(&mut self, stream: StreamId, time: f64) {
        self.engine.serial_wait_until(self.res(stream), time);
    }

    /// Current clock of one stream: when its last enqueued operation ends.
    /// Used by retry backoff to reason about idle time it injects.
    pub fn cursor(&self, stream: StreamId) -> f64 {
        self.engine.serial_cursor(self.res(stream))
    }

    /// Overlapped makespan: when the last stream goes idle.
    pub fn elapsed(&self) -> f64 {
        self.streams
            .iter()
            .map(|&r| self.engine.serial_cursor(r))
            .fold(0.0, f64::max)
    }

    /// Device-wide barrier: all streams advance to the makespan.
    pub fn synchronize(&mut self) -> f64 {
        let t = self.elapsed();
        for &r in &self.streams {
            self.engine.serial_set(r, t);
        }
        t
    }

    /// Reset to a fresh timeline set: non-default streams are **destroyed**
    /// (their [`StreamId`]s become stale, exactly like a freed
    /// `cudaStream_t`) and the default stream's clock returns to zero.
    /// Without the destruction a long-lived device leaked one timeline per
    /// stream per run — the ring pipeline creates three streams on every
    /// run.
    pub fn reset(&mut self) {
        for res in self.streams.drain(1..) {
            self.engine.free(res);
        }
        self.engine.serial_set(self.streams[0], 0.0);
    }
}

impl Drop for Timelines {
    fn drop(&mut self) {
        // Return the engine slots so a long-lived shared host does not
        // accumulate dead stream resources as devices come and go.
        for res in self.streams.drain(..) {
            self.engine.free(res);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Timelines {
        Timelines::new(Arc::new(Engine::new()), 0)
    }

    #[test]
    fn single_stream_serializes() {
        let mut t = fresh();
        let (s1, e1) = t.schedule(StreamId::DEFAULT, 2.0);
        let (s2, e2) = t.schedule(StreamId::DEFAULT, 3.0);
        assert_eq!((s1, e1), (0.0, 2.0));
        assert_eq!((s2, e2), (2.0, 5.0));
        assert_eq!(t.elapsed(), 5.0);
    }

    #[test]
    fn two_streams_overlap() {
        let mut t = fresh();
        let s = t.create_stream();
        t.schedule(StreamId::DEFAULT, 2.0);
        t.schedule(s, 3.0);
        assert_eq!(t.elapsed(), 3.0, "copy and compute overlap");
    }

    #[test]
    fn synchronize_is_a_barrier() {
        let mut t = fresh();
        let s = t.create_stream();
        t.schedule(StreamId::DEFAULT, 2.0);
        t.schedule(s, 5.0);
        let when = t.synchronize();
        assert_eq!(when, 5.0);
        // Work after the barrier starts at the barrier on every stream.
        let (start, _) = t.schedule(StreamId::DEFAULT, 1.0);
        assert_eq!(start, 5.0);
    }

    #[test]
    fn wait_until_orders_dependencies() {
        let mut t = fresh();
        let s = t.create_stream();
        let (_, copy_done) = t.schedule(StreamId::DEFAULT, 2.0);
        t.wait_until(s, copy_done); // kernel on s consumes the copy
        let (start, _) = t.schedule(s, 1.0);
        assert_eq!(start, 2.0);
        // Waiting on an earlier time is a no-op.
        t.wait_until(s, 0.5);
        let (start2, _) = t.schedule(s, 1.0);
        assert_eq!(start2, 3.0);
    }

    #[test]
    fn cursor_tracks_per_stream_clock() {
        let mut t = fresh();
        let s = t.create_stream();
        t.schedule(StreamId::DEFAULT, 2.0);
        assert_eq!(t.cursor(StreamId::DEFAULT), 2.0);
        assert_eq!(t.cursor(s), 0.0, "other stream untouched");
    }

    #[test]
    fn late_stream_joins_at_the_frontier() {
        let mut t = fresh();
        t.schedule(StreamId::DEFAULT, 4.0);
        let s = t.create_stream();
        assert_eq!(t.cursor(s), 4.0, "no retroactive work before now");
        let (start, end) = t.schedule(s, 1.0);
        assert_eq!((start, end), (4.0, 5.0));
        assert_eq!(t.elapsed(), 5.0);
    }

    #[test]
    fn reset_zeroes_clocks() {
        let mut t = fresh();
        t.schedule(StreamId::DEFAULT, 4.0);
        t.reset();
        assert_eq!(t.elapsed(), 0.0);
    }

    #[test]
    fn reset_destroys_extra_streams() {
        let mut t = fresh();
        let s = t.create_stream();
        t.schedule(s, 1.0);
        assert_eq!(t.count(), 2);
        t.reset();
        assert_eq!(t.count(), 1, "only the default stream survives");
        // Re-created streams reuse the engine slot instead of leaking one
        // per run.
        for _ in 0..10 {
            let s = t.create_stream();
            t.schedule(s, 1.0);
            t.reset();
        }
        assert_eq!(t.count(), 1);
        // The old id is stale now: using it must panic, like a destroyed
        // cudaStream_t.
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.cursor(s);
        }));
        assert!(stale.is_err());
    }
}
