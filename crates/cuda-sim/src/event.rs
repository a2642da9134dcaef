//! CUDA-style events: timestamps recorded into a stream's timeline, used
//! for timing sections and for cross-stream dependencies.

/// A recorded event: the virtual time at which all work enqueued on its
/// stream before the record had completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub(crate) time_s: f64,
}

impl Event {
    /// The virtual timestamp.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Seconds from `earlier` to `self` (CUDA's `cudaEventElapsedTime`,
    /// but in seconds). Negative when `self` precedes `earlier`.
    pub fn elapsed_since(&self, earlier: &Event) -> f64 {
        self.time_s - earlier.time_s
    }
}

#[cfg(test)]
mod tests {

    use crate::{Device, DeviceProps, LaunchConfig, StreamId};

    #[test]
    fn events_time_sections() {
        let d = Device::new(DeviceProps::tiny(1 << 16));
        let start = d.record_event(StreamId::DEFAULT);
        d.launch(
            StreamId::DEFAULT,
            "work",
            LaunchConfig::linear(64, 32),
            None,
            |ctx, _| {
                ctx.charge_flops(1_000_000);
            },
        )
        .unwrap();
        let end = d.record_event(StreamId::DEFAULT);
        let dt = end.elapsed_since(&start);
        assert!(dt > 0.0);
        // The section matches the launch record's duration.
        let rec = &d.records()[0];
        assert!((dt - rec.duration_s).abs() < 1e-12);
    }

    #[test]
    fn cross_stream_event_wait() {
        let d = Device::new(DeviceProps::tiny(1 << 16));
        let s = d.create_stream();
        d.launch(
            StreamId::DEFAULT,
            "producer",
            LaunchConfig::linear(64, 32),
            None,
            |ctx, _| {
                ctx.charge_flops(5_000_000);
            },
        )
        .unwrap();
        let done = d.record_event(StreamId::DEFAULT);
        d.stream_wait_event(s, &done);
        let rec = d
            .launch(s, "consumer", LaunchConfig::linear(8, 8), None, |_, _| {})
            .unwrap();
        assert!(
            rec.start_s >= done.time_s(),
            "consumer starts after the event"
        );
    }
}
