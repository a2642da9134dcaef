//! Chrome-trace export of the virtual timeline.
//!
//! [`chrome_trace`] renders every transfer and kernel as a complete
//! ("ph":"X") event in the Trace Event Format, one trace process per
//! device, so the virtual schedule — including stream overlap and, on a
//! multi-device run, device concurrency — can be inspected in
//! `chrome://tracing` / Perfetto. [`crate::Device::export_chrome_trace`]
//! exports a single device.

use std::collections::VecDeque;

/// One operation on the virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Operation kind: `"h2d"`, `"d2h"` or `"kernel"`.
    pub kind: &'static str,
    /// Label (kernel name; byte count for copies).
    pub name: String,
    /// Stream index (rendered as the trace "thread").
    pub stream: usize,
    /// Virtual start, seconds.
    pub start_s: f64,
    /// Virtual end, seconds.
    pub end_s: f64,
}

/// Capacity of every device's op-trace ring: more records than any single
/// reconstruction issues, so traces of normal runs are complete, while a
/// service-style run that never resets keeps bounded memory.
pub const DEFAULT_TRACE_CAP: usize = 16_384;

/// Bounded operation log behind [`crate::Device::ops`] and the Chrome
/// trace export: a ring of the newest [`DEFAULT_TRACE_CAP`] records.
#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    ops: VecDeque<OpRecord>,
    dropped: u64,
}

impl TraceBuf {
    /// Record one operation labelled `name()`, shedding the oldest record
    /// when the ring is full.
    pub fn push_with(
        &mut self,
        kind: &'static str,
        stream: usize,
        start_s: f64,
        end_s: f64,
        name: impl FnOnce() -> String,
    ) {
        while self.ops.len() >= DEFAULT_TRACE_CAP {
            self.ops.pop_front();
            self.dropped += 1;
        }
        self.ops.push_back(OpRecord {
            kind,
            name: name(),
            stream,
            start_s,
            end_s,
        });
    }

    /// Records currently held, oldest first.
    pub fn ops(&self) -> Vec<OpRecord> {
        self.ops.iter().cloned().collect()
    }

    /// Records not retained (ring overflow).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything (meter reset).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.dropped = 0;
    }
}

/// Minimal JSON string escaping for names.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one `(process name, ops)` pair per device as a Trace Event Format
/// JSON document: device `i` is trace process `i + 1`, its streams the
/// process's threads.
pub fn chrome_trace(devices: &[(String, Vec<OpRecord>)]) -> String {
    let mut events = Vec::new();
    for (i, (name, ops)) in devices.iter().enumerate() {
        let pid = i + 1;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
        for op in ops {
            let ts_us = op.start_s * 1e6;
            let dur_us = (op.end_s - op.start_s) * 1e6;
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"pid\":{pid},\"tid\":{}}}",
                escape(&op.name),
                op.kind,
                op.stream
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_buf_ring_bounds_memory_and_counts_drops() {
        let mut t = TraceBuf::default();
        for i in 0..DEFAULT_TRACE_CAP + 3 {
            t.push_with("h2d", 0, i as f64, i as f64 + 1.0, || format!("op{i}"));
        }
        assert_eq!(t.ops().len(), DEFAULT_TRACE_CAP);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.ops()[0].name, "op3", "oldest shed first");
        t.clear();
        assert_eq!(t.ops().len(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("nl\n"), "nl\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_document_shape() {
        let ops = vec![
            OpRecord {
                kind: "h2d",
                name: "1024 B".into(),
                stream: 0,
                start_s: 0.0,
                end_s: 1e-5,
            },
            OpRecord {
                kind: "kernel",
                name: "set_two".into(),
                stream: 1,
                start_s: 1e-5,
                end_s: 3e-5,
            },
        ];
        let json = chrome_trace(&[("Tesla M2070 (simulated)".into(), ops.clone())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"set_two\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"cat\":\"h2d\""));
        assert!(json.contains("Tesla M2070"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        // One trace process per device.
        let two = chrome_trace(&[("gpu a".into(), ops.clone()), ("gpu b".into(), ops)]);
        assert_eq!(two.matches("process_name").count(), 2);
        assert!(two.contains("\"pid\":2,\"tid\":1"));
    }
}
