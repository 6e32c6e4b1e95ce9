//! The harness's own spans: name, start, end, the span that caused it
//! and the interval it belongs to. Kept in memory, written once at
//! exit as Chrome-trace JSON. Off unless the run is traced, and then
//! only around calls the script already makes — the program's own
//! instrumentation is never switched (see the README's kill-switch
//! caveat).

use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span; `NONE` when recording is off or for a
/// root span's parent.
pub type SpanId = u32;
pub const NONE: SpanId = 0;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: SpanId,
    interval: u32,
    thread: u32,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span on lane `thread` starting now.
    pub fn begin(&self, name: &'static str, parent: SpanId, interval: u32, thread: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.us(Instant::now());
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            interval,
            thread,
        });
        spans.len() as SpanId
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.us(Instant::now());
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id as usize - 1].end_us = now;
    }

    /// Records a span whose endpoints were already measured.
    pub fn add(
        &self,
        name: &'static str,
        parent: SpanId,
        interval: u32,
        thread: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(Span {
                name,
                start_us,
                end_us,
                parent,
                interval,
                thread,
            });
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"interval\":{}}}}}",
                s.name,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.thread,
                i + 1,
                s.parent,
                s.interval
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = Recorder::new(false);
        let id = r.begin("a", NONE, 0, 0);
        r.end(id);
        r.add("b", NONE, 0, 0, Instant::now(), Instant::now());
        assert_eq!(id, NONE);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn children_name_their_parent() {
        let r = Recorder::new(true);
        let root = r.begin("interval", NONE, 3, 0);
        let child = r.begin("controller", root, 3, 0);
        r.end(child);
        r.end(root);
        let json = r.chrome_trace();
        assert!(json.contains("\"name\":\"controller\""));
        assert!(json.contains(&format!("\"parent\":{root},\"interval\":3")));
        assert_eq!(r.len(), 2);
    }
}
