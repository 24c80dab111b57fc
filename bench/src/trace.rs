//! In-memory span log of a traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (`core.decide`, `sim.step`, ...) under one `epoch` span per operation.
//! Spans go into a vector sized before the timed window opens and are
//! written out as JSON Lines after it closes, so recording costs two clock
//! reads and two counter loads per span and no allocation. With the log
//! off (every untraced run) `open`/`close` return at once.

use std::io::{self, Write};
use std::time::Instant;
use twig_nn::count_alloc::allocation_count;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`epoch`, `core.decide`, `sim.step`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Operation the span belongs to: spans of one epoch share it.
    pub epoch: u64,
    /// Heap allocations made while the span was open (0 unless the binary
    /// installs the counting allocator).
    pub allocs: u64,
    /// Workload-defined mark (fleet: the epoch ran a federation round).
    pub flag: bool,
}

impl Span {
    /// Wall time the span covers, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const OFF: SpanId = SpanId(u32::MAX);

/// The span recorder. See the module docs.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn off() -> Self {
        SpanLog {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording log with room for `capacity` spans before it has to
    /// grow.
    pub fn on(capacity: usize) -> Self {
        SpanLog {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Nanoseconds since the log was created (the clock every span and
    /// every epoch timestamp of a run shares).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is open now.
    #[inline]
    pub fn open(&mut self, name: &'static str, epoch: u64) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            epoch,
            allocs: allocation_count(),
            flag: false,
        });
        // Clock read last, so the push above is charged to the parent.
        self.spans[id as usize].start_ns = self.now_ns();
        SpanId(id)
    }

    /// Closes a span opened by [`open`](Self::open). Spans close in the
    /// reverse of the order they opened.
    #[inline]
    pub fn close(&mut self, id: SpanId) {
        if id == OFF {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.allocs = allocation_count().saturating_sub(span.allocs);
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
    }

    /// Marks an open or closed span.
    pub fn flag(&mut self, id: SpanId) {
        if id != OFF {
            self.spans[id.0 as usize].flag = true;
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, nanoseconds: its duration minus the part
    /// its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration of every span called `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Summed self time of every span called `name`, nanoseconds.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Summed allocation count of every span called `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.allocs).sum()
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes the log as JSON Lines: one object per span with its index
    /// (`id`), `name`, `start_ns`, `end_ns`, `parent` (an `id` or `null`),
    /// `epoch`, `self_ns`, `allocs` and `flag`.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        let own = self.self_times_ns();
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{},\"self_ns\":{self_ns},\"allocs\":{},\"flag\":{}}}",
                span.name, span.start_ns, span.end_ns, span.epoch, span.allocs, span.flag
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A log with hand-set times: epoch [0, 100] holding decide [10, 30]
    /// and step [40, 90], step holding pmc [50, 60].
    fn sample() -> SpanLog {
        let mut log = SpanLog::on(8);
        let epoch = log.open("epoch", 7);
        let decide = log.open("core.decide", 7);
        log.close(decide);
        let step = log.open("sim.step", 7);
        let pmc = log.open("sim.pmc", 7);
        log.close(pmc);
        log.close(step);
        log.close(epoch);
        for (i, (s, e)) in [(0, 100), (10, 30), (40, 90), (50, 60)]
            .into_iter()
            .enumerate()
        {
            log.spans[i].start_ns = s;
            log.spans[i].end_ns = e;
        }
        log
    }

    #[test]
    fn parents_follow_nesting() {
        let log = sample();
        let parents: Vec<Option<u32>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(log.spans().iter().all(|s| s.epoch == 7));
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let log = sample();
        // epoch: 100 - 20 - 50; step: 50 - 10; leaves keep their duration.
        assert_eq!(log.self_times_ns(), vec![30, 20, 40, 10]);
        assert_eq!(log.self_total_ns("epoch"), 30);
        assert_eq!(log.total_ns("sim.step"), 50);
        assert_eq!(log.durations_us("core.decide"), vec![0.02]);
        assert_eq!(log.count("sim.pmc"), 1);
    }

    #[test]
    fn an_off_log_records_nothing() {
        let mut log = SpanLog::off();
        let id = log.open("epoch", 0);
        log.flag(id);
        log.close(id);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_every_field() {
        let mut log = sample();
        log.spans[2].flag = true;
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let step = json::parse(lines[2]).unwrap();
        assert_eq!(
            step.get("name").and_then(json::Value::as_str),
            Some("sim.step")
        );
        assert_eq!(step.get("parent").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(
            step.get("self_ns").and_then(json::Value::as_f64),
            Some(40.0)
        );
        assert_eq!(step.get("flag"), Some(&json::Value::Bool(true)));
        let root = json::parse(lines[0]).unwrap();
        assert_eq!(root.get("parent"), Some(&json::Value::Null));
        for key in ["id", "start_ns", "end_ns", "epoch", "allocs"] {
            assert!(root.get(key).is_some(), "missing {key}");
        }
    }
}
