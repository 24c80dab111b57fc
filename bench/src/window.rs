//! The timed window every loop fills in: when each operation finished, what
//! failed, what the simulator produced, and memory at a fixed operation
//! count.

use crate::trace::SpanLog;

/// Peak resident set size of this process, MiB (`VmHWM`); 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a timed window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// When the window opened, on the span log's clock.
    pub start_ns: u64,
    /// When each operation finished.
    pub ends_ns: Vec<u64>,
    /// Operations that failed.
    pub failed: u64,
    /// First failure, for the report.
    pub first_error: Option<String>,
    /// Requests the simulator completed.
    pub requests: u64,
    /// Service-epochs that met their QoS target.
    pub qos_met: u64,
    /// Service-epochs that carried traffic.
    pub qos_total: u64,
    /// Ground-truth energy, joules (epochs are one simulated second).
    pub energy_j: f64,
    /// Operation count at which peak memory is read.
    pub rss_probe_at: u64,
    /// `VmHWM` at that count, MiB (at the end of a window that never got
    /// there).
    pub peak_rss_mb: f64,
}

impl Window {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ends_ns.len() as u64
    }

    /// A window about to open on `log`'s clock, with room for `capacity`
    /// operations.
    pub fn open(log: &SpanLog, capacity: usize, rss_probe_at: u64) -> Window {
        Window {
            start_ns: log.now_ns(),
            ends_ns: Vec::with_capacity(capacity),
            rss_probe_at,
            ..Window::default()
        }
    }

    /// Records the end of one operation; returns its timestamp.
    pub fn close_operation(&mut self, log: &SpanLog) -> u64 {
        let now = log.now_ns();
        self.ends_ns.push(now);
        if self.attempted() == self.rss_probe_at {
            self.peak_rss_mb = peak_rss_mb();
        }
        now
    }

    /// Closes the window: a window that ended before its memory probe
    /// reads memory now.
    pub fn finish(mut self) -> Window {
        if self.attempted() < self.rss_probe_at {
            self.peak_rss_mb = peak_rss_mb();
        }
        self
    }

    pub(crate) fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        self.first_error.get_or_insert_with(|| what.to_string());
    }
}
