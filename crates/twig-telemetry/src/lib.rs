//! Zero-dependency tracing and metrics for the Twig control loop.
//!
//! The Twig paper argues the manager's viability through overhead
//! accounting (Table III): every phase of the 1 s decision epoch must fit
//! comfortably inside the epoch. This crate makes that accounting — and
//! the rest of the loop's runtime behaviour (governor trips, learner
//! health, QoS slack, fault-injection events) — continuously observable
//! without adding any external dependency or perturbing the simulation.
//!
//! # Architecture
//!
//! - [`MetricsRegistry`] — named counters, gauges and log-scaled
//!   histograms ([`LogHistogram`]) with p50/p95/p99 queries.
//! - [`EpochSpan`] — per-epoch wall-clock phase timings (PMC read →
//!   inference → mapping → actuation → reward update → learn step),
//!   assembled cooperatively by manager and platform, kept in a bounded
//!   [`RingBuffer`].
//! - [`Telemetry`] — the cheap, cloneable handle threaded through
//!   `twig-sim`, `twig-core` and `twig-rl`;
//!   [`export_jsonl`](Telemetry::export_jsonl) writes what it holds as JSON
//!   Lines through the in-repo [`json`] serializer.
//!
//! # The disabled path costs nothing
//!
//! [`Telemetry::disabled`] is a `None` — every instrumentation call
//! short-circuits on one branch, allocates nothing, and never reads the
//! clock ([`Stopwatch::disarmed`]). Timing reads feed only this layer, so
//! simulation outputs and RNG streams are bit-identical with telemetry
//! disabled or enabled (asserted by the workspace determinism tests).
//!
//! # Examples
//!
//! ```
//! use twig_telemetry::{Phase, Telemetry};
//!
//! let tl = Telemetry::enabled();
//! tl.counter_add("governor.trips", 1);
//! tl.gauge_set("twig.epsilon", 0.08);
//! tl.record("rl.loss", 0.31);
//! tl.phase_add(0, Phase::Inference, 0.4);
//! tl.phase_add(1, Phase::Inference, 0.5); // epoch 0's span completes
//! let m = tl.metrics().unwrap();
//! assert_eq!(m.counter("governor.trips"), 1);
//! assert_eq!(tl.spans().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod json;
mod jsonl;
mod metrics;
mod ring;
mod span;

pub use error::TelemetryError;
pub use jsonl::{snapshot_to_jsonl, span_to_json};
pub use metrics::{HistogramSummary, LogHistogram, MetricsRegistry, MetricsSnapshot};
pub use ring::RingBuffer;
pub use span::{EpochSpan, Phase, Stopwatch, NUM_PHASES};

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Declares a `Copy` struct of `u64` lifetime counters, each field tied to
/// the telemetry counter it is mirrored under. The struct and its mirror
/// move together through two generated methods, so a counter's name is
/// written once, in this declaration:
///
/// - `bump(&mut self, tl, |s| &mut s.field)` adds 1 to the field and to its
///   counter (the name is looked up from the field list, never passed in);
/// - `add(&mut self, &delta, tl)` adds a per-step delta field by field and
///   mirrors each nonzero field, so a counter that never moved stays absent
///   from the registry.
///
/// Neither allocates. A trailing `plain { name: type, .. }` block adds
/// fields that have no counter (a maximum, say); such a struct gets no
/// `add`, since only counters add, and `bump` through a plain field panics.
///
/// # Examples
///
/// ```
/// use twig_telemetry::Telemetry;
///
/// twig_telemetry::stats! {
///     /// What the cache did.
///     pub struct CacheStats {
///         /// Lookups answered from the cache.
///         hits => "cache.hits",
///         /// Lookups that went to the backing store.
///         misses => "cache.misses",
///     }
/// }
///
/// let tl = Telemetry::enabled();
/// let mut total = CacheStats::default();
/// total.bump(&tl, |s| &mut s.misses);
/// total.add(&CacheStats { hits: 2, misses: 0 }, &tl);
/// assert_eq!(CacheStats::COUNTER_NAMES, ["cache.hits", "cache.misses"]);
/// assert_eq!(total, CacheStats { hits: 2, misses: 1 });
/// assert_eq!((tl.counter("cache.hits"), tl.counter("cache.misses")), (2, 1));
/// ```
#[macro_export]
macro_rules! stats {
    (@add $name:ident [$($field:ident => $counter:literal)+]) => {
        impl $name {
            /// Adds `delta` into `self` field by field, mirroring every
            /// nonzero field into its telemetry counter.
            pub fn add(&mut self, delta: &$name, tl: &$crate::Telemetry) {
                $(if delta.$field != 0 {
                    self.$field += delta.$field;
                    tl.counter_add($counter, delta.$field);
                })+
            }
        }
    };
    (@add $name:ident [$($field:ident => $counter:literal)+] $($plain:ident)+) => {};
    (
        $(#[$struct_doc:meta])+
        pub struct $name:ident {
            $($(#[$doc:meta])+ $field:ident => $counter:literal,)+
            $(plain { $($(#[$plain_doc:meta])+ $plain:ident: $plain_ty:ty,)+ })?
        }
    ) => {
        $(#[$struct_doc])+
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])+ pub $field: u64,)+
            $($($(#[$plain_doc])+ pub $plain: $plain_ty,)+)?
        }

        impl $name {
            /// The telemetry counter names, in field order.
            pub const COUNTER_NAMES: &'static [&'static str] = &[$($counter,)+];

            /// Adds 1 to the counter field `field` selects and to its
            /// telemetry counter.
            ///
            /// # Panics
            ///
            /// When `field` selects a `plain` field.
            pub fn bump(&mut self, tl: &$crate::Telemetry, field: fn(&mut Self) -> &mut u64) {
                // A probe whose counter fields hold their 1-based position
                // in the field list names the one `field` selects.
                let mut probe = Self::default();
                let mut position = 0;
                $(position += 1; probe.$field = position;)+
                let index = (*field(&mut probe) as usize).checked_sub(1);
                let name = index.and_then(|i| Self::COUNTER_NAMES.get(i));
                let name = name.expect("bump: the field is not a counter");
                *field(self) += 1;
                tl.counter_add(name, 1);
            }
        }

        $crate::stats!(@add $name [$($field => $counter)+] $($($plain)+)?);
    };
}

/// Default bound on the span ring buffer (epochs of history kept).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

#[derive(Debug)]
struct Inner {
    registry: Mutex<MetricsRegistry>,
    spans: Mutex<RingBuffer<EpochSpan>>,
    current: Mutex<Option<EpochSpan>>,
}

/// Locks one part of the shared state. Every method leaves its part
/// consistent before it can panic, so a lock poisoned by a panic elsewhere
/// is still safe to read and write.
fn lock<T>(part: &Mutex<T>) -> MutexGuard<'_, T> {
    part.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The instrumentation handle threaded through the control loop.
///
/// Cloning is cheap (an `Arc` bump) and clones share state, so the
/// simulator, manager and learner can all write into one registry. The
/// handle is `Send + Sync`: a cluster serves its nodes on two threads
/// (DESIGN.md §18). Each call takes an uncontended lock; the order of
/// gauge writes and span contributions from two threads is whatever order
/// the calls happen in, which is why a cluster hands its nodes disabled
/// handles.
///
/// [`Telemetry::disabled`] (also the `Default`) is inert: every method is
/// a no-op returning zero/`None`, with no allocation and no clock reads.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The inert handle: all instrumentation short-circuits.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle: metrics accumulate in the registry and the last
    /// [`DEFAULT_SPAN_CAPACITY`] spans in the ring buffer.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Mutex::new(MetricsRegistry::new()),
                spans: Mutex::new(RingBuffer::new(DEFAULT_SPAN_CAPACITY)),
                current: Mutex::new(None),
            })),
        }
    }

    /// `true` when instrumentation calls actually record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.registry).counter_add(name, delta);
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(&inner.registry).gauge_set(name, value);
        }
    }

    /// Records `value` into histogram `name`.
    pub fn record(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(&inner.registry).record(name, value);
        }
    }

    /// Current value of counter `name` (zero when disabled or untouched).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => lock(&inner.registry).counter(name),
            None => 0,
        }
    }

    /// Current value of gauge `name` (`None` when disabled or unset).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|inner| lock(&inner.registry).gauge(name))
    }

    /// A stopwatch: armed when enabled, inert ([`Stopwatch::disarmed`])
    /// when disabled, so the hot path never reads the clock.
    pub fn stopwatch(&self) -> Stopwatch {
        if self.inner.is_some() {
            Stopwatch::armed()
        } else {
            Stopwatch::disarmed()
        }
    }

    /// Adds `ms` to `phase` of `epoch`'s span.
    ///
    /// Spans are assembled incrementally: contributions for the same epoch
    /// (from the manager's `decide`/`observe` and the platform's step)
    /// merge into one [`EpochSpan`]; the first contribution for a
    /// *different* epoch completes the open span, pushing it into the ring
    /// buffer. Each phase's time also feeds a
    /// `phase_ms.<name>` histogram.
    pub fn phase_add(&self, epoch: u64, phase: Phase, ms: f64) {
        let Some(inner) = &self.inner else { return };
        let mut current = lock(&inner.current);
        match current.as_mut() {
            Some(span) if span.epoch == epoch => span.add(phase, ms),
            _ => {
                if let Some(done) = current.take() {
                    lock(&inner.spans).push(done);
                }
                let mut span = EpochSpan::new(epoch);
                span.add(phase, ms);
                *current = Some(span);
            }
        }
        lock(&inner.registry).record(phase.metric_key(), ms);
    }

    /// A point-in-time metrics snapshot (`None` when disabled).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner
            .as_ref()
            .map(|inner| lock(&inner.registry).snapshot())
    }

    /// The retained spans, oldest → newest, including the still-open one.
    /// Empty when disabled.
    pub fn spans(&self) -> Vec<EpochSpan> {
        match &self.inner {
            Some(inner) => {
                let mut out = lock(&inner.spans).to_vec();
                if let Some(open) = *lock(&inner.current) {
                    out.push(open);
                }
                out
            }
            None => Vec::new(),
        }
    }

    /// Spans evicted from the ring buffer so far (zero when disabled).
    pub fn spans_dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => lock(&inner.spans).dropped(),
            None => 0,
        }
    }

    /// Writes the full trace (all retained spans, then the metrics
    /// snapshot) as JSON Lines. Does nothing when disabled.
    pub fn export_jsonl(&self, w: &mut dyn std::io::Write) -> Result<(), TelemetryError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        for span in self.spans() {
            writeln!(w, "{}", span_to_json(&span))?;
        }
        let snapshot = lock(&inner.registry).snapshot();
        w.write_all(snapshot_to_jsonl(&snapshot).as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tl = Telemetry::disabled();
        assert!(!tl.is_enabled());
        tl.counter_add("c", 1);
        tl.gauge_set("g", 1.0);
        tl.record("h", 1.0);
        tl.phase_add(0, Phase::PmcRead, 1.0);
        assert_eq!(tl.counter("c"), 0);
        assert_eq!(tl.gauge("g"), None);
        assert!(tl.metrics().is_none());
        assert!(tl.spans().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let tl = Telemetry::enabled();
        let clone = tl.clone();
        clone.counter_add("shared", 2);
        tl.counter_add("shared", 3);
        assert_eq!(tl.counter("shared"), 5);
    }

    #[test]
    fn spans_complete_on_epoch_rollover() {
        let tl = Telemetry::enabled();
        tl.phase_add(0, Phase::PmcRead, 1.0);
        tl.phase_add(0, Phase::Inference, 2.0);
        tl.phase_add(1, Phase::PmcRead, 3.0);
        let spans = tl.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].epoch, 0);
        assert_eq!(spans[0].get(Phase::Inference), 2.0);
        assert_eq!(spans[1].epoch, 1);
        // Only epoch 0 is complete; epoch 1 is still open and listed last.
        let m = tl.metrics().unwrap();
        assert_eq!(m.histogram("phase_ms.pmc_read").unwrap().count, 2);
    }

    #[test]
    fn ring_buffer_bounds_span_history() {
        let tl = Telemetry::enabled();
        let kept = DEFAULT_SPAN_CAPACITY as u64;
        // The open span rides on top of a full ring.
        for epoch in 0..kept + 7 {
            tl.phase_add(epoch, Phase::Actuation, 1.0);
        }
        let spans = tl.spans();
        assert_eq!(spans.len() as u64, kept + 1);
        assert_eq!(spans.first().unwrap().epoch, 6);
        assert_eq!(spans.last().unwrap().epoch, kept + 6);
        assert_eq!(tl.spans_dropped(), 6);
    }

    #[test]
    fn export_jsonl_covers_spans_and_metrics() {
        let tl = Telemetry::enabled();
        tl.phase_add(0, Phase::LearnStep, 2.0);
        tl.counter_add("c", 1);
        let mut buf = Vec::new();
        tl.export_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().any(|l| l.contains(r#""kind":"span""#)));
        assert!(text.lines().any(|l| l.contains(r#""kind":"counter""#)));
        assert!(text.lines().any(|l| l.contains(r#""kind":"histogram""#)));
    }

    crate::stats! {
        /// A probe struct with a plain block.
        pub struct ProbeStats {
            /// First counter.
            first => "probe.first",
            /// Second counter.
            second => "probe.second",
            /// Third counter.
            third => "probe.third",
            plain {
                /// A plain `u64` with no counter.
                peak: u64,
            }
        }
    }

    crate::stats! {
        /// A struct without a plain block, so it has `add`.
        pub struct PairStats {
            /// Left counter.
            left => "pair.left",
            /// Right counter.
            right => "pair.right",
        }
    }

    #[test]
    fn bump_moves_each_counter_field_and_its_counter_by_one() {
        let fields: [fn(&mut ProbeStats) -> &mut u64; 3] =
            [|s| &mut s.first, |s| &mut s.second, |s| &mut s.third];
        let tl = Telemetry::enabled();
        let mut stats = ProbeStats::default();
        for (i, field) in fields.into_iter().enumerate() {
            let before = stats;
            stats.bump(&tl, field);
            let mut expected = before;
            *field(&mut expected) += 1;
            assert_eq!(stats, expected);
            for (j, name) in ProbeStats::COUNTER_NAMES.iter().enumerate() {
                assert_eq!(tl.counter(name), u64::from(j <= i), "{name} after bump {i}");
            }
        }
        // Disabled telemetry still moves the field.
        stats.bump(&Telemetry::disabled(), |s| &mut s.second);
        assert_eq!(stats.second, 2);
        assert_eq!(tl.counter("probe.second"), 1);
    }

    #[test]
    fn add_mirrors_only_nonzero_fields() {
        let tl = Telemetry::enabled();
        let mut total = PairStats::default();
        total.add(&PairStats { left: 3, right: 0 }, &tl);
        total.add(&PairStats { left: 2, right: 0 }, &tl);
        assert_eq!(total, PairStats { left: 5, right: 0 });
        let m = tl.metrics().unwrap();
        assert_eq!(m.counter("pair.left"), 5);
        assert!(m.counters.iter().all(|(name, _)| name != "pair.right"));
        total.add(&PairStats { left: 0, right: 4 }, &Telemetry::disabled());
        assert_eq!(total, PairStats { left: 5, right: 4 });
        // The first move of `right` that telemetry sees creates its counter.
        total.bump(&tl, |s| &mut s.right);
        assert_eq!(tl.counter(PairStats::COUNTER_NAMES[1]), 1);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn bump_through_a_plain_field_panics() {
        ProbeStats::default().bump(&Telemetry::enabled(), |s| &mut s.peak);
    }

    #[test]
    fn stopwatch_armed_only_when_enabled() {
        let mut off = Telemetry::disabled().stopwatch();
        assert_eq!(off.lap_ms(), 0.0);
        let mut on = Telemetry::enabled().stopwatch();
        assert!(on.lap_ms() >= 0.0);
    }
}
