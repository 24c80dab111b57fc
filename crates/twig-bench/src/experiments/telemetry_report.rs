//! Telemetry report — not a paper figure. Drives a colocated
//! masstree + moses run with [`twig_telemetry`] attached to
//! both the simulator and the Twig manager, then prints the per-epoch
//! phase timeline, the metrics registry digest, and writes a JSONL trace
//! (default `results/telemetry_trace.jsonl`, override with `--trace PATH`).
//!
//! This is the human-facing view of the observability subsystem: every
//! number comes from the same counters/gauges/histograms/spans that a
//! disabled handle skips at zero cost in production runs.

use crate::runner::twig_builder;
use crate::{drive, make_twig, ExpError, Options, Scale, TextTable};
use std::fmt::Write as _;
use std::io::Write;
use twig_core::{recover, GovernorConfig, SafetyGovernor, ScratchStore};
use twig_rl::{MaBdqConfig, QuarantineConfig};
use twig_sim::{catalog, Server, ServerConfig};
use twig_telemetry::{Phase, Telemetry};

/// Epochs driven per scale (learning happens inline; this is a report of
/// the loop's behaviour, not a QoS measurement).
fn epochs(opts: &Options) -> u64 {
    if opts.scale == Scale::Full {
        1_000
    } else {
        200
    }
}

/// Runs the colocated workload with telemetry attached and returns the
/// populated handle.
///
/// # Errors
///
/// Propagates manager, simulator and telemetry errors.
pub fn collect(opts: &Options) -> Result<Telemetry, ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let telemetry = Telemetry::enabled();

    let mut server = Server::new(ServerConfig::default(), specs.clone(), opts.seed)?;
    server.set_telemetry(telemetry.clone());
    server.set_load_fraction(0, 0.5)?;
    server.set_load_fraction(1, 0.4)?;

    let n = epochs(opts);
    let mut twig = twig_builder(specs.clone(), n, opts.seed)
        .agent(MaBdqConfig {
            quarantine: QuarantineConfig::default().armed(),
            ..MaBdqConfig::default()
        })
        .build()?;
    twig.set_telemetry(telemetry.clone());

    // The report covers the crash-safety wiring too: the loop runs under
    // the governor with periodic checkpointing armed, and a cold manager
    // climbs the recovery ladder off the store afterwards, so the
    // `ckpt.*` counters appear in the digest alongside the control-loop
    // metrics.
    let store = ScratchStore::create("telemetry-ckpt", 2)?;
    let cfg = ServerConfig::default();
    let mut gov = SafetyGovernor::new(
        twig,
        GovernorConfig {
            services: specs.clone(),
            cores: cfg.cores,
            dvfs: cfg.dvfs,
            // The whole run is a from-scratch learning phase, so QoS
            // violations are expected; an armed watchdog would suspend the
            // learner into safe mode and starve the very counters this
            // report exists to show. The governor is here for its
            // checkpointing duty only.
            watchdog_epochs: u32::MAX,
            ..GovernorConfig::default()
        },
    )?;
    gov.set_telemetry(telemetry.clone());
    gov.arm_checkpointing(store.clone(), (n / 8).max(1))?;

    drive(&mut server, &mut gov, n)?;

    let mut cold = make_twig(specs, n, opts.seed)?;
    let recovery = recover(&store, &mut cold, &telemetry);
    assert!(
        recovery.recovered(),
        "ladder must restore off a fault-free store"
    );
    Ok(telemetry)
}

fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

/// Regenerates the telemetry report, appending to `out`.
///
/// # Errors
///
/// Propagates run errors and trace-file I/O errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let n = epochs(opts);
    writeln!(
        out,
        "Telemetry report: masstree (50%) + moses (40%) colocated, {n} epochs, recorder sink\n"
    )?;
    let telemetry = collect(opts)?;

    // 1. Per-epoch phase timeline (tail of the run; one row per decision
    //    epoch, one column per control-loop phase).
    let spans = telemetry.spans();
    let tail = 12usize.min(spans.len());
    let mut t = TextTable::new(vec![
        "epoch",
        "pmc_read (ms)",
        "inference (ms)",
        "mapping (ms)",
        "actuation (ms)",
        "reward (ms)",
        "learn (ms)",
        "total (ms)",
    ]);
    for span in &spans[spans.len() - tail..] {
        t.row(vec![
            span.epoch.to_string(),
            fmt_ms(span.get(Phase::PmcRead)),
            fmt_ms(span.get(Phase::Inference)),
            fmt_ms(span.get(Phase::Mapping)),
            fmt_ms(span.get(Phase::Actuation)),
            fmt_ms(span.get(Phase::RewardUpdate)),
            fmt_ms(span.get(Phase::LearnStep)),
            fmt_ms(span.total_ms()),
        ]);
    }
    writeln!(
        out,
        "Epoch timeline (last {tail} of {} spans; {} dropped by the ring):",
        spans.len(),
        telemetry.spans_dropped()
    )?;
    writeln!(out, "{t}")?;

    // 2. Metrics digest: counters, gauges, histogram quantiles.
    let snapshot = telemetry.metrics().ok_or("telemetry disabled")?;
    let mut c = TextTable::new(vec!["counter", "value"]);
    for (name, value) in &snapshot.counters {
        c.row(vec![name.clone(), value.to_string()]);
    }
    writeln!(out, "Counters:\n{c}")?;

    let mut g = TextTable::new(vec!["gauge", "value"]);
    for (name, value) in &snapshot.gauges {
        g.row(vec![name.clone(), format!("{value:.4}")]);
    }
    writeln!(out, "Gauges (latest value):\n{g}")?;

    let mut h = TextTable::new(vec![
        "histogram",
        "count",
        "mean",
        "p50",
        "p95",
        "p99",
        "max",
    ]);
    for (name, s) in &snapshot.histograms {
        h.row(vec![
            name.clone(),
            s.count.to_string(),
            format!("{:.4}", s.mean),
            format!("{:.4}", s.p50),
            format!("{:.4}", s.p95),
            format!("{:.4}", s.p99),
            format!("{:.4}", s.max),
        ]);
    }
    writeln!(
        out,
        "Histograms (log-bucketed; quantiles are bucket-resolution estimates):\n{h}"
    )?;

    // 3. JSONL trace for offline tooling.
    let path = opts
        .trace
        .clone()
        .unwrap_or_else(|| "results/telemetry_trace.jsonl".to_string());
    write_trace(&telemetry, std::path::Path::new(&path))?;
    writeln!(
        out,
        "JSONL trace written to {path} ({} spans + metrics lines).",
        spans.len()
    )?;
    Ok(())
}

/// Writes the JSONL trace to `path`, creating the directories above it: the
/// default lives under `results/`, which a scratch working directory lacks.
fn write_trace(telemetry: &Telemetry, path: &std::path::Path) -> Result<(), ExpError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
    telemetry.export_jsonl(&mut writer)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_populates_spans_and_metrics() {
        let opts = Options {
            seed: 5,
            ..Options::default()
        };
        let telemetry = collect(&opts).unwrap();
        let n = epochs(&opts);

        // One span per epoch, each with every phase populated.
        let spans = telemetry.spans();
        assert_eq!(spans.len() as u64 + telemetry.spans_dropped(), n);
        let last = spans.last().unwrap();
        for phase in Phase::ALL {
            assert!(last.get(phase) >= 0.0);
        }
        assert!(last.total_ms() > 0.0, "stopwatch never ticked");

        // The wiring covered simulator, manager and learner.
        let snapshot = telemetry.metrics().unwrap();
        assert_eq!(snapshot.counter("sim.epochs"), n);
        assert!(snapshot.counter("rl.train_steps") > 0);
        assert!(snapshot.gauge("twig.epsilon").is_some());
        assert!(snapshot.histogram("sim.p99_ms.masstree").is_some());
        assert!(snapshot.histogram("phase_ms.inference").is_some());

        // The crash-safety wiring showed up: periodic checkpoint writes
        // from the governed loop and one ladder restore from the probe.
        assert!(snapshot.counter("ckpt.write") >= 1);
        assert_eq!(snapshot.counter("ckpt.load"), 1);
        assert_eq!(snapshot.counter("ckpt.corrupt"), 0);

        // The JSONL export round-trips without I/O.
        let mut buf = Vec::new();
        telemetry.export_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"kind\":\"span\""));
        assert!(text.contains("\"kind\":\"counter\""));
        assert!(text.contains("sim.epochs"));

        // The trace file lands under directories that do not exist yet.
        let root = std::env::temp_dir().join(format!(
            "twig-telemetry-trace-{}-{}",
            std::process::id(),
            opts.seed
        ));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("results").join("telemetry_trace.jsonl");
        write_trace(&telemetry, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
