//! One benchmark run: set a workload up (several times, for a steady
//! set-up time), measure it for the requested seconds, check its outputs
//! and turn what was recorded into metrics.

use crate::corpus;
use crate::fleet_loop;
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::probes;
use crate::server_loop::{self, ServerRig};
use crate::stats::{median, median_block_rate, timing};
use crate::trace::SpanLog;
use crate::window::Window;
use crate::workloads::{
    Workload, FLEET_NODES, RATE_BLOCKS, SETUP_BUDGET_S, SETUP_MAX_REPEATS, SETUP_MIN_REPEATS,
};
use crate::BenchError;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use twig_bench::{run_fleet, Unit};
use twig_cluster::Cluster;
use twig_scenario::{parse, ScenarioOutcome, ScenarioRunner};
use twig_telemetry::json::JsonObject;
use twig_telemetry::{Phase, Telemetry};

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: seeds server, learner, cluster and fault plans.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Record spans, arm telemetry and run the per-layer probes.
    pub traced: bool,
    /// About 1 % of the work: short warm-ups, a three-scenario corpus,
    /// a tenth of the probe samples.
    pub smoke: bool,
    /// Directory for the trace file and scratch checkpoints.
    pub out: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The workload.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the timed window (epochs; scenarios for
    /// `corpus`): the sample count behind the loop's medians.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// First failed check, if any.
    pub first_error: Option<String>,
    /// The metrics: end-to-end for an untraced run, per-layer for a traced
    /// one.
    pub metrics: MetricSet,
}

impl RunReport {
    /// The metric table this run reports against.
    pub fn table(&self) -> &'static [crate::metrics::MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line the driver reads: one JSON object with exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut o = JsonObject::new();
        o.field_bool("correct", self.correct);
        o.field_u64("attempted", self.attempted);
        o.field_u64("failed", self.failed);
        o.field_object("metrics", |m| {
            for (def, value) in self.metrics.over(self.table()) {
                m.field_object(def.name, |entry| {
                    entry.field_f64("value", value);
                    entry.field_str("unit", def.unit);
                });
            }
        });
        o.finish()
    }

    /// Every metric by name with its unit, one per line.
    pub fn human(&self) -> String {
        let mut out = format!(
            "workload {} ({}): {} attempted, {} failed, {}\n",
            self.workload.name(),
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" },
        );
        if let Some(e) = &self.first_error {
            out.push_str(&format!("  first failure: {e}\n"));
        }
        for (def, value) in self.metrics.over(self.table()) {
            out.push_str(&format!(
                "  {:<34} {:>16.4} {}\n",
                def.name, value, def.unit
            ));
        }
        out
    }
}

/// Builds a rig several times (see [`SETUP_BUDGET_S`]) and returns the last
/// one with the median set-up time. Each rig is dropped before the next is
/// built, so peak memory is one rig's. A smoke run builds once.
fn timed_setup<T>(
    smoke: bool,
    mut build: impl FnMut() -> Result<T, BenchError>,
) -> Result<(T, f64), BenchError> {
    let begin = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let rig = build()?;
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_MIN_REPEATS
            && (begin.elapsed().as_secs_f64() > SETUP_BUDGET_S || times.len() >= SETUP_MAX_REPEATS);
        if smoke || enough {
            return Ok((rig, median(&times)));
        }
        drop(rig);
    }
}

/// The span log of a run: sized for the window when traced, off otherwise.
fn new_log(opts: &RunOptions) -> SpanLog {
    if opts.traced {
        SpanLog::on(((opts.seconds * 250_000.0) as usize).clamp(1_024, 4_000_000))
    } else {
        SpanLog::off()
    }
}

/// Telemetry for the layers under test: armed on a traced run only.
fn telemetry(opts: &RunOptions) -> Telemetry {
    if opts.traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Records the end-to-end metrics every loop workload shares.
fn end_to_end(window: &Window, setup_s: f64, m: &mut MetricSet) {
    m.set(
        "epochs_per_s",
        median_block_rate(window.start_ns, &window.ends_ns, RATE_BLOCKS),
    );
    m.set("peak_rss_mb", window.peak_rss_mb);
    m.set("setup_s", setup_s);
}

/// Records the metrics every traced loop shares: the loop's own rate and
/// epoch times and how much of the epoch the child spans account for.
fn trace_common(window: &Window, log: &SpanLog, m: &mut MetricSet) {
    let epochs = timing(&log.durations_us("epoch"));
    m.set("trace.epochs", epochs.n as f64);
    m.set(
        "trace.epochs_per_s",
        median_block_rate(window.start_ns, &window.ends_ns, RATE_BLOCKS),
    );
    m.set("trace.epoch_p50_us", epochs.p50);
    m.set("trace.epoch_tail_us", epochs.tail);
    m.set("trace.tail_percentile", epochs.tail_pct);
    m.set(
        "trace.unaccounted_share",
        ratio(
            log.self_total_ns("epoch") as f64,
            log.total_ns("epoch") as f64,
        ),
    );
    m.set(
        "fleet.cores_available",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn sim_outputs(window: &Window, epochs: f64, m: &mut MetricSet) {
    m.set(
        "sim.requests_per_epoch",
        ratio(window.requests as f64, epochs),
    );
    m.set(
        "sim.qos_met_pct",
        100.0 * ratio(window.qos_met as f64, window.qos_total as f64),
    );
    m.set("sim.energy_j_per_epoch", ratio(window.energy_j, epochs));
}

/// Milliseconds the armed telemetry has summed per phase so far, in
/// pmc-read, inference, mapping, reward, learn order.
fn phase_sums_ms(telemetry: &Telemetry) -> [f64; 5] {
    let phases = [
        Phase::PmcRead,
        Phase::Inference,
        Phase::Mapping,
        Phase::RewardUpdate,
        Phase::LearnStep,
    ];
    let snapshot = telemetry.metrics();
    phases.map(|phase| {
        snapshot
            .as_ref()
            .and_then(|s| s.histogram(&format!("phase_ms.{}", phase.name())))
            .map_or(0.0, |h| h.mean * h.count as f64)
    })
}

fn write_trace(opts: &RunOptions, log: &SpanLog) -> Result<(), BenchError> {
    std::fs::create_dir_all(&opts.out)?;
    let path = opts
        .out
        .join(format!("trace_{}.jsonl", opts.workload.name()));
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    log.write_jsonl(&mut file)?;
    // Dropping the writer would swallow a failed final write.
    file.flush()?;
    Ok(())
}

fn run_server(opts: &RunOptions) -> Result<RunReport, BenchError> {
    let (mut rig, setup_s): (ServerRig, f64) = timed_setup(opts.smoke, || {
        server_loop::setup(opts.workload, opts.seed, telemetry(opts), opts.smoke)
    })?;
    let mut log = new_log(opts);
    let governor_before = rig.manager.stats();
    let phases_before = phase_sums_ms(&rig.telemetry);
    let agent = rig.manager.inner().agent();
    let learner_before = (
        agent.steps(),
        agent.skipped_steps(),
        agent.quarantine_stats().trips,
    );

    let mut window = server_loop::run_window(
        &mut rig,
        opts.seconds,
        opts.workload.rss_probe_at(),
        &mut log,
    );

    let epochs = window.attempted() as f64;
    let governor = rig.manager.stats();
    let safe_mode = governor.safe_mode_epochs - governor_before.safe_mode_epochs;
    let fallbacks = governor.fallback_decisions - governor_before.fallback_decisions;
    let primary_share = 1.0 - ratio((safe_mode + fallbacks) as f64, epochs);
    if opts.workload.pinned() && primary_share != 1.0 {
        window.fail(format!(
            "governor served {safe_mode} safe-mode and {fallbacks} fallback epochs on a pinned workload"
        ));
    }

    let mut m = MetricSet::new();
    if opts.traced {
        trace_common(&window, &log, &mut m);
        sim_outputs(&window, epochs, &mut m);
        let epoch_ns = log.total_ns("epoch") as f64;
        let step_ns = log.total_ns("sim.step") as f64;
        let step = timing(&log.durations_us("sim.step"));
        m.set("sim.step_p50_us", step.p50);
        m.set("sim.step_tail_us", step.tail);
        m.set("sim.step_share", ratio(step_ns, epoch_ns));
        m.set("sim.ns_per_request", ratio(step_ns, window.requests as f64));
        m.set(
            "sim.allocs_per_step",
            ratio(log.allocs("sim.step") as f64, log.count("sim.step") as f64),
        );

        let decide = log.durations_us("core.decide");
        let actuate = log.durations_us("platform.actuate");
        let observe = log.durations_us("core.observe");
        let ctrl: Vec<f64> = decide
            .iter()
            .zip(&actuate)
            .zip(&observe)
            .map(|((d, a), o)| d + a + o)
            .collect();
        let (decide, observe) = (timing(&decide), timing(&observe));
        m.set("core.decide_p50_us", decide.p50);
        m.set("core.decide_tail_us", decide.tail);
        m.set("core.observe_p50_us", observe.p50);
        m.set("core.observe_tail_us", observe.tail);
        m.set("core.ctrl_p50_us", median(&ctrl));
        m.set(
            "core.ctrl_share",
            ratio(ctrl.iter().sum::<f64>() * 1e3, epoch_ns),
        );
        m.set("platform.actuate_p50_us", median(&actuate));
        m.set(
            "core.allocs_per_epoch",
            ratio(
                (log.allocs("core.decide") + log.allocs("core.observe")) as f64,
                epochs,
            ),
        );

        let phases_after = phase_sums_ms(&rig.telemetry);
        let per_epoch_us = |i: usize| ratio((phases_after[i] - phases_before[i]) * 1e3, epochs);
        m.set("core.phase_pmc_read_us", per_epoch_us(0));
        m.set("core.phase_inference_us", per_epoch_us(1));
        m.set("core.phase_mapping_us", per_epoch_us(2));
        m.set("core.phase_reward_us", per_epoch_us(3));
        m.set("core.phase_learn_us", per_epoch_us(4));
        m.set(
            "rl.train_step_share",
            ratio((phases_after[4] - phases_before[4]) * 1e6, epoch_ns),
        );

        m.set("core.governor_primary_share", primary_share);
        m.set("core.governor_safe_mode_epochs", safe_mode as f64);
        m.set("core.governor_fallback_decisions", fallbacks as f64);
        let agent = rig.manager.inner().agent();
        m.set("rl.train_steps", (agent.steps() - learner_before.0) as f64);
        m.set(
            "rl.nonfinite_rejections",
            (agent.skipped_steps() - learner_before.1) as f64,
        );
        m.set(
            "rl.quarantine_trips",
            (agent.quarantine_stats().trips - learner_before.2) as f64,
        );
        drop(rig);
        probes::run(opts.workload, opts.seed, opts.smoke, &mut m)?;
        write_trace(opts, &log)?;
    } else {
        end_to_end(&window, setup_s, &mut m);
    }
    Ok(report(opts, window, m))
}

fn report(opts: &RunOptions, window: Window, metrics: MetricSet) -> RunReport {
    RunReport {
        workload: opts.workload,
        traced: opts.traced,
        correct: window.failed == 0,
        attempted: window.attempted().max(1),
        failed: window.failed,
        first_error: window.first_error,
        metrics,
    }
}

fn deadline_misses(cluster: &Cluster) -> u64 {
    cluster
        .nodes()
        .iter()
        .map(|n| n.scheduler_stats().misses)
        .sum()
}

fn run_fleet_n8(opts: &RunOptions) -> Result<RunReport, BenchError> {
    let (mut cluster, setup_s) =
        timed_setup(opts.smoke, || fleet_loop::setup(opts.seed, telemetry(opts)))?;
    let mut log = new_log(opts);
    let stats_before = *cluster.stats();
    let fed_before = *cluster.fed_stats();
    let misses_before = deadline_misses(&cluster);

    let mut window = fleet_loop::run_window(
        &mut cluster,
        opts.seconds,
        opts.workload.rss_probe_at(),
        &mut log,
    );

    let stats = *cluster.stats();
    let conservation_failures = stats.conservation_failures - stats_before.conservation_failures;
    if conservation_failures > 0 {
        window.fail(format!(
            "{conservation_failures} epochs with unbalanced balancer books"
        ));
    }
    let mut m = MetricSet::new();
    if opts.traced {
        let epochs = window.attempted() as f64;
        trace_common(&window, &log, &mut m);
        sim_outputs(&window, epochs, &mut m);
        let step = timing(&log.durations_us("cluster.step"));
        m.set("cluster.step_p50_us", step.p50);
        m.set("cluster.step_tail_us", step.tail);
        let nodes = (FLEET_NODES.0 + FLEET_NODES.1) as f64;
        m.set("cluster.step_us_per_node", step.p50 / nodes);
        let (mut round, mut quiet) = (Vec::new(), Vec::new());
        for span in log.spans().iter().filter(|s| s.name == "cluster.step") {
            let us = span.duration_ns() as f64 / 1e3;
            if span.flag {
                round.push(us);
            } else {
                quiet.push(us);
            }
        }
        if !round.is_empty() {
            m.set(
                "cluster.round_epoch_extra_us",
                median(&round) - median(&quiet),
            );
        }
        let fed = *cluster.fed_stats();
        m.set(
            "cluster.fed_rounds_committed",
            (fed.rounds_committed - fed_before.rounds_committed) as f64,
        );
        let rejected = |f: &twig_cluster::FedStats| {
            f.rejected_corrupt + f.rejected_shape + f.rejected_nonfinite + f.rejected_divergent
        };
        m.set(
            "cluster.fed_payloads_rejected",
            (rejected(&fed) - rejected(&fed_before)) as f64,
        );
        m.set(
            "cluster.failovers",
            (stats.failovers - stats_before.failovers) as f64,
        );
        m.set(
            "cluster.migrations_completed",
            (stats.migrations_completed - stats_before.migrations_completed) as f64,
        );
        m.set(
            "cluster.bounced_rps",
            (stats.bounced_rps - stats_before.bounced_rps) as f64,
        );
        m.set(
            "cluster.conservation_failures",
            conservation_failures as f64,
        );
        m.set(
            "core.sched_deadline_misses",
            (deadline_misses(&cluster) - misses_before) as f64,
        );
        drop(cluster);
        probes::run(opts.workload, opts.seed, opts.smoke, &mut m)?;
        write_trace(opts, &log)?;
    } else {
        end_to_end(&window, setup_s, &mut m);
    }
    Ok(report(opts, window, m))
}

/// Wall seconds of one corpus pass through `run_fleet` at two jobs.
fn fleet_pass_s(rig: &corpus::CorpusRig, seed: u64) -> Result<f64, BenchError> {
    let units: Vec<Unit<'_, ScenarioOutcome>> = rig
        .entries
        .iter()
        .map(|entry| {
            Unit::new(entry.file, move |_seed| {
                Ok(ScenarioRunner::new(parse(entry.text)?)?.run()?)
            })
        })
        .collect();
    let start = Instant::now();
    let outcomes = run_fleet(units, 2, seed).into_outputs()?;
    let wall = start.elapsed().as_secs_f64();
    for (entry, outcome) in rig.entries.iter().zip(&outcomes) {
        if let Some(why) = corpus::outcome_failure(entry, outcome) {
            return Err(format!("two-job pass: {why}").into());
        }
    }
    Ok(wall)
}

fn run_corpus(opts: &RunOptions) -> Result<RunReport, BenchError> {
    let (rig, setup_s) = timed_setup(opts.smoke, || corpus::setup(opts.smoke))?;
    let mut log = new_log(opts);
    let cw = corpus::run_window(&rig, opts.seconds, &mut log);
    let mut m = MetricSet::new();
    if opts.traced {
        trace_common(&cw.window, &log, &mut m);
        m.set("trace.epochs_per_s", cw.epochs_per_s());
        m.set(
            "scenario.parse_us",
            median(&log.durations_us("scenario.parse")),
        );
        let runs_ms: Vec<f64> = log
            .durations_us("scenario.run")
            .iter()
            .map(|us| us / 1e3)
            .collect();
        m.set("scenario.run_p50_ms", median(&runs_ms));
        m.set(
            "scenario.run_max_ms",
            runs_ms.iter().copied().fold(0.0, f64::max),
        );
        let rate_of = |cluster: bool| {
            let (epochs, wall_ns) = cw
                .runs
                .iter()
                .filter(|r| rig.entries[r.entry].cluster == cluster)
                .fold((0u64, 0u64), |(e, w), r| (e + r.epochs, w + r.wall_ns));
            ratio(epochs as f64, wall_ns as f64 / 1e9)
        };
        m.set("scenario.server_epochs_per_s", rate_of(false));
        m.set("scenario.cluster_epochs_per_s", rate_of(true));
        m.set("scenario.passed", cw.passed as f64);
        m.set("scenario.digest_match", cw.digest_match as f64);
        sim_outputs(&cw.window, cw.server_epochs as f64, &mut m);
        m.set("core.sched_deadline_misses", cw.deadline_misses as f64);
        probes::run(opts.workload, opts.seed, opts.smoke, &mut m)?;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 2 && cw.window.failed == 0 {
            let serial_s = ratio(
                cw.runs.iter().map(|r| r.wall_ns).sum::<u64>() as f64 / 1e9,
                cw.passes as f64,
            );
            m.set(
                "fleet.jobs2_speedup",
                ratio(serial_s, fleet_pass_s(&rig, opts.seed)?),
            );
        }
        write_trace(opts, &log)?;
    } else {
        m.set("epochs_per_s", cw.epochs_per_s());
        m.set("peak_rss_mb", cw.window.peak_rss_mb);
        m.set("setup_s", setup_s);
    }
    Ok(report(opts, cw.window, m))
}

/// Runs one workload once.
///
/// # Errors
///
/// Returns an error when the workload cannot be set up or a probed layer
/// cannot be built; failures inside the timed window are counted in the
/// report instead.
pub fn run(opts: &RunOptions) -> Result<RunReport, BenchError> {
    // Checkpoint stores a scenario or probe opens go under the output
    // directory, not the system's temporary directory: a run reads and
    // writes only inside its checkout.
    let scratch = opts.out.join("tmp");
    std::fs::create_dir_all(&scratch)?;
    let scratch = scratch.canonicalize()?;
    std::env::set_var("TMPDIR", &scratch);
    let report = match opts.workload {
        Workload::FleetN8 => run_fleet_n8(opts),
        Workload::Corpus => run_corpus(opts),
        _ => run_server(opts),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    report
}
