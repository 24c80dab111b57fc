//! Every metric the benchmark reports: one table with name, unit,
//! direction and layer. `BENCHMARK.json` lists the same names; the
//! self-tests hold the two together.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, prefixed with its layer for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// End-to-end metrics: measured with tracing off, every workload reports
/// every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("epochs_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics: measured by the traced run. A metric whose layer is
/// not on a workload's path reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // The traced loop itself.
    higher("trace.epochs", "count"),
    higher("trace.epochs_per_s", "1/s"),
    lower("trace.epoch_p50_us", "us"),
    lower("trace.epoch_tail_us", "us"),
    higher("trace.tail_percentile", "%"),
    lower("trace.unaccounted_share", "ratio"),
    // twig-sim
    lower("sim.step_p50_us", "us"),
    lower("sim.step_tail_us", "us"),
    lower("sim.step_share", "ratio"),
    higher("sim.requests_per_epoch", "count"),
    lower("sim.ns_per_request", "ns"),
    lower("sim.allocs_per_step", "count"),
    lower("sim.queue_run_epoch_us", "us"),
    lower("sim.pmc_synthesize_ns", "ns"),
    higher("sim.qos_met_pct", "%"),
    lower("sim.energy_j_per_epoch", "J"),
    // twig-core
    lower("core.decide_p50_us", "us"),
    lower("core.decide_tail_us", "us"),
    lower("core.observe_p50_us", "us"),
    lower("core.observe_tail_us", "us"),
    lower("core.ctrl_p50_us", "us"),
    lower("core.ctrl_share", "ratio"),
    lower("core.phase_pmc_read_us", "us"),
    lower("core.phase_inference_us", "us"),
    lower("core.phase_mapping_us", "us"),
    lower("core.phase_reward_us", "us"),
    lower("core.phase_learn_us", "us"),
    lower("core.monitor_update_us", "us"),
    lower("core.mapper_assign_us", "us"),
    lower("core.ckpt_store_write_us", "us"),
    lower("core.ckpt_store_recover_us", "us"),
    higher("core.governor_primary_share", "ratio"),
    lower("core.governor_safe_mode_epochs", "count"),
    lower("core.governor_fallback_decisions", "count"),
    lower("core.sched_deadline_misses", "count"),
    lower("core.allocs_per_epoch", "count"),
    // twig-rl
    lower("rl.train_step_p50_us", "us"),
    lower("rl.train_step_tail_us", "us"),
    lower("rl.train_step_share", "ratio"),
    lower("rl.select_fused_p50_us", "us"),
    lower("rl.select_quantized_p50_us", "us"),
    lower("rl.ckpt_encode_us", "us"),
    lower("rl.ckpt_decode_us", "us"),
    lower("rl.fed_screen_us", "us"),
    lower("rl.fed_merge_us", "us"),
    higher("rl.train_steps", "count"),
    lower("rl.ckpt_bytes", "count"),
    lower("rl.nonfinite_rejections", "count"),
    lower("rl.quarantine_trips", "count"),
    lower("rl.steady_allocs", "count"),
    // twig-nn
    lower("nn.forward_b64_us", "us"),
    lower("nn.backward_b64_us", "us"),
    higher("nn.gemm_64x96x64_gflops", "GFLOP/s"),
    lower("nn.gemm_8x16x12_ns", "ns"),
    lower("nn.quant_forward_us", "us"),
    // twig-platform
    lower("platform.actuate_p50_us", "us"),
    lower("platform.linux_actuate_us", "us"),
    lower("platform.linux_observe_us", "us"),
    lower("platform.linux_retries", "count"),
    lower("platform.linux_divergences", "count"),
    // twig-cluster
    lower("cluster.step_p50_us", "us"),
    lower("cluster.step_tail_us", "us"),
    lower("cluster.step_us_per_node", "us"),
    lower("cluster.round_epoch_extra_us", "us"),
    lower("cluster.step_us_n4", "us"),
    lower("cluster.step_us_n16", "us"),
    lower("cluster.balancer_route_us", "us"),
    lower("cluster.coordinator_tick_us", "us"),
    lower("cluster.node_serve_epoch_us", "us"),
    higher("cluster.fed_rounds_committed", "count"),
    lower("cluster.fed_payloads_rejected", "count"),
    lower("cluster.failovers", "count"),
    higher("cluster.migrations_completed", "count"),
    lower("cluster.bounced_rps", "count"),
    lower("cluster.conservation_failures", "count"),
    // twig-scenario
    lower("scenario.parse_us", "us"),
    lower("scenario.run_p50_ms", "ms"),
    lower("scenario.run_max_ms", "ms"),
    higher("scenario.server_epochs_per_s", "1/s"),
    higher("scenario.cluster_epochs_per_s", "1/s"),
    higher("scenario.passed", "count"),
    higher("scenario.digest_match", "count"),
    // twig-bench fleet
    higher("fleet.jobs2_speedup", "ratio"),
    higher("fleet.cores_available", "count"),
];

/// Metrics only the ledger (`run.sh` without `--trace`) can compute,
/// because they compare two runs or time the build.
pub const LEDGER_ONLY: &[MetricDef] = &[
    lower("telemetry.armed_overhead_pct", "%"),
    lower("build.release_s", "s"),
];

/// Per-layer metrics that repeat bit for bit at a fixed seed whatever the
/// window length: counts of fixed-size probes.
pub const EXACT_AT_A_SEED: &[&str] = &[
    "rl.steady_allocs",
    "rl.ckpt_bytes",
    "platform.linux_retries",
    "platform.linux_divergences",
];

/// Per-layer metrics that also repeat exactly on `corpus`, whose scenarios
/// seed themselves and whose simulated outputs are taken from one pass.
pub const EXACT_ON_CORPUS: &[&str] = &[
    "scenario.passed",
    "scenario.digest_match",
    "sim.qos_met_pct",
    "sim.energy_j_per_epoch",
    "sim.requests_per_epoch",
    "core.sched_deadline_misses",
];

/// Looks a definition up in every table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(LEDGER_ONLY)
        .find(|d| d.name == name)
}

/// Values measured by one run, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` for `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in a metric table: a metric nobody
    /// defined cannot be reported.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name} is not defined"));
        self.values.insert(def.name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The value of every metric of `table`, in table order; a metric the
    /// run did not record reads 0.
    pub fn over<'a>(
        &'a self,
        table: &'static [MetricDef],
    ) -> impl Iterator<Item = (&'static MetricDef, f64)> + 'a {
        table.iter().map(|d| (d, self.get(d.name).unwrap_or(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER).chain(LEDGER_ONLY) {
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn end_to_end_has_bounds_and_setup() {
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn unset_metrics_read_zero_and_undefined_ones_are_refused() {
        let mut set = MetricSet::new();
        set.set("setup_s", 0.5);
        let all: Vec<_> = set.over(END_TO_END).collect();
        assert_eq!(all.len(), END_TO_END.len());
        assert_eq!(set.get("setup_s"), Some(0.5));
        assert!(all
            .iter()
            .any(|(d, v)| d.name == "epochs_per_s" && *v == 0.0));
        assert!(std::panic::catch_unwind(|| MetricSet::new().set("nope", 1.0)).is_err());
    }
}
