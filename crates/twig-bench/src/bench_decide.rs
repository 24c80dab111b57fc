//! CI decide-latency benchmark for the fused K-agent inference path.
//!
//! Sweeps the agent count (4 / 16 / 64 / 128) over a production-shaped
//! network (state 11, branches [18, 9], trunk [96, 64], heads 48) and
//! measures per-decide wall latency of two paths after an untimed warm-up:
//! the fused batched path (`select_actions_into`) and the per-agent
//! reference loop (`select_actions_unfused_into`). Reports p50/p99
//! in microseconds, the fused-over-unfused speedup, steady-state heap
//! allocations of the fused path under the counting global allocator, and
//! a fused-vs-unfused bit-identity verdict, all to a JSON report (default
//! `results/BENCH_decide.json`, override with a positional path argument).
//!
//! Gates (exit non-zero): the fused path must be bit-identical to the
//! per-agent loop at every swept K, allocation-free in steady state, and —
//! in full mode — at least 2x faster at K=64. `--baseline <path>` adds a
//! regression check against a committed report: each `k*_fused_p50_us`
//! may grow at most 1.5x (noise tolerance) over the baseline value.
//! `--smoke` shrinks the sample count for CI smoke lanes and skips the
//! speedup gate (short timed windows on shared runners are too noisy to
//! fail a build over), while keeping the correctness gates.

use std::time::Instant;
use twig_nn::count_alloc;
use twig_rl::{MaBdq, MaBdqConfig};
use twig_stats::percentile;
use twig_stats::rng::{Rng, Xoshiro256};

/// Bumped whenever a key is added/renamed; `scripts/check.sh` greps the
/// committed baseline for the load-bearing keys of this schema.
const SCHEMA_VERSION: u32 = 1;
const AGENT_SWEEP: [usize; 4] = [4, 16, 64, 128];
/// Paper-scale decision problem: 11 PMC-derived state features, an
/// 18-way core branch and a 9-step DVFS branch per service.
const STATE_DIM: usize = 11;
const BRANCHES: [usize; 2] = [18, 9];
const EPSILON: f64 = 0.05;

fn agent_config(agents: usize) -> MaBdqConfig {
    MaBdqConfig {
        agents,
        state_dim: STATE_DIM,
        branches: BRANCHES.to_vec(),
        trunk_hidden: vec![96, 64],
        head_hidden: 48,
        dropout: 0.1,
        buffer_capacity: 256,
        seed: 42,
        ..MaBdqConfig::default()
    }
}

struct SweepPoint {
    agents: usize,
    fused_p50_us: f64,
    fused_p99_us: f64,
    unfused_p50_us: f64,
    unfused_p99_us: f64,
    speedup: f64,
    fused_allocs: u64,
    bit_identical: bool,
}

/// One timed decide per iteration; the states vary every iteration (fresh
/// telemetry every epoch in production) but are identical across the two
/// paths and pre-generated outside the timed region.
fn run_sweep(agents: usize, iters: usize) -> SweepPoint {
    let mut agent = MaBdq::new(agent_config(agents)).expect("agent");
    let mut rng = Xoshiro256::seed_from_u64(7 + agents as u64);
    let epochs: Vec<Vec<Vec<f32>>> = (0..iters)
        .map(|_| {
            (0..agents)
                .map(|_| (0..STATE_DIM).map(|_| rng.range_f32(-1.0, 1.0)).collect())
                .collect()
        })
        .collect();

    // Bit-identity: twin clones share weights and RNG streams; the fused
    // and per-agent paths must agree action-for-action, bit-for-bit.
    let mut twin_a = agent.clone();
    let mut twin_b = agent.clone();
    let mut act_a: Vec<Vec<usize>> = Vec::new();
    let mut act_b: Vec<Vec<usize>> = Vec::new();
    let mut q_a: Vec<Vec<Vec<f32>>> = Vec::new();
    let mut q_b: Vec<Vec<Vec<f32>>> = Vec::new();
    let mut bit_identical = true;
    for states in epochs.iter().take(16) {
        twin_a
            .select_actions_into(states, EPSILON, &mut act_a)
            .expect("fused select");
        twin_b
            .select_actions_unfused_into(states, EPSILON, &mut act_b)
            .expect("unfused select");
        twin_a.q_values_into(states, &mut q_a).expect("fused q");
        twin_b
            .q_values_unfused_into(states, &mut q_b)
            .expect("unfused q");
        let q_bits_equal = q_a.iter().flatten().flatten().map(|f| f.to_bits()).eq(q_b
            .iter()
            .flatten()
            .flatten()
            .map(|f| f.to_bits()));
        if act_a != act_b || !q_bits_equal {
            bit_identical = false;
        }
    }

    // Warm-up sizes every scratch buffer so the timed loops are
    // steady-state (and allocation-free, which we assert for the fused
    // path).
    let mut actions: Vec<Vec<usize>> = Vec::new();
    for states in epochs.iter().take(8) {
        agent
            .select_actions_into(states, EPSILON, &mut actions)
            .expect("warm fused");
        agent
            .select_actions_unfused_into(states, EPSILON, &mut actions)
            .expect("warm unfused");
    }

    let mut fused_us: Vec<f64> = Vec::with_capacity(iters);
    let mut unfused_us: Vec<f64> = Vec::with_capacity(iters);

    let alloc_start = count_alloc::allocation_count();
    for states in &epochs {
        let t0 = Instant::now();
        agent
            .select_actions_into(states, EPSILON, &mut actions)
            .expect("fused select");
        fused_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let fused_allocs = count_alloc::allocations_since(alloc_start);

    for states in &epochs {
        let t0 = Instant::now();
        agent
            .select_actions_unfused_into(states, EPSILON, &mut actions)
            .expect("unfused select");
        unfused_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let p = |v: &mut [f64], q: f64| percentile(v, q).expect("percentile");
    let fused_p50 = p(&mut fused_us, 50.0);
    let unfused_p50 = p(&mut unfused_us, 50.0);
    SweepPoint {
        agents,
        fused_p50_us: fused_p50,
        fused_p99_us: p(&mut fused_us, 99.0),
        unfused_p50_us: unfused_p50,
        unfused_p99_us: p(&mut unfused_us, 99.0),
        speedup: unfused_p50 / fused_p50,
        fused_allocs,
        bit_identical,
    }
}

/// Pulls `"key": <number>` out of a flat JSON report without a parser
/// dependency. Returns `None` when the key is absent.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_decide: {msg}");
    eprintln!("usage: twig-bench bench_decide [--smoke] [--baseline <path>] [out.json]");
    std::process::exit(2);
}

/// Runs the sweep with the subcommand's own arguments (`[--smoke]
/// [--baseline <path>] [out.json]`), writing and printing the report.
/// Exits the process non-zero on a usage error or a gate violation.
pub fn run(mut args: impl Iterator<Item = String>) {
    let mut out_path = "results/BENCH_decide.json".to_string();
    let mut smoke = false;
    let mut baseline_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(p),
                None => usage_error("--baseline needs a path"),
            },
            other if other.starts_with('-') => {
                usage_error(&format!("unknown flag {other}"));
            }
            other => out_path = other.to_string(),
        }
    }
    let iters = if smoke { 60 } else { 400 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "bench_decide: K in {AGENT_SWEEP:?}, {iters} decides per path per K, host has {cores} core(s)"
    );

    let points: Vec<SweepPoint> = AGENT_SWEEP.iter().map(|&k| run_sweep(k, iters)).collect();

    let mut body = String::new();
    for pt in &points {
        let k = pt.agents;
        body.push_str(&format!(
            concat!(
                "  \"k{k}_fused_p50_us\": {fp50:.2},\n",
                "  \"k{k}_fused_p99_us\": {fp99:.2},\n",
                "  \"k{k}_unfused_p50_us\": {up50:.2},\n",
                "  \"k{k}_unfused_p99_us\": {up99:.2},\n",
                "  \"k{k}_speedup\": {sp:.3},\n",
            ),
            k = k,
            fp50 = pt.fused_p50_us,
            fp99 = pt.fused_p99_us,
            up50 = pt.unfused_p50_us,
            up99 = pt.unfused_p99_us,
            sp = pt.speedup,
        ));
    }
    let bit_identical = points.iter().all(|p| p.bit_identical);
    let total_allocs: u64 = points.iter().map(|p| p.fused_allocs).sum();
    let speedup_k64 = points
        .iter()
        .find(|p| p.agents == 64)
        .map(|p| p.speedup)
        .unwrap_or(0.0);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"decide\",\n",
            "  \"schema_version\": {sv},\n",
            "  \"smoke\": {smoke},\n",
            "  \"cores_available\": {cores},\n",
            "  \"kernel\": \"{kernel}\",\n",
            "  \"state_dim\": {sd},\n",
            "  \"branches\": [18, 9],\n",
            "  \"iters_per_path\": {iters},\n",
            "{body}",
            "  \"speedup_k64\": {s64:.3},\n",
            "  \"fused_bit_identical\": {ident},\n",
            "  \"fused_steady_state_allocations\": {allocs}\n",
            "}}\n"
        ),
        sv = SCHEMA_VERSION,
        smoke = smoke,
        cores = cores,
        kernel = twig_nn::kernel(),
        sd = STATE_DIM,
        iters = iters,
        body = body,
        s64 = speedup_k64,
        ident = bit_identical,
        allocs = total_allocs,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write bench report");
    print!("{json}");

    let mut violations = Vec::new();
    if !bit_identical {
        violations.push("fused path is not bit-identical to the per-agent loop".to_string());
    }
    if total_allocs != 0 {
        violations.push(format!(
            "fused decide allocated {total_allocs} times in steady state"
        ));
    }
    if !smoke && speedup_k64 < 2.0 {
        violations.push(format!("fused speedup at K=64 is {speedup_k64:.2}x < 2.0x"));
    }
    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("bench_decide FAIL: cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        for pt in &points {
            // Gate on p50: the median is stable run to run (within ~10% on a
            // shared machine) while the p99 of a 400-sample sweep is a single
            // order statistic that a stray context switch can double. p99 is
            // still recorded in the report for eyeballing tail drift.
            let key = format!("k{}_fused_p50_us", pt.agents);
            match json_number(&baseline, &key) {
                Some(base) if pt.fused_p50_us > base * 1.5 => violations.push(format!(
                    "{key} regressed: {:.1}us > 1.5 x baseline {base:.1}us",
                    pt.fused_p50_us
                )),
                Some(_) => {}
                None => violations.push(format!("baseline {path} is missing {key}")),
            }
        }
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("bench_decide FAIL: {v}");
        }
        std::process::exit(1);
    }
    eprintln!("bench_decide: ok (report at {out_path})");
}
