//! Figure 1 — can tail latency be predicted from PMCs, and is IPC alone
//! enough?
//!
//! The motivation experiment: Memcached and Web-Search run with all cores
//! at the highest DVFS setting while the incoming load varies; a deep
//! regressor is trained to predict the measured p99 from (a) all 11
//! counters and (b) IPC alone. The paper reports, over 30 000 samples:
//! Memcached multi-PMC error −0.286 ± 0.63 ms vs IPC 0.45 ± 2.13 ms;
//! Web-Search −0.132 ± 0.37 ms vs 0.24 ± 0.72 ms; and the probability of
//! zero prediction error rising ≥ 1.91x (3.36x best case) with multiple
//! PMCs. The shapes that must reproduce: multi-PMC error is much tighter,
//! and per-latency-bucket medians sit near zero only for multi-PMC.

use crate::{run_fleet, ExpError, Options, Scale, TextTable, Unit};
use std::fmt::Write as _;
use twig_nn::{mse_loss, Adam, Dense, Mlp, Relu, Tensor};
use twig_sim::pmc::calibration_maxima;
use twig_sim::{catalog, Assignment, Server, ServerConfig, ServiceSpec};
use twig_stats::rng::{Rng, Xoshiro256};
use twig_stats::{Histogram, Summary, ViolinSummary};

struct Dataset {
    pmc_features: Vec<Vec<f32>>, // 11 scaled counters
    ipc_features: Vec<Vec<f32>>, // 1 value
    latencies_ms: Vec<f32>,
}

fn gather(spec: &ServiceSpec, samples: usize, seed: u64) -> Result<Dataset, ExpError> {
    let cfg = ServerConfig::default();
    let maxima = calibration_maxima(cfg.cores)?;
    let mut server = Server::new(cfg.clone(), vec![spec.clone()], seed)?;
    let assignment = vec![Assignment::first_n(cfg.cores, cfg.dvfs.max())];
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xF16);
    let mut data = Dataset {
        pmc_features: Vec::with_capacity(samples),
        ipc_features: Vec::with_capacity(samples),
        latencies_ms: Vec::with_capacity(samples),
    };
    let mut load: f64 = 0.5;
    while data.latencies_ms.len() < samples {
        // Random-walk the load so consecutive epochs are correlated, as a
        // real load trace is.
        load = (load + rng.range_f64(-0.08, 0.08)).clamp(0.05, 1.0);
        server.set_load_fraction(0, load)?;
        let report = server.step(&assignment)?;
        let svc = &report.services[0];
        if svc.completed == 0 {
            continue;
        }
        let scaled: Vec<f32> = svc
            .pmcs
            .as_array()
            .iter()
            .zip(&maxima)
            .map(|(&v, &m)| (v / m) as f32)
            .collect();
        data.pmc_features.push(scaled);
        data.ipc_features.push(vec![(svc.pmcs.ipc() / 4.0) as f32]);
        data.latencies_ms
            .push(svc.p99_ms.min(spec.qos_ms * 10.0) as f32);
    }
    Ok(data)
}

/// Trains a regressor and returns signed test-set errors (pred − actual) in
/// ms, paired with the actual latencies.
fn train_and_eval(
    xs: &[Vec<f32>],
    ys: &[f32],
    seed: u64,
    passes: usize,
) -> Result<Vec<(f64, f64)>, ExpError> {
    let n = xs.len();
    let split = n * 4 / 5;
    let in_dim = xs[0].len();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut net = Mlp::new()
        .push(Dense::new(in_dim, 48, &mut rng))
        .push(Relu::new())
        .push(Dense::new(48, 24, &mut rng))
        .push(Relu::new())
        .push(Dense::new(24, 1, &mut rng));
    let mut adam = Adam::new(0.003);
    let batch = 64;
    for _ in 0..passes {
        let mut order: Vec<usize> = (0..split).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize_inclusive(0, i));
        }
        for chunk in order.chunks(batch) {
            let x = Tensor::from_rows(&chunk.iter().map(|&i| xs[i].clone()).collect::<Vec<_>>())?;
            let y = Tensor::from_rows(&chunk.iter().map(|&i| vec![ys[i]]).collect::<Vec<_>>())?;
            let pred = net.forward(&x, true);
            let (_, grad) = mse_loss(&pred, &y, None)?;
            net.zero_grads();
            net.backward(&grad);
            net.apply(&mut adam);
        }
    }
    let mut errors = Vec::with_capacity(n - split);
    for i in split..n {
        let pred = net.forward(&Tensor::from_row(&xs[i]), false);
        errors.push(((pred.as_slice()[0] - ys[i]) as f64, ys[i] as f64));
    }
    Ok(errors)
}

/// Probability density of zero error, estimated from a fine histogram.
fn zero_density(errors: &[(f64, f64)], half_range: f64) -> f64 {
    let mut h = Histogram::new(-half_range, half_range, 81).expect("valid histogram");
    h.extend(errors.iter().map(|&(e, _)| e));
    let d = h.density();
    d[d.len() / 2]
}

/// One fleet unit's worth of Figure 1: gather + train both models for one
/// service with the given seed, returning the narrative/violin section and
/// the two rows destined for the combined stats table.
///
/// # Errors
///
/// Propagates simulator and training errors.
fn service_unit(
    spec: &twig_sim::ServiceSpec,
    samples: usize,
    passes: usize,
    seed: u64,
) -> Result<(String, Vec<Vec<String>>), ExpError> {
    let mut out = String::new();
    let data = gather(spec, samples, seed)?;
    let pmc_err = train_and_eval(&data.pmc_features, &data.latencies_ms, seed, passes)?;
    let ipc_err = train_and_eval(&data.ipc_features, &data.latencies_ms, seed, passes)?;

    let summarise = |errs: &[(f64, f64)]| {
        Summary::from_data(&errs.iter().map(|&(e, _)| e).collect::<Vec<_>>())
            .expect("non-empty errors")
    };
    let s_pmc = summarise(&pmc_err);
    let s_ipc = summarise(&ipc_err);
    let half = (3.0 * s_ipc.stddev).max(0.5);
    let d_pmc = zero_density(&pmc_err, half);
    let d_ipc = zero_density(&ipc_err, half);

    let rows = vec![
        vec![
            spec.name.clone(),
            "multi-PMC".into(),
            format!("{:+.3}", s_pmc.mean),
            format!("{:.3}", s_pmc.stddev),
            format!("{d_pmc:.3}"),
        ],
        vec![
            spec.name.clone(),
            "IPC only".into(),
            format!("{:+.3}", s_ipc.mean),
            format!("{:.3}", s_ipc.stddev),
            format!("{d_ipc:.3}"),
        ],
    ];
    let ratio = if d_ipc > 0.0 {
        d_pmc / d_ipc
    } else {
        f64::INFINITY
    };
    writeln!(
        out,
        "{}: zero-error density ratio PMC/IPC = {ratio:.2}x (paper: >= 1.91x)",
        spec.name
    )?;

    // Violin view: prediction error by measured-latency bucket.
    let max_lat = pmc_err.iter().map(|&(_, l)| l).fold(0.0f64, f64::max);
    let mut violin = TextTable::new(vec![
        "latency bucket (ms)",
        "PMC median err",
        "PMC std",
        "IPC median err",
        "IPC std",
    ]);
    let buckets = 5;
    let mut v_pmc = ViolinSummary::new(0.0, max_lat + 1e-9, buckets)?;
    let mut v_ipc = ViolinSummary::new(0.0, max_lat + 1e-9, buckets)?;
    for &(e, l) in &pmc_err {
        v_pmc.record(l, e);
    }
    for &(e, l) in &ipc_err {
        v_ipc.record(l, e);
    }
    let edges = v_pmc.bucket_edges();
    let sp = v_pmc.bucket_summaries();
    let si = v_ipc.bucket_summaries();
    for b in 0..buckets {
        let fmt = |s: &Option<Summary>, f: fn(&Summary) -> f64| {
            s.as_ref()
                .map_or("-".to_string(), |s| format!("{:+.3}", f(s)))
        };
        violin.row(vec![
            format!("[{:.2}, {:.2})", edges[b], edges[b + 1]),
            fmt(&sp[b], |s| s.median),
            fmt(&sp[b], |s| s.stddev),
            fmt(&si[b], |s| s.median),
            fmt(&si[b], |s| s.stddev),
        ]);
    }
    writeln!(
        out,
        "\n{} error-by-latency (violin) summary:\n{violin}",
        spec.name
    )?;
    Ok((out, rows))
}

/// Sample count / training passes at the current scale.
pub fn scale(opts: &Options) -> (usize, usize) {
    match opts.scale {
        Scale::Smoke => (1_200, 6),
        Scale::Fast => (6_000, 15),
        Scale::Full => (30_000, 30),
    }
}

/// Regenerates Figure 1, appending to `out`. One fleet unit per service
/// (`--jobs` parallel); each unit derives its own seed, so the figure is
/// bit-identical at any job count.
///
/// # Errors
///
/// Propagates simulator and training errors, naming failed units.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let (samples, passes) = scale(opts);
    writeln!(
        out,
        "Figure 1: tail-latency prediction error, multi-PMC vs IPC-only"
    )?;
    writeln!(
        out,
        "({samples} samples per service, max cores, max DVFS, varying load)\n"
    )?;

    let units = [catalog::memcached(), catalog::web_search()]
        .into_iter()
        .map(|spec| {
            Unit::new(format!("fig01/{}", spec.name), move |seed| {
                service_unit(&spec, samples, passes, seed)
            })
        })
        .collect();
    let run = run_fleet(units, opts.jobs, opts.seed);
    let mut stats_table = TextTable::new(vec![
        "service",
        "model",
        "mean err (ms)",
        "std (ms)",
        "P(err ~ 0) density",
    ]);
    for (section, rows) in run.into_outputs()? {
        out.push_str(&section);
        for row in rows {
            stats_table.row(row);
        }
    }
    writeln!(out, "{stats_table}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmc_model_beats_ipc_model() {
        // Small-scale version of the full experiment: the multi-PMC error
        // std must be tighter than IPC-only.
        let spec = catalog::memcached();
        let data = gather(&spec, 1500, 7).unwrap();
        let pmc = train_and_eval(&data.pmc_features, &data.latencies_ms, 7, 10).unwrap();
        let ipc = train_and_eval(&data.ipc_features, &data.latencies_ms, 7, 10).unwrap();
        let std = |errs: &[(f64, f64)]| {
            twig_stats::stddev(&errs.iter().map(|&(e, _)| e).collect::<Vec<_>>()).unwrap()
        };
        assert!(
            std(&pmc) < std(&ipc),
            "PMC std {:.3} should beat IPC std {:.3}",
            std(&pmc),
            std(&ipc)
        );
    }
}
