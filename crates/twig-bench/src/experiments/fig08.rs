//! Figure 8 — transfer learning with Twig-S.
//!
//! The paper trains on Masstree for 10 000 s, then swaps in Moses, Img-dnn
//! and Xapian (at 50 % load each) keeping the trunk weights and
//! re-initialising the final layer. Claims: transfer cuts learning time by
//! ~33 % versus from scratch at similar tardiness. Shapes to reproduce:
//! with transfer, the QoS guarantee recovers in fewer buckets than learning
//! from scratch.

use crate::{drive, make_twig, summarize, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_core::Twig;
use twig_sim::{catalog, Server, ServerConfig, ServiceSpec};

fn fresh_twig(spec: ServiceSpec, learn: u64, seed: u64) -> Result<Twig, ExpError> {
    make_twig(vec![spec], learn, seed)
}

/// Per-bucket QoS guarantee and mean tardiness after the swap, plus the
/// total violation epochs during the adaptation phase (the first half of
/// the window) — the cost the operator pays while the manager re-learns.
fn series(
    server: &mut Server,
    twig: &mut Twig,
    spec: &ServiceSpec,
    epochs: u64,
    bucket: usize,
) -> Result<(Vec<(f64, f64)>, usize), ExpError> {
    let reports = drive(server, twig, epochs)?;
    let adaptation_violations = reports[..reports.len() / 2]
        .iter()
        .filter(|r| r.services[0].p99_ms > spec.qos_ms)
        .count();
    let buckets = reports
        .chunks(bucket)
        .filter(|c| !c.is_empty())
        .map(|chunk| {
            let s = summarize(chunk, std::slice::from_ref(spec));
            (s[0].qos_guarantee_pct, s[0].mean_tardiness)
        })
        .collect();
    Ok((buckets, adaptation_violations))
}

/// Buckets needed to first reach a sustained 95 % guarantee (`None` if
/// never): random exploration already meets QoS often at 50 % load, so a
/// lower bar cannot separate transfer from scratch.
fn ramp_buckets(series: &[(f64, f64)]) -> Option<usize> {
    series.iter().position(|&(q, _)| q >= 95.0)
}

/// Regenerates Figure 8, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let learn = opts.learn_epochs();
    let after = learn; // observation span after the swap
    let bucket = (after / 40).max(1) as usize;
    writeln!(out, "Figure 8: Twig-S transfer learning (pre-train on masstree {learn} epochs, {bucket}-epoch buckets)\n")?;

    // Pre-train once on masstree at 50%.
    let mut donor = fresh_twig(catalog::masstree(), learn, opts.seed)?;
    let mut server = Server::new(
        ServerConfig::default(),
        vec![catalog::masstree()],
        opts.seed,
    )?;
    server.set_load_fraction(0, 0.5)?;
    drive(&mut server, &mut donor, learn)?;

    let mut table = TextTable::new(vec![
        "service",
        "mode",
        "buckets to 95% QoS",
        "violations while adapting",
        "final QoS (%)",
        "final mean tardiness",
    ]);
    let mut ramps: Vec<(String, usize, usize)> = Vec::new();
    for target in [catalog::moses(), catalog::img_dnn(), catalog::xapian()] {
        // Transfer: clone the trained manager, swap the service.
        let mut transferred = donor.clone();
        transferred.transfer_service(0, target.clone())?;
        let mut server = Server::new(ServerConfig::default(), vec![target.clone()], opts.seed)?;
        server.set_load_fraction(0, 0.5)?;
        let (s_transfer, v_transfer) =
            series(&mut server, &mut transferred, &target, after, bucket)?;

        // Scratch: a fresh manager learning the new service from zero.
        let mut scratch = fresh_twig(target.clone(), learn, opts.seed ^ 0x5c)?;
        let mut server = Server::new(ServerConfig::default(), vec![target.clone()], opts.seed)?;
        server.set_load_fraction(0, 0.5)?;
        let (s_scratch, v_scratch) = series(&mut server, &mut scratch, &target, after, bucket)?;

        for (mode, s, v) in [
            ("transfer", &s_transfer, v_transfer),
            ("scratch", &s_scratch, v_scratch),
        ] {
            let last = s.last().expect("non-empty series");
            table.row(vec![
                target.name.clone(),
                mode.to_string(),
                ramp_buckets(s).map_or("never".into(), |b| b.to_string()),
                v.to_string(),
                format!("{:.1}", last.0),
                format!("{:.2}", last.1),
            ]);
        }
        ramps.push((target.name.clone(), v_transfer, v_scratch));
    }
    writeln!(out, "{table}")?;
    for (name, vt, vs) in ramps {
        if vs > 0 {
            writeln!(out,
                "{name}: transfer pays {vt} violation epochs while adapting vs {vs} from scratch                  ({:.0}% less; the paper reports ~33% shorter learning time)",
                100.0 * (1.0 - vt as f64 / vs as f64)
            )?;
        } else {
            writeln!(out, "{name}: neither mode violated while adapting")?;
        }
    }
    Ok(())
}
