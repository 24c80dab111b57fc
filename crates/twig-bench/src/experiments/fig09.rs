//! Figure 9 — transfer learning with Twig-C.
//!
//! The paper learns with Moses + Masstree, then swaps Moses for Xapian
//! after 10 000 s (Moses/Xapian at 50 %, Masstree at 20 %). Claims:
//! without transfer the post-swap QoS guarantee starts low and recovers
//! slowly; with transfer the agent adapts "in under 10 time steps" to high
//! QoS and low energy. Shape to reproduce: the transfer run recovers its
//! QoS guarantee in far fewer epochs than the from-scratch run.

use crate::{drive, make_twig, summarize, total_energy, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_sim::{catalog, Server, ServerConfig};

/// Regenerates Figure 9, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    // Colocated (K = 2) policies see a joint state space; double the
    // compressed learning phase so both agents converge.
    let learn = opts.learn_epochs() * 2;
    let after = learn;
    let bucket = (after / 10).max(1) as usize;
    writeln!(
        out,
        "Figure 9: Twig-C transfer learning (moses+masstree -> xapian+masstree)\n"
    )?;

    let pair_before = vec![catalog::moses(), catalog::masstree()];
    let pair_after = vec![catalog::xapian(), catalog::masstree()];

    // Phase 1: learn on moses + masstree.
    let mut twig = make_twig(pair_before.clone(), learn, opts.seed)?;
    let mut server = Server::new(ServerConfig::default(), pair_before, opts.seed)?;
    server.set_load_fraction(0, 0.5)?;
    server.set_load_fraction(1, 0.2)?;
    drive(&mut server, &mut twig, learn)?;

    // Phase 2a: swap with transfer learning.
    server.replace_service(0, catalog::xapian())?;
    server.set_load_fraction(0, 0.5)?;
    twig.transfer_service(0, catalog::xapian())?;
    let transfer_reports = drive(&mut server, &mut twig, after)?;

    // Phase 2b: from scratch on the new pair.
    let mut scratch = make_twig(pair_after.clone(), learn, opts.seed ^ 0x9)?;
    let mut server2 = Server::new(ServerConfig::default(), pair_after.clone(), opts.seed)?;
    server2.set_load_fraction(0, 0.5)?;
    server2.set_load_fraction(1, 0.2)?;
    let scratch_reports = drive(&mut server2, &mut scratch, after)?;

    let mut t = TextTable::new(vec![
        "bucket",
        "transfer xapian QoS (%)",
        "transfer masstree QoS (%)",
        "transfer energy (J)",
        "scratch xapian QoS (%)",
        "scratch masstree QoS (%)",
        "scratch energy (J)",
    ]);
    let mut transfer_ramp = None;
    let mut scratch_ramp = None;
    for (i, (tc, sc)) in transfer_reports
        .chunks(bucket)
        .zip(scratch_reports.chunks(bucket))
        .enumerate()
    {
        if tc.is_empty() || sc.is_empty() {
            continue;
        }
        let ts = summarize(tc, &pair_after);
        let ss = summarize(sc, &pair_after);
        if transfer_ramp.is_none() && ts[0].qos_guarantee_pct >= 80.0 {
            transfer_ramp = Some(i);
        }
        if scratch_ramp.is_none() && ss[0].qos_guarantee_pct >= 80.0 {
            scratch_ramp = Some(i);
        }
        t.row(vec![
            i.to_string(),
            format!("{:.1}", ts[0].qos_guarantee_pct),
            format!("{:.1}", ts[1].qos_guarantee_pct),
            format!("{:.0}", total_energy(tc)),
            format!("{:.1}", ss[0].qos_guarantee_pct),
            format!("{:.1}", ss[1].qos_guarantee_pct),
            format!("{:.0}", total_energy(sc)),
        ]);
    }
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "buckets to 80% xapian QoS: transfer {transfer_ramp:?}, scratch {scratch_ramp:?} \
         (paper: transfer adapts in under 10 time steps)"
    )?;
    Ok(())
}
