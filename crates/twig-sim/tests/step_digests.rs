//! Golden digests of `Server::step`, recorded on the commit *before* the
//! simulator's buffers moved into `Server` and the p99 became a selection.
//!
//! Each digest folds every `EpochReport` field of 2 000 epochs — p99 bits,
//! completed / dropped / queue length, all 11 PMCs, measured and true power,
//! energy, migrations, the applied actuation and the telemetry-health flags
//! — **except** `ServiceEpoch::mean_ms`, whose summation order is not part
//! of the contract (see DESIGN.md §10). A change to the simulator that moves
//! one of these constants has changed what every report under `results/` is
//! built from; `scripts/check.sh` runs this file under the dev profile and
//! under `--release`, because the reports are produced by release codegen.

use twig_sim::{
    catalog, Assignment, CoreId, EpochReport, FaultConfig, FaultPlan, Frequency, LoadGenerator,
    PmcFaultKind, Server, ServerConfig, ServiceSpec,
};

const EPOCHS: u64 = 2_000;

/// Recorded at commit bbaa79c (the parent of the simulator rewrite), dev and
/// `--release` profiles alike.
const C2_DIURNAL: u64 = 0x920c_3057_1a6a_a1a3;
const K24_SHARED: u64 = 0x12f7_5a50_8ad2_590c;
const OVERLOADED: u64 = 0x43f8_1d65_4fe2_3c0a;
const FAULTED: u64 = 0xc12a_eead_7f4b_37ff;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn report(&mut self, r: &EpochReport) {
        self.word(r.time_s);
        self.word(r.services.len() as u64);
        for s in &r.services {
            for byte in s.name.bytes() {
                self.word(u64::from(byte));
            }
            self.float(s.offered_rps);
            self.float(s.load_fraction);
            self.float(s.p99_ms);
            // `mean_ms` deliberately left out.
            assert!(s.mean_ms.is_finite());
            self.word(s.completed as u64);
            self.word(s.dropped);
            self.word(s.queue_len as u64);
            for &c in s.pmcs.as_array() {
                self.float(c);
            }
            self.word(s.core_count as u64);
            self.word(u64::from(s.freq.mhz()));
            self.word(s.migrated_cores as u64);
        }
        self.float(r.power_w);
        self.float(r.true_power_w);
        self.float(r.energy_j);
        self.word(r.migrations as u64);
        self.word(r.actuation.len() as u64);
        for a in &r.actuation {
            self.word(a.cores.len() as u64);
            for c in &a.cores {
                self.word(c.index() as u64);
            }
            self.word(u64::from(a.freq.mhz()));
            self.word(u64::from(a.rejected));
            self.word(u64::from(a.clamped));
            self.word(a.cores_lost_offline as u64);
        }
        for f in &r.telemetry.pmc_faults {
            self.word(match f {
                None => 0,
                Some(PmcFaultKind::Nan) => 1,
                Some(PmcFaultKind::Inf) => 2,
                Some(PmcFaultKind::Zero) => 3,
                Some(PmcFaultKind::Stale) => 4,
            });
        }
        self.word(r.telemetry.delayed_epochs as u64);
        self.word(u64::from(r.telemetry.power_glitched));
        self.word(r.telemetry.offline_cores as u64);
    }
}

fn cores(range: std::ops::Range<usize>) -> Vec<CoreId> {
    range.map(CoreId).collect()
}

fn ladder_freq(step: u64) -> Frequency {
    let dvfs = ServerConfig::default().dvfs;
    dvfs.frequency_at(step as usize % dvfs.len())
        .expect("index below ladder length")
}

/// Drives `server` for [`EPOCHS`] epochs with `assign(t)`, digests every
/// report and shows each to `watch` (so a scenario can assert that it
/// exercised what it is named after).
fn digest(
    server: &mut Server,
    mut assign: impl FnMut(u64) -> Vec<Assignment>,
    mut watch: impl FnMut(&EpochReport),
) -> u64 {
    let mut fnv = Fnv::new();
    for t in 0..EPOCHS {
        let report = server.step(&assign(t)).expect("valid assignment");
        fnv.report(&report);
        watch(&report);
    }
    fnv.0
}

/// Masstree + moses under two opposed diurnal loads. The assignment walks
/// through disjoint, overlapping, unsorted, repeated-core and parked shapes
/// and every DVFS step, so migrations, time sharing and the "nothing
/// completed but work is waiting" branch are all in the digest.
#[test]
fn c2_diurnal_alternating_assignments() {
    let mut server = Server::new(
        ServerConfig::default(),
        vec![catalog::masstree(), catalog::moses()],
        42,
    )
    .unwrap();
    let diurnal = LoadGenerator::diurnal(0.2, 0.9, 240).unwrap();
    let opposed = (0..240).map(|t| diurnal.fraction_at(t + 120)).collect();
    server.set_load_generator(0, diurnal).unwrap();
    server
        .set_load_generator(1, LoadGenerator::replay(opposed, 1).unwrap())
        .unwrap();
    let (mut migrations, mut stuck) = (0, 0);
    let got = digest(
        &mut server,
        |t| {
            let f0 = ladder_freq(t / 3);
            let f1 = ladder_freq(t / 5 + 4);
            let (a, b) = match t % 7 {
                0 | 1 => (cores(0..9), cores(9..18)),
                2 => (cores(0..12), cores(6..18)),
                3 => (
                    vec![CoreId(7), CoreId(2), CoreId(11), CoreId(2)],
                    cores(3..15),
                ),
                4 => (cores(0..4), vec![]),
                5 => (cores(4..10), cores(10..18)),
                _ => (cores(0..18), cores(0..18)),
            };
            vec![Assignment::new(a, f0), Assignment::new(b, f1)]
        },
        |r| {
            migrations += r.migrations;
            stuck += usize::from(r.services[1].completed == 0 && r.services[1].queue_len > 0);
        },
    );
    assert!(migrations > 0 && stuck > 0, "{migrations} {stuck}");
    assert_eq!(got, C2_DIURNAL, "C = 2 diurnal digest moved: {got:#018x}");
}

/// 24 services (the catalog cycled four times) time-sharing 18 cores.
#[test]
fn k24_time_shared_socket() {
    let base = catalog::all();
    let specs: Vec<ServiceSpec> = (0..24)
        .map(|i| {
            let mut spec = base[i % base.len()].clone();
            spec.name = format!("{}-{}", spec.name, i / base.len());
            spec
        })
        .collect();
    let mut server = Server::new(ServerConfig::default(), specs, 7).unwrap();
    for i in 0..24 {
        server
            .set_load_fraction(i, 0.02 + 0.002 * i as f64)
            .unwrap();
    }
    let mut completed = 0;
    let got = digest(
        &mut server,
        |t| {
            (0..24u64)
                .map(|k| {
                    let width = 1 + (k + t / 4) % 4;
                    let first = (k * 3 + t / 9) % 18;
                    let list = (0..width)
                        .map(|c| CoreId(((first + c * 5) % 18) as usize))
                        .collect();
                    Assignment::new(list, ladder_freq(k + t / 6))
                })
                .collect()
        },
        |r| completed += r.services.iter().map(|s| s.completed).sum::<usize>(),
    );
    assert!(completed > 1_000_000, "{completed}");
    assert_eq!(
        got, K24_SHARED,
        "K = 24 time-shared digest moved: {got:#018x}"
    );
}

/// One service offered far more than its allocation can serve: the backlog
/// saturates at its cap (arrivals dropped), queued requests outlive the
/// client timeout, and the service is periodically parked outright or given
/// most of the socket.
#[test]
fn overloaded_service_drops_and_times_out() {
    let mut hot = catalog::memcached();
    hot.max_load_rps = 40_000.0;
    let mut server =
        Server::new(ServerConfig::default(), vec![hot, catalog::xapian()], 11).unwrap();
    server.set_load_fraction(0, 1.0).unwrap();
    server
        .set_load_generator(1, LoadGenerator::step(0.2, 0.8, 1.5, 40).unwrap())
        .unwrap();
    // At most a full backlog (50 000 requests) can time out in one epoch, so
    // a larger `dropped` proves arrivals were turned away; a p99 of exactly
    // the 2 s timeout proves abandoned requests dominated the tail.
    let (mut overflowed, mut timeout_tails) = (0, 0);
    let got = digest(
        &mut server,
        |t| {
            let hot = match (t / 25) % 4 {
                0 => Assignment::new(cores(0..2), ladder_freq(0)),
                1 => Assignment::new(vec![], ladder_freq(2)),
                2 => Assignment::new(cores(0..14), ladder_freq(8)),
                _ => Assignment::new(cores(0..6), ladder_freq(t)),
            };
            vec![hot, Assignment::new(cores(14..18), ladder_freq(8))]
        },
        |r| {
            overflowed += usize::from(r.services[0].dropped > 50_000);
            timeout_tails += usize::from(r.services[0].p99_ms == 2000.0);
        },
    );
    assert!(
        overflowed > 0 && timeout_tails > 0,
        "{overflowed} {timeout_tails}"
    );
    assert_eq!(got, OVERLOADED, "overload digest moved: {got:#018x}");
}

/// Every injector of an enabled fault plan: delayed and corrupted PMCs,
/// rejected and clamped actuation, offline cores, power glitches.
#[test]
fn enabled_fault_plan() {
    let mut server = Server::new(
        ServerConfig::default(),
        vec![catalog::masstree(), catalog::img_dnn(), catalog::xapian()],
        5,
    )
    .unwrap();
    server.set_fault_plan(
        FaultPlan::new(
            FaultConfig {
                pmc_corrupt_rate: 0.15,
                telemetry_delay_epochs: 2,
                actuation_reject_rate: 0.2,
                dvfs_clamp_rate: 0.1,
                power_glitch_rate: 0.05,
                core_fail_rate: 0.1,
                core_repair_rate: 0.1,
                max_offline_cores: 4,
            },
            99,
        )
        .unwrap(),
    );
    for (i, load) in [0.6, 0.4, 0.7].into_iter().enumerate() {
        server.set_load_fraction(i, load).unwrap();
    }
    let mut seen = [0usize; 5];
    let got = digest(
        &mut server,
        |t| {
            let shift = (t % 3) as usize;
            vec![
                Assignment::new(cores(shift..6 + shift), ladder_freq(t / 2)),
                Assignment::new(cores(6 + shift..12 + shift), ladder_freq(t / 3 + 2)),
                Assignment::new(cores(12 + shift..16 + shift), ladder_freq(8)),
            ]
        },
        |r| {
            for a in &r.actuation {
                seen[0] += usize::from(a.rejected);
                seen[1] += usize::from(a.clamped);
                seen[2] += a.cores_lost_offline;
            }
            seen[3] += r.telemetry.pmc_faults.iter().flatten().count();
            seen[4] += usize::from(r.telemetry.power_glitched);
        },
    );
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    assert_eq!(got, FAULTED, "fault-plan digest moved: {got:#018x}");
}
