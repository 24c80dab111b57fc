//! Proof that fleet parallelism never changes results: experiment output
//! assembled from `--jobs N` workers is byte-for-byte identical to the
//! serial run. This is the acceptance gate for the parallel fleet — unit
//! seeds derive from indices (never thread identity) and collection is
//! slot-ordered, so the job count must be unobservable in the output.

use twig_bench::{experiments, Options};

fn opts(jobs: usize) -> Options {
    Options {
        jobs,
        smoke: true,
        seed: 1234,
        ..Options::default()
    }
}

fn render(
    run_to: fn(&mut String, &Options) -> Result<(), twig_bench::ExpError>,
    jobs: usize,
) -> String {
    let mut out = String::new();
    run_to(&mut out, &opts(jobs)).expect("experiment runs");
    out
}

#[test]
fn fig04_serial_and_parallel_bit_identical() {
    // fig04 profiles two services as fleet units (simulator-only, no NN
    // training) — the cheapest real experiment with parallel units.
    let serial = render(experiments::fig04::run_to, 1);
    let parallel = render(experiments::fig04::run_to, 4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "fig04 output depends on --jobs");
}

#[test]
fn fig01_serial_and_parallel_bit_identical() {
    // fig01 trains per-service regressors in parallel units with derived
    // seeds; floats formatted into its tables must match to the last bit.
    let serial = render(experiments::fig01::run_to, 1);
    let parallel = render(experiments::fig01::run_to, 3);
    assert!(serial.contains("zero-error density ratio"));
    assert_eq!(serial, parallel, "fig01 output depends on --jobs");
}

#[test]
fn federate_serial_and_parallel_bit_identical() {
    // The federation chaos suite runs six weight-exchange schedules —
    // corrupt payload storms, Byzantine nodes, straggler quorums,
    // mid-round partitions — plus the paired policy-transfer experiment
    // as fleet units. Every injected fault comes from the per-schedule
    // FedFaultPlan and every report row from lifetime counters, so the
    // report must be byte-identical at any worker count. The suite asserts
    // only seed-independent invariants, so any seed would do; this one
    // runs the shipped seed, whose report is committed.
    let render_fed = |jobs| {
        let mut out = String::new();
        let o = Options {
            jobs,
            smoke: true,
            ..Options::default()
        };
        experiments::federate::run_to(&mut out, &o).expect("federate suite runs");
        out
    };
    let serial = render_fed(1);
    let two = render_fed(2);
    let four = render_fed(4);
    assert!(serial.contains("byzantine node"));
    assert_eq!(serial, two, "federate output depends on --jobs 2");
    assert_eq!(serial, four, "federate output depends on --jobs 4");
}

#[test]
fn cluster_serial_and_parallel_bit_identical() {
    // The cluster chaos suite runs six fault schedules — crashes,
    // blackouts, partitions, corrupted and stalled migrations — as fleet
    // units. Every fault draw comes from the per-schedule seeded plan and
    // every scenario row from lifetime counters, so the full faulted
    // report must be byte-identical at any worker count.
    let serial = render(experiments::cluster::run_to, 1);
    let two = render(experiments::cluster::run_to, 2);
    let four = render(experiments::cluster::run_to, 4);
    assert!(serial.contains("crash + failover"));
    assert_eq!(serial, two, "cluster output depends on --jobs 2");
    assert_eq!(serial, four, "cluster output depends on --jobs 4");
}
