//! Proof that fleet parallelism never changes results: experiment output
//! assembled from `--jobs N` workers is byte-for-byte identical to the
//! serial run. This is the acceptance gate for the parallel fleet — unit
//! seeds derive from indices (never thread identity) and collection is
//! slot-ordered, so the job count must be unobservable in the output. The
//! five fault suites are also pinned to their committed reports.

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
fn suite_reports_equal_the_committed_ones_at_any_jobs() {
    // The five fault suites at the shipped `--smoke --seed 42`: each run
    // asserts its own invariants, and its report must be byte-identical to
    // the committed reference at one worker and at four.
    let suites: [(&str, experiments::RunTo, &str); 5] = [
        (
            "chaos",
            experiments::chaos::run_to,
            include_str!("../../../results/chaos_report.txt"),
        ),
        (
            "timing",
            experiments::timing::run_to,
            include_str!("../../../results/timing_report.txt"),
        ),
        (
            "cluster",
            experiments::cluster::run_to,
            include_str!("../../../results/cluster_report.txt"),
        ),
        (
            "platform",
            experiments::platform::run_to,
            include_str!("../../../results/platform_report.txt"),
        ),
        (
            "federate",
            experiments::federate::run_to,
            include_str!("../../../results/federate_report.txt"),
        ),
    ];
    for (suite, run_to, committed) in suites {
        for jobs in [1, 4] {
            let opts = Options {
                seed: 42,
                ..opts(jobs)
            };
            let mut out = String::new();
            run_to(&mut out, &opts).unwrap_or_else(|e| panic!("{suite}: {e}"));
            assert!(
                out == committed,
                "{suite} at --jobs {jobs} differs from results/{suite}_report.txt:\n{out}"
            );
        }
    }
}
