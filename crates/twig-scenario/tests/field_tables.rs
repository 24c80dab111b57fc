//! The six fault configurations' field tables, checked where all six are in
//! scope: the default configuration validates and arms nothing, and every
//! probability column arms its row and is range-checked by its crate's
//! `validate` under the struct field's name, in that crate's message text.

use std::fmt::Display;
use twig_cluster::{ClusterFaultConfig, FedFaultConfig};
use twig_platform::OsFaultConfig;
use twig_sim::{FaultConfig, StoreFaultConfig, TimingFaultConfig};
use twig_stats::fields::{any_active, Kind, Row, Value};

fn check_table<C: Default, E: Display>(
    rows: &[Row<C>],
    validate: impl Fn(&C) -> Result<(), E>,
    message: impl Fn(&str, f64) -> String,
) {
    assert!(validate(&C::default()).is_ok());
    assert!(!any_active(rows, &C::default()));
    let mut probabilities = 0;
    for col in rows.iter().flat_map(|row| row.cols) {
        if col.kind != Kind::Probability {
            continue;
        }
        probabilities += 1;
        for bad in [f64::NAN, -0.1, 1.5] {
            let mut config = C::default();
            (col.set)(&mut config, Value::Real(bad));
            let Err(e) = validate(&config) else {
                panic!("{} = {bad} accepted", col.name)
            };
            let (got, want) = (e.to_string(), message(col.name, bad));
            assert!(got.ends_with(&want), "got `{got}`, want `{want}`");
        }
        let mut config = C::default();
        (col.set)(&mut config, Value::Real(1.0));
        assert!(validate(&config).is_ok(), "{} = 1 refused", col.name);
        assert!(any_active(rows, &config), "{} = 1 arms nothing", col.name);
    }
    assert!(probabilities > 0);
}

#[test]
fn every_table_validates_its_probabilities_in_todays_words() {
    check_table(FaultConfig::FIELDS, FaultConfig::validate, |f, v| {
        format!("fault {f} = {v} outside [0, 1]")
    });
    check_table(
        TimingFaultConfig::FIELDS,
        TimingFaultConfig::validate,
        |f, v| format!("timing {f} = {v} outside [0, 1]"),
    );
    check_table(
        StoreFaultConfig::FIELDS,
        StoreFaultConfig::validate,
        |f, v| format!("store fault {f} = {v} outside [0, 1]"),
    );
    check_table(
        ClusterFaultConfig::FIELDS,
        ClusterFaultConfig::validate,
        |f, v| format!("{f} must be a probability, got {v}"),
    );
    check_table(FedFaultConfig::FIELDS, FedFaultConfig::validate, |f, v| {
        format!("{f} must be a probability, got {v}")
    });
    check_table(OsFaultConfig::FIELDS, OsFaultConfig::validate, |f, v| {
        format!("{f} must be in [0, 1], got {v}")
    });
}

#[test]
fn timing_durations_are_checked_after_the_rates() {
    for col in TimingFaultConfig::FIELDS.iter().flat_map(|row| row.cols) {
        if col.kind != Kind::Duration {
            continue;
        }
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut config = TimingFaultConfig::default();
            (col.set)(&mut config, Value::Real(bad));
            let e = config.validate().unwrap_err().to_string();
            let want = format!(
                "timing {} = {bad} must be non-negative and finite",
                col.name
            );
            assert!(e.ends_with(&want), "got `{e}`, want `{want}`");
        }
    }
    let both = TimingFaultConfig {
        pmc_base_ms: -1.0,
        clock_stuck_rate: 2.0,
        ..TimingFaultConfig::default()
    };
    let e = both.validate().unwrap_err().to_string();
    assert!(e.contains("clock_stuck_rate"), "rates first: {e}");
}
