//! Field tables: one description of a configuration's numeric fields.
//!
//! Every seeded fault plan in the workspace is driven by a plain struct of
//! probabilities, durations and counts. A [`Row`] table, declared once
//! beside the struct with [`field_rows!`](crate::field_rows), is the single
//! list everything else enumerates: range validation ([`check`]), the
//! "can anything fire" test ([`any_active`]), and the scenario grammar's
//! section reader and canonical writer, which look rows up by
//! [`key`](Row::key). A row holds one column, or two for the grammar's
//! paired keys (`pmc_spike <rate> <ms>`, `blackout <rate> <epochs>`).
//!
//! # Examples
//!
//! ```
//! use twig_stats::fields::{any_active, check, Kind, Row};
//!
//! #[derive(Default)]
//! struct Faults {
//!     drop_rate: f64,
//!     stall_rate: f64,
//!     stall_epochs: u64,
//! }
//!
//! const FIELDS: &[Row<Faults>] = twig_stats::field_rows![
//!     "drop" => drop_rate: Probability;
//!     "stall" => stall_rate: Probability, stall_epochs: Count;
//! ];
//!
//! let faults = Faults { stall_rate: 1.5, stall_epochs: 3, ..Faults::default() };
//! assert!(any_active(FIELDS, &faults));
//! assert_eq!(check(FIELDS, &faults, Kind::Probability), Err(("stall_rate", 1.5)));
//! assert!(!any_active(FIELDS, &Faults::default()));
//! ```

use std::fmt;

/// What a column holds: fixes how its token parses and what [`check`]
/// admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A per-draw probability: finite and in `[0, 1]`.
    Probability,
    /// A latency, age or jitter bound in milliseconds: finite and
    /// non-negative.
    Duration,
    /// A whole number (epochs, cores): any `u64`.
    Count,
}

impl Kind {
    /// `true` when `value` is in the kind's range.
    pub fn admits(self, value: f64) -> bool {
        match self {
            Kind::Probability => (0.0..=1.0).contains(&value),
            Kind::Duration => value.is_finite() && value >= 0.0,
            Kind::Count => true,
        }
    }
}

/// One column's value: [`Kind::Count`] columns hold a `Count`, the others
/// a `Real`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A probability or a duration.
    Real(f64),
    /// A whole number.
    Count(u64),
}

impl Value {
    /// The value as a float.
    pub fn real(self) -> f64 {
        match self {
            Value::Real(x) => x,
            Value::Count(n) => n as f64,
        }
    }

    /// The value as a whole number (a `Real` saturates and truncates).
    pub fn count(self) -> u64 {
        match self {
            Value::Real(x) => x as u64,
            Value::Count(n) => n,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Real(x) => write!(f, "{x}"),
            Value::Count(n) => write!(f, "{n}"),
        }
    }
}

/// One numeric field of a configuration `C`.
pub struct Col<C> {
    /// The struct field's name, as validation messages print it.
    pub name: &'static str,
    /// What the field holds.
    pub kind: Kind,
    /// Reads the field.
    pub get: fn(&C) -> Value,
    /// Writes the field.
    pub set: fn(&mut C, Value),
}

/// One keyed record of a configuration `C`: the key the scenario grammar
/// spells it with and the one or two fields that follow the key, the
/// first being the one whose non-zero value arms the row.
pub struct Row<C: 'static> {
    /// The record's key in a `.scn` section.
    pub key: &'static str,
    /// The fields, in record order.
    pub cols: &'static [Col<C>],
}

/// Builds a `&'static [Row<C>]` from `"key" => field: Kind[, field: Kind];`
/// lines, `C` being inferred from the constant the table is assigned to.
/// See the [module docs](crate::fields) for an example.
#[macro_export]
macro_rules! field_rows {
    (@col $field:ident Count) => {
        $crate::fields::Col {
            name: stringify!($field),
            kind: $crate::fields::Kind::Count,
            get: |c| $crate::fields::Value::Count(c.$field as u64),
            set: |c, v| c.$field = v.count() as _,
        }
    };
    (@col $field:ident $real:ident) => {
        $crate::fields::Col {
            name: stringify!($field),
            kind: $crate::fields::Kind::$real,
            get: |c| $crate::fields::Value::Real(c.$field),
            set: |c, v| c.$field = v.real(),
        }
    };
    ($($key:literal => $($field:ident: $kind:ident),+;)+) => {
        &[$($crate::fields::Row {
            key: $key,
            cols: &[$($crate::field_rows!(@col $field $kind)),+],
        }),+]
    };
}

/// Checks every column of `kind` against the kind's range.
///
/// # Errors
///
/// Returns the first offending column, in table order, as `(field name,
/// value)` for the caller to wrap in its own error type.
pub fn check<C>(rows: &[Row<C>], config: &C, kind: Kind) -> Result<(), (&'static str, f64)> {
    for col in rows.iter().flat_map(|row| row.cols) {
        let value = (col.get)(config).real();
        if col.kind == kind && !kind.admits(value) {
            return Err((col.name, value));
        }
    }
    Ok(())
}

/// `true` when some row is armed: its first column is above zero. A paired
/// row's second column is the magnitude of the first and arms nothing.
pub fn any_active<C>(rows: &[Row<C>], config: &C) -> bool {
    rows.iter()
        .any(|row| (row.cols[0].get)(config).real() > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Demo {
        rate: f64,
        spike_rate: f64,
        spike_ms: f64,
        cap: usize,
        epochs: u64,
    }

    const DEMO: &[Row<Demo>] = crate::field_rows![
        "rate" => rate: Probability;
        "spike" => spike_rate: Probability, spike_ms: Duration;
        "cap" => cap: Count;
        "epochs" => epochs: Count;
    ];

    #[test]
    fn columns_read_and_write_their_field() {
        let mut d = Demo::default();
        for (i, col) in DEMO.iter().flat_map(|r| r.cols).enumerate() {
            let v = match col.kind {
                Kind::Count => Value::Count(i as u64 + 7),
                _ => Value::Real(i as f64 / 8.0),
            };
            (col.set)(&mut d, v);
            assert_eq!((col.get)(&d), v, "{}", col.name);
        }
        assert_eq!((d.rate, d.spike_rate, d.spike_ms), (0.0, 0.125, 0.25));
        assert_eq!((d.cap, d.epochs), (10, 11));
        assert_eq!(DEMO[1].cols[1].name, "spike_ms");
    }

    #[test]
    fn kinds_admit_their_ranges() {
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            assert!(!Kind::Probability.admits(bad), "{bad}");
        }
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            assert!(!Kind::Duration.admits(bad), "{bad}");
        }
        assert!(Kind::Probability.admits(0.0) && Kind::Probability.admits(1.0));
        assert!(Kind::Duration.admits(1.0e9) && Kind::Count.admits(1.0e30));
    }

    #[test]
    fn check_reports_the_first_offender_of_the_kind_asked_for() {
        let d = Demo {
            spike_rate: 2.0,
            spike_ms: -1.0,
            ..Demo::default()
        };
        assert_eq!(check(DEMO, &d, Kind::Probability), Err(("spike_rate", 2.0)));
        assert_eq!(check(DEMO, &d, Kind::Duration), Err(("spike_ms", -1.0)));
        assert_eq!(check(DEMO, &Demo::default(), Kind::Probability), Ok(()));
    }

    #[test]
    fn only_a_first_column_arms_a_row() {
        assert!(!any_active(DEMO, &Demo::default()));
        let magnitude_only = Demo {
            spike_ms: 5.0,
            ..Demo::default()
        };
        assert!(!any_active(DEMO, &magnitude_only));
        let count = Demo {
            cap: 1,
            ..Demo::default()
        };
        assert!(any_active(DEMO, &count));
    }

    #[test]
    fn values_print_as_their_field_would() {
        assert_eq!(Value::Real(0.25).to_string(), "0.25");
        assert_eq!(Value::Real(200.0).to_string(), "200");
        assert_eq!(Value::Count(u64::MAX).to_string(), u64::MAX.to_string());
    }
}
