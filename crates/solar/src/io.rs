//! Plain-text import/export of solar traces.
//!
//! The paper drives its evaluation from the NREL Measurement and
//! Instrumentation Data Center database. This module lets a user
//! replay any recorded irradiance log: export a synthetic trace for
//! inspection, or import a `slot_index,power_mw` CSV (one line per
//! slot) recorded elsewhere. No CSV crate needed — the format is two
//! plain columns.

use std::fmt::Write as _;

use helio_common::time::TimeGrid;
use helio_common::units::Watts;

use crate::trace::SolarTrace;

/// Errors produced when parsing a trace CSV.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseTraceError {
    /// A line was not `index,value`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// The file's slot count does not match the grid.
    WrongLength {
        /// Expected slots.
        expected: usize,
        /// Found rows.
        found: usize,
    },
    /// A power value was negative or non-finite.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The parsed value.
        value: f64,
    },
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTraceError::Malformed { line, content } => {
                write!(f, "malformed trace row at line {line}: {content:?}")
            }
            ParseTraceError::WrongLength { expected, found } => {
                write!(f, "trace has {found} rows but the grid needs {expected}")
            }
            ParseTraceError::BadValue { line, value } => {
                write!(f, "invalid power {value} mW at line {line}")
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

/// Serialises a trace as `slot_index,power_mw` rows with a header.
pub fn to_csv(trace: &SolarTrace) -> String {
    let grid = trace.grid();
    let mut out = String::with_capacity(grid.total_slots() * 12 + 32);
    out.push_str("slot,power_mw\n");
    for (i, slot) in grid.slots().enumerate() {
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "{},{:.6}", i, trace.slot_power(slot).milliwatts());
    }
    out
}

/// Parses a `slot_index,power_mw` CSV into a trace on `grid`.
///
/// Lines starting with `#` and the `slot,power_mw` header are skipped;
/// rows must appear in slot order.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] describing the first problem found.
pub fn from_csv(grid: TimeGrid, csv: &str) -> Result<SolarTrace, ParseTraceError> {
    let mut powers: Vec<Watts> = Vec::with_capacity(grid.total_slots());
    for (lineno, raw) in csv.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("slot,") {
            continue;
        }
        let mut parts = line.split(',');
        let (idx, val) = match (parts.next(), parts.next(), parts.next()) {
            (Some(i), Some(v), None) => (i.trim(), v.trim()),
            _ => {
                return Err(ParseTraceError::Malformed {
                    line: lineno + 1,
                    content: raw.to_string(),
                })
            }
        };
        let _: usize = idx.parse().map_err(|_| ParseTraceError::Malformed {
            line: lineno + 1,
            content: raw.to_string(),
        })?;
        let mw: f64 = val.parse().map_err(|_| ParseTraceError::Malformed {
            line: lineno + 1,
            content: raw.to_string(),
        })?;
        if !mw.is_finite() || mw < 0.0 {
            return Err(ParseTraceError::BadValue {
                line: lineno + 1,
                value: mw,
            });
        }
        powers.push(Watts::from_milliwatts(mw));
    }
    if powers.len() != grid.total_slots() {
        return Err(ParseTraceError::WrongLength {
            expected: grid.total_slots(),
            found: powers.len(),
        });
    }
    Ok(SolarTrace::from_powers(grid, powers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::DayArchetype;
    use crate::panel::SolarPanel;
    use crate::trace::TraceBuilder;
    use helio_common::units::Seconds;

    fn grid() -> TimeGrid {
        TimeGrid::new(1, 4, 3, Seconds::new(60.0)).unwrap()
    }

    #[test]
    fn round_trip_preserves_energy() {
        let g = TimeGrid::new(2, 24, 10, Seconds::new(60.0)).unwrap();
        let t = TraceBuilder::new(g, SolarPanel::paper_panel())
            .seed(3)
            .days(&[DayArchetype::Clear, DayArchetype::Storm])
            .build();
        let csv = to_csv(&t);
        let back = from_csv(g, &csv).unwrap();
        assert!((t.total_energy().value() - back.total_energy().value()).abs() < 1e-3);
    }

    #[test]
    fn header_and_comments_are_skipped() {
        let csv = "# recorded at the test site\nslot,power_mw\n0,1.0\n1,2.0\n\n2,3.0\n3,0\n4,0\n5,0\n6,0\n7,0\n8,0\n9,0\n10,0\n11,0\n";
        let t = from_csv(grid(), csv).unwrap();
        assert!((t.total_energy().value() - (1.0 + 2.0 + 3.0) * 1e-3 * 60.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_rows_are_reported_with_line_numbers() {
        let err = from_csv(grid(), "0,1.0,junk\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::Malformed { line: 1, .. }));
        let err = from_csv(grid(), "zero,1.0\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::Malformed { .. }));
    }

    #[test]
    fn negative_and_nonfinite_values_rejected() {
        let err = from_csv(grid(), "0,-1.0\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::BadValue { value, .. } if value == -1.0));
        let err = from_csv(grid(), "0,NaN\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::BadValue { .. }));
    }

    #[test]
    fn wrong_length_is_rejected() {
        let err = from_csv(grid(), "0,1.0\n1,1.0\n").unwrap_err();
        assert_eq!(
            err,
            ParseTraceError::WrongLength {
                expected: 12,
                found: 2
            }
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ParseTraceError::WrongLength {
            expected: 12,
            found: 2,
        };
        assert_eq!(e.to_string(), "trace has 2 rows but the grid needs 12");
    }
}
