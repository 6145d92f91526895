//! The scenario value codec: the one copy of every helper the tables use
//! to read, print, and override their fields.
//!
//! Every table speaks one string surface. A file value is rendered to
//! text with [`scalar_text`] and fed through the table's `set`, so a
//! scenario file, `--set key=value`, and a sweep axis accept exactly the
//! same spellings:
//!
//! * booleans are `true | false | 1 | 0 | on | off` ([`parse_bool`]);
//! * `none` (JSON `null`) clears an optional field ([`parse_opt`]);
//! * a string enum has one [`Names`] table that both parses and prints;
//! * millisecond fields convert to picoseconds once, checked
//!   ([`ms_to_ps`]).

use std::fmt::Display;
use std::str::FromStr;

use llmss_sched::TimePs;
use serde::Value;

use crate::ScenarioError;

/// A string enum's spellings, in the order errors list them. One table
/// both parses ([`from_name`]) and prints ([`name`]).
pub(crate) type Names<T> = &'static [(&'static str, T)];

const PS_PER_MS: f64 = 1e9;

/// The largest time a millisecond field may convert to: 2^60 ps (about
/// 13 simulated days). The schedulers add a batch delay to arrival times
/// unchecked, and the control planes add their ticks to the clock; a
/// value at most 2^60 leaves 15/16 of the `u64` range for the time it is
/// added to, so neither addition can overflow for a trace shorter than
/// about 200 simulated days.
const MAX_PS: TimePs = 1 << 60;

/// [`MAX_PS`] in milliseconds, for error messages.
const MAX_MS: f64 = MAX_PS as f64 / PS_PER_MS;

/// The error for a value `field` cannot take.
pub(crate) fn unknown(field: &str, value: &str, expected: impl Into<String>) -> ScenarioError {
    ScenarioError::UnknownValue {
        field: field.into(),
        value: value.into(),
        expected: expected.into(),
    }
}

/// Parses `text` as a `T`, naming `field` in the error.
pub(crate) fn parse<T: FromStr>(field: &str, text: &str) -> Result<T, ScenarioError>
where
    T::Err: Display,
{
    text.parse().map_err(|e: T::Err| unknown(field, text, e.to_string()))
}

/// Parses a boolean: `true | 1 | on` or `false | 0 | off`.
pub(crate) fn parse_bool(field: &str, text: &str) -> Result<bool, ScenarioError> {
    match text {
        "true" | "1" | "on" => Ok(true),
        "false" | "0" | "off" => Ok(false),
        _ => Err(unknown(field, text, "true | false | 1 | 0 | on | off")),
    }
}

/// `none` clears an optional field; anything else goes through `read`.
pub(crate) fn none_or<T>(
    text: &str,
    read: impl FnOnce(&str) -> Result<T, ScenarioError>,
) -> Result<Option<T>, ScenarioError> {
    if text == "none" {
        Ok(None)
    } else {
        read(text).map(Some)
    }
}

/// Parses an optional field: `none` is `None`, anything else a `T`.
pub(crate) fn parse_opt<T: FromStr>(field: &str, text: &str) -> Result<Option<T>, ScenarioError>
where
    T::Err: Display,
{
    none_or(text, |text| parse(field, text))
}

/// Renders a scalar file value as the text `set` parses: `null` is
/// `none`, floats keep their shortest exact form. Arrays and tables are
/// not scalars.
pub(crate) fn scalar_text(field: &str, value: &Value) -> Result<String, ScenarioError> {
    Ok(match value {
        Value::Null => "none".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => s.clone(),
        other => return Err(unknown(field, &format!("{other:?}"), "a scalar")),
    })
}

/// The fields of the table at `field`.
pub(crate) fn table<'a>(
    field: &str,
    value: &'a Value,
) -> Result<&'a [(String, Value)], ScenarioError> {
    match value {
        Value::Object(fields) => Ok(fields),
        other => Err(ScenarioError::Parse {
            message: format!("{field}: expected a table, got {other:?}"),
        }),
    }
}

/// The items of the array at `field`.
pub(crate) fn array<'a>(field: &str, value: &'a Value) -> Result<&'a [Value], ScenarioError> {
    match value {
        Value::Array(items) => Ok(items),
        other => Err(ScenarioError::Parse {
            message: format!("{field}: expected an array, got {other:?}"),
        }),
    }
}

/// Feeds every field of the table at `field` to `set` as scalar text —
/// the whole reader of a table whose fields are all scalars.
pub(crate) fn read_scalars(
    field: &str,
    value: &Value,
    mut set: impl FnMut(&str, &str) -> Result<(), ScenarioError>,
) -> Result<(), ScenarioError> {
    for (key, v) in table(field, value)? {
        set(key, &scalar_text(&format!("{field}.{key}"), v)?)?;
    }
    Ok(())
}

/// The spelling of `value` in `names` (empty for a variant the table
/// lacks; every table is total, which the tests check).
pub(crate) fn name<T: PartialEq>(names: Names<T>, value: T) -> &'static str {
    names.iter().find(|(_, v)| *v == value).map_or("", |(name, _)| name)
}

/// The variant `text` spells in `names`.
pub(crate) fn lookup<T: Copy>(names: Names<T>, text: &str) -> Option<T> {
    names.iter().find(|(name, _)| *name == text).map(|(_, v)| *v)
}

/// Every spelling in `names`, as `a | b | c`.
pub(crate) fn expected<T>(names: Names<T>) -> String {
    names.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(" | ")
}

/// Parses `text` as one of the spellings in `names`.
pub(crate) fn from_name<T: Copy>(
    field: &str,
    names: Names<T>,
    text: &str,
) -> Result<T, ScenarioError> {
    lookup(names, text).ok_or_else(|| unknown(field, text, expected(names)))
}

/// Scenario milliseconds to engine picoseconds, rounded. Rejects a value
/// that is not finite, is negative, or converts to more than 2^60 ps
/// (see [`MAX_PS`]).
pub(crate) fn ms_to_ps(field: &str, ms: f64) -> Result<TimePs, ScenarioError> {
    let ps = (ms * PS_PER_MS).round();
    if !(0.0..=MAX_PS as f64).contains(&ps) {
        return Err(ScenarioError::InvalidValue {
            field: field.into(),
            message: format!("expected a finite time from 0 to {MAX_MS:.0} ms, got {ms:?}"),
        });
    }
    Ok(ps as TimePs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_reads_as_none_and_non_scalars_are_typed_errors() {
        assert_eq!(scalar_text("k", &Value::Null).unwrap(), "none");
        assert_eq!(scalar_text("k", &Value::Float(4.0)).unwrap(), "4.0");
        assert_eq!(parse_opt::<f64>("k", "none"), Ok(None));
        assert_eq!(parse_opt::<f64>("k", "4.0"), Ok(Some(4.0)));
        let err = scalar_text("k", &Value::Array(Vec::new())).unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownValue { .. }), "{err}");
        assert!(matches!(table("k", &Value::Int(1)), Err(ScenarioError::Parse { .. })));
        assert!(matches!(array("k", &Value::Int(1)), Err(ScenarioError::Parse { .. })));
    }

    #[test]
    fn ms_to_ps_is_checked() {
        assert_eq!(ms_to_ps("k", 1.5), Ok(1_500_000_000));
        assert_eq!(ms_to_ps("k", 0.0), Ok(0));
        assert_eq!(ms_to_ps("k", 1e-12), Ok(0), "sub-ps rounds to zero; callers decide");
        assert_eq!(ms_to_ps("k", 1e6), Ok(1_000_000_000_000_000), "1000 s is in range");
        for bad in [-5.0, f64::NAN, f64::INFINITY, 1e300, MAX_MS * 2.0] {
            let err = ms_to_ps("k", bad).unwrap_err();
            assert!(matches!(err, ScenarioError::InvalidValue { .. }), "{bad}: {err}");
        }
    }
}
