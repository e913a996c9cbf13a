//! Parser for `--faults <spec.json>` schedule documents.
//!
//! The document is read by `obs::json::parse`; its byte-offset diagnostics
//! and every schema violation found here surface as
//! [`SimError::InvalidSpec`].
//!
//! # Schema
//!
//! ```json
//! {
//!   "seed": 7,
//!   "events": [
//!     {"at_s": 0.010, "kind": "link_flap",   "link": 1, "down_s": 0.002},
//!     {"at_s": 0.0,   "kind": "packet_loss", "link": 0, "probability": 0.01, "duration_s": 0.05},
//!     {"at_s": 0.0,   "kind": "cnp_loss",    "link": 2, "probability": 0.2,  "duration_s": 0.05},
//!     {"at_s": 0.0,   "kind": "rtt_jitter",  "link": 1, "sigma_s": 1e-5,    "duration_s": 0.05},
//!     {"at_s": 0.02,  "kind": "delay_spike", "link": 1, "extra_s": 1e-4,    "duration_s": 0.005},
//!     {"at_s": 0.01,  "kind": "pause_storm", "link": 1, "period_s": 1e-3,
//!      "pause_frac": 0.5, "duration_s": 0.02},
//!     {"at_s": 0.05,  "kind": "perturb_kmax", "scale": 0.25},
//!     {"at_s": 0.05,  "kind": "perturb_r_ai", "scale": 4.0}
//!   ]
//! }
//! ```
//!
//! `seed` is optional (default 1). Every event requires `at_s` and `kind`;
//! unknown kinds and unknown keys are rejected so typos fail loudly instead
//! of silently injecting nothing.

use crate::error::SimError;
use crate::schedule::{FaultKind, FaultSchedule, ParamTarget};
use obs::json::Value;

/// Parse a fault-schedule spec document.
///
/// Returns a schedule that has passed field-level checks only; call
/// [`FaultSchedule::validate`] with the target topology's link count before
/// installing it.
pub fn parse_schedule(text: &str) -> Result<FaultSchedule, SimError> {
    let value = parse_document(text)?;
    let top = as_object(&value, "top level")?;
    let mut seed = 1u64;
    let mut events_val = None;
    for (key, v) in top {
        match key.as_str() {
            "seed" => seed = as_index(as_number(v, "seed")?, "seed")?,
            "events" => events_val = Some(v),
            other => return Err(SimError::spec(format!("unknown top-level key {other:?}"))),
        }
    }
    let Some(events_val) = events_val else {
        return Err(SimError::spec("missing required key \"events\""));
    };
    let Some(events) = events_val.items() else {
        return Err(SimError::spec("events must be an array"));
    };
    let mut schedule = FaultSchedule::new(seed);
    for (i, ev) in events.iter().enumerate() {
        let (at_s, kind) = parse_event(ev).map_err(|e| match e {
            SimError::InvalidSpec { detail } => SimError::spec(format!("event {i}: {detail}")),
            other => other,
        })?;
        schedule = schedule.push(at_s, kind);
    }
    Ok(schedule)
}

/// Decode one event object into `(at_s, kind)`.
fn parse_event(v: &Value) -> Result<(f64, FaultKind), SimError> {
    let obj = as_object(v, "event")?;
    let kind_name = get_str(obj, "kind")?;
    let at_s = get_num(obj, "at_s")?;
    // Per-kind field sets; `known` lists every accepted key so extras are
    // rejected.
    let kind = match kind_name {
        "link_flap" => {
            only(obj, &["kind", "at_s", "link", "down_s"])?;
            FaultKind::LinkFlap {
                link: get_link(obj)?,
                down_s: get_num(obj, "down_s")?,
            }
        }
        "packet_loss" => {
            only(obj, &["kind", "at_s", "link", "probability", "duration_s"])?;
            FaultKind::PacketLoss {
                link: get_link(obj)?,
                probability: get_num(obj, "probability")?,
                duration_s: get_num(obj, "duration_s")?,
            }
        }
        "cnp_loss" => {
            only(obj, &["kind", "at_s", "link", "probability", "duration_s"])?;
            FaultKind::CnpLoss {
                link: get_link(obj)?,
                probability: get_num(obj, "probability")?,
                duration_s: get_num(obj, "duration_s")?,
            }
        }
        "rtt_jitter" => {
            only(obj, &["kind", "at_s", "link", "sigma_s", "duration_s"])?;
            FaultKind::RttJitter {
                link: get_link(obj)?,
                sigma_s: get_num(obj, "sigma_s")?,
                duration_s: get_num(obj, "duration_s")?,
            }
        }
        "delay_spike" => {
            only(obj, &["kind", "at_s", "link", "extra_s", "duration_s"])?;
            FaultKind::DelaySpike {
                link: get_link(obj)?,
                extra_s: get_num(obj, "extra_s")?,
                duration_s: get_num(obj, "duration_s")?,
            }
        }
        "pause_storm" => {
            only(
                obj,
                &[
                    "kind",
                    "at_s",
                    "link",
                    "period_s",
                    "pause_frac",
                    "duration_s",
                ],
            )?;
            FaultKind::PauseStorm {
                link: get_link(obj)?,
                period_s: get_num(obj, "period_s")?,
                pause_frac: get_num(obj, "pause_frac")?,
                duration_s: get_num(obj, "duration_s")?,
            }
        }
        "perturb_kmax" => {
            only(obj, &["kind", "at_s", "scale"])?;
            FaultKind::Perturb {
                target: ParamTarget::RedKmax,
                scale: get_num(obj, "scale")?,
            }
        }
        "perturb_r_ai" => {
            only(obj, &["kind", "at_s", "scale"])?;
            FaultKind::Perturb {
                target: ParamTarget::CcRateIncrease,
                scale: get_num(obj, "scale")?,
            }
        }
        other => {
            return Err(SimError::spec(format!(
                "unknown kind {other:?} (expected one of link_flap, packet_loss, cnp_loss, \
                 rtt_jitter, delay_spike, pause_storm, perturb_kmax, perturb_r_ai)"
            )))
        }
    };
    Ok((at_s, kind))
}

// `SimError`-typed accessors over a parsed document. Integers and floats are
// both numbers; `null` is neither.

type Entries = [(String, Value)];

pub(crate) fn parse_document(text: &str) -> Result<Value, SimError> {
    obs::json::parse(text).map_err(SimError::spec)
}

pub(crate) fn as_object<'a>(v: &'a Value, what: &str) -> Result<&'a Entries, SimError> {
    match v {
        Value::Obj(entries) => Ok(entries),
        _ => Err(SimError::spec(format!("{what} must be an object"))),
    }
}

fn as_number(v: &Value, what: &str) -> Result<f64, SimError> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Num(n) => Ok(*n),
        _ => Err(SimError::spec(format!("{what} must be a number"))),
    }
}

pub(crate) fn get<'a>(obj: &'a Entries, key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub(crate) fn get_num(obj: &Entries, key: &str) -> Result<f64, SimError> {
    match get(obj, key) {
        Some(v) => as_number(v, key),
        None => Err(SimError::spec(format!("missing required key {key:?}"))),
    }
}

pub(crate) fn get_str<'a>(obj: &'a Entries, key: &str) -> Result<&'a str, SimError> {
    match get(obj, key) {
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(SimError::spec(format!("{key} must be a string"))),
        None => Err(SimError::spec(format!("missing required key {key:?}"))),
    }
}

/// `n` as the non-negative integer it must be (`what` names it in the error).
pub(crate) fn as_index(n: f64, what: &str) -> Result<u64, SimError> {
    // Exact by design: fract() == 0.0 is the definition of integrality.
    if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0) {
        return Err(SimError::spec(format!(
            "{what} must be a non-negative integer, got {n}"
        )));
    }
    Ok(n as u64)
}

fn get_link(obj: &Entries) -> Result<usize, SimError> {
    Ok(as_index(get_num(obj, "link")?, "link")? as usize)
}

/// Reject keys outside `known`.
fn only(obj: &Entries, known: &[&str]) -> Result<(), SimError> {
    for (k, _) in obj {
        if !known.contains(&k.as_str()) {
            return Err(SimError::spec(format!("unknown key {k:?}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"{
      "seed": 7,
      "events": [
        {"at_s": 0.010, "kind": "link_flap",   "link": 1, "down_s": 0.002},
        {"at_s": 0.0,   "kind": "packet_loss", "link": 0, "probability": 0.01, "duration_s": 0.05},
        {"at_s": 0.0,   "kind": "cnp_loss",    "link": 2, "probability": 0.2,  "duration_s": 0.05},
        {"at_s": 0.0,   "kind": "rtt_jitter",  "link": 1, "sigma_s": 1e-5,     "duration_s": 0.05},
        {"at_s": 0.02,  "kind": "delay_spike", "link": 1, "extra_s": 1e-4,     "duration_s": 0.005},
        {"at_s": 0.01,  "kind": "pause_storm", "link": 1, "period_s": 1e-3,
         "pause_frac": 0.5, "duration_s": 0.02},
        {"at_s": 0.05,  "kind": "perturb_kmax", "scale": 0.25},
        {"at_s": 0.05,  "kind": "perturb_r_ai", "scale": 4.0}
      ]
    }"#;

    #[test]
    fn full_spec_parses_every_kind() {
        let s = parse_schedule(FULL).expect("parses");
        assert_eq!(s.seed, 7);
        assert_eq!(s.len(), 8);
        assert!(s.validate(3).is_ok());
        assert_eq!(
            s.events[0].kind,
            FaultKind::LinkFlap {
                link: 1,
                down_s: 0.002
            }
        );
        assert_eq!(
            s.events[7].kind,
            FaultKind::Perturb {
                target: ParamTarget::CcRateIncrease,
                scale: 4.0
            }
        );
    }

    #[test]
    fn seed_defaults_to_one() {
        let s = parse_schedule(r#"{"events": []}"#).expect("parses");
        assert_eq!(s.seed, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn malformed_documents_are_structured_errors() {
        let cases: &[(&str, &str)] = &[
            ("", "expected a JSON value"),
            ("[1, 2]", "must be an object"),
            ("{\"events\": []} x", "trailing characters"),
            ("{\"seed\": 1}", "missing required key \"events\""),
            ("{\"seed\": 1.5, \"events\": []}", "non-negative integer"),
            ("{\"bogus\": 1, \"events\": []}", "unknown top-level key"),
            (
                "{\"events\": [{\"at_s\": 0}]}",
                "missing required key \"kind\"",
            ),
            (
                "{\"events\": [{\"kind\": \"warp_core_breach\", \"at_s\": 0}]}",
                "unknown kind",
            ),
            (
                "{\"events\": [{\"kind\": \"link_flap\", \"at_s\": 0, \"link\": 0, \
                 \"down_s\": 1e-3, \"oops\": 1}]}",
                "unknown key",
            ),
            (
                "{\"events\": [{\"kind\": \"link_flap\", \"at_s\": 0, \"link\": 0.5, \
                 \"down_s\": 1e-3}]}",
                "non-negative integer",
            ),
            (
                "{\"events\": [{\"kind\": \"link_flap\", \"at_s\": \"x\", \"link\": 0, \
                 \"down_s\": 1e-3}]}",
                "must be a number",
            ),
            (
                "{\"seed\": 1, \"seed\": 2, \"events\": []}",
                "duplicate key",
            ),
            ("{\"events\": [{]}", "expected string"),
        ];
        for (doc, needle) in cases {
            let e = parse_schedule(doc);
            assert!(e.is_err(), "{doc:?} should fail");
            let msg = e.expect_err("checked").to_string();
            assert!(
                msg.contains(needle),
                "{doc:?}: expected {needle:?} in {msg:?}"
            );
            assert!(msg.contains("invalid fault spec"), "{msg:?}");
        }
    }

    #[test]
    fn event_errors_name_the_event_index() {
        let doc = r#"{"events": [
            {"at_s": 0.0, "kind": "perturb_kmax", "scale": 1.0},
            {"at_s": 0.0, "kind": "nope"}
        ]}"#;
        let msg = parse_schedule(doc).expect_err("bad kind").to_string();
        assert!(msg.contains("event 1"), "{msg}");
    }

    #[test]
    fn unicode_and_escapes_in_strings() {
        let doc = "{\"events\": [{\"kind\": \"caf\u{e9}\\n\", \"at_s\": 0}]}";
        let msg = parse_schedule(doc).expect_err("unknown kind").to_string();
        assert!(msg.contains("unknown kind"), "{msg}");
    }
}
