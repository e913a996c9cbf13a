//! The workspace structured-error type.
//!
//! Simulator entry points that can be handed bad input (configs, topologies,
//! flow sets, fault specs) validate at construction and return a
//! [`SimError`] with enough context to identify the failing field. The
//! numeric core's divergence watchdog reports runaway integrations as
//! [`SimError::Divergence`] carrying the time, state norm and last step, so
//! a sweep driver can log the failed point and continue with the rest of
//! the sweep instead of aborting the process.

use crate::spec::{self, as_index, get_num, get_str};
use obs::json::{write_f64, write_str, Value};
use std::fmt;

/// Convenience alias for results carrying a [`SimError`].
pub type SimResult<T> = Result<T, SimError>;

/// Structured simulator error.
///
/// `Display` renders a single human-readable line that always contains the
/// `detail` text, so panicking compatibility wrappers (`Topology::new`, a
/// model's `simulate`) preserve the exact messages existing
/// `#[should_panic]` tests match on.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration value failed validation at construction time.
    InvalidConfig {
        /// Which component rejected the configuration (e.g. `"EngineConfig"`).
        context: String,
        /// What exactly was wrong, naming the offending field/value.
        detail: String,
    },
    /// A topology failed a sanity check (endpoints, capacities, routes).
    InvalidTopology {
        /// Which builder or check rejected the topology.
        context: String,
        /// What exactly was wrong.
        detail: String,
    },
    /// A flow registration was unusable (bad endpoints, no route).
    InvalidFlow {
        /// Which check rejected the flow.
        context: String,
        /// What exactly was wrong.
        detail: String,
    },
    /// A fault-spec document (`--faults <spec.json>`) failed to parse.
    InvalidSpec {
        /// Parse failure description, including the byte offset.
        detail: String,
    },
    /// The divergence watchdog tripped: NaN/Inf or exploding state.
    Divergence {
        /// Which integrator detected the divergence.
        context: String,
        /// Simulated time at which the watchdog tripped.
        t_s: f64,
        /// Max-norm of the state vector (NaN if a component was non-finite).
        state_norm: f64,
        /// Size of the last attempted step in seconds.
        last_step_s: f64,
        /// Index of the failing step.
        step: u64,
    },
    /// A sweep job panicked; the panic was caught and converted into this
    /// per-slot error instead of aborting the sweep.
    JobPanicked {
        /// Index of the job within its sweep.
        job_index: usize,
        /// The panic message (payload rendered to text).
        payload: String,
    },
}

impl SimError {
    /// Shorthand for [`SimError::InvalidConfig`].
    pub fn config(context: impl Into<String>, detail: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// Shorthand for [`SimError::InvalidTopology`].
    pub fn topology(context: impl Into<String>, detail: impl Into<String>) -> Self {
        SimError::InvalidTopology {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// Shorthand for [`SimError::InvalidFlow`].
    pub fn flow(context: impl Into<String>, detail: impl Into<String>) -> Self {
        SimError::InvalidFlow {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// Shorthand for [`SimError::InvalidSpec`].
    pub fn spec(detail: impl Into<String>) -> Self {
        SimError::InvalidSpec {
            detail: detail.into(),
        }
    }

    /// Shorthand for [`SimError::JobPanicked`].
    pub fn job_panicked(job_index: usize, payload: impl Into<String>) -> Self {
        SimError::JobPanicked {
            job_index,
            payload: payload.into(),
        }
    }

    /// True for the watchdog variant — sweep drivers use this to separate
    /// "bad input" (a bug in the sweep) from "this point diverged" (a
    /// legitimate result to record).
    pub fn is_divergence(&self) -> bool {
        matches!(self, SimError::Divergence { .. })
    }

    /// Stable machine-readable tag for each variant (the JSON `"kind"`).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::InvalidConfig { .. } => "invalid_config",
            SimError::InvalidTopology { .. } => "invalid_topology",
            SimError::InvalidFlow { .. } => "invalid_flow",
            SimError::InvalidSpec { .. } => "invalid_spec",
            SimError::Divergence { .. } => "divergence",
            SimError::JobPanicked { .. } => "job_panicked",
        }
    }

    /// Render as a single-line JSON object (`{"kind": ..., ...fields}`),
    /// the durable form used by quarantine notes and failed-cell records.
    /// [`SimError::from_json`] inverts it exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"kind\": ");
        write_str(&mut out, self.kind());
        match self {
            SimError::InvalidConfig { context, detail }
            | SimError::InvalidTopology { context, detail }
            | SimError::InvalidFlow { context, detail } => {
                write_str(key(&mut out, "context"), context);
                write_str(key(&mut out, "detail"), detail);
            }
            SimError::InvalidSpec { detail } => {
                write_str(key(&mut out, "detail"), detail);
            }
            SimError::Divergence {
                context,
                t_s,
                state_norm,
                last_step_s,
                step,
            } => {
                write_str(key(&mut out, "context"), context);
                write_f64(key(&mut out, "t_s"), *t_s);
                write_f64(key(&mut out, "state_norm"), *state_norm);
                write_f64(key(&mut out, "last_step_s"), *last_step_s);
                key(&mut out, "step").push_str(&step.to_string());
            }
            SimError::JobPanicked { job_index, payload } => {
                key(&mut out, "job_index").push_str(&job_index.to_string());
                write_str(key(&mut out, "payload"), payload);
            }
        }
        out.push('}');
        out
    }

    /// Parse the [`SimError::to_json`] form back. Unknown kinds and missing
    /// fields come back as [`SimError::InvalidSpec`] describing the defect.
    pub fn from_json(text: &str) -> SimResult<SimError> {
        let doc = spec::parse_document(text)?;
        let obj = spec::as_object(&doc, "error record")?;
        let kind = get_str(obj, "kind")?;
        let index = |key: &str| -> SimResult<u64> { as_index(get_num(obj, key)?, key) };
        match kind {
            "invalid_config" => Ok(SimError::config(
                get_str(obj, "context")?,
                get_str(obj, "detail")?,
            )),
            "invalid_topology" => Ok(SimError::topology(
                get_str(obj, "context")?,
                get_str(obj, "detail")?,
            )),
            "invalid_flow" => Ok(SimError::flow(
                get_str(obj, "context")?,
                get_str(obj, "detail")?,
            )),
            "invalid_spec" => Ok(SimError::spec(get_str(obj, "detail")?)),
            "divergence" => Ok(SimError::Divergence {
                context: get_str(obj, "context")?.to_string(),
                t_s: num_or_nan(obj, "t_s")?,
                state_norm: num_or_nan(obj, "state_norm")?,
                last_step_s: num_or_nan(obj, "last_step_s")?,
                step: index("step")?,
            }),
            "job_panicked" => Ok(SimError::JobPanicked {
                job_index: index("job_index")? as usize,
                payload: get_str(obj, "payload")?.to_string(),
            }),
            other => Err(SimError::spec(format!("unknown error kind {other:?}"))),
        }
    }
}

/// Append `, "name": ` to a record under construction; the value goes into
/// the returned string.
fn key<'a>(out: &'a mut String, name: &str) -> &'a mut String {
    out.push_str(", \"");
    out.push_str(name);
    out.push_str("\": ");
    out
}

/// Read a float field where the emitter writes non-finite values as
/// `null` (read back as NaN).
fn num_or_nan(obj: &[(String, Value)], key: &str) -> SimResult<f64> {
    match spec::get(obj, key) {
        Some(Value::Null) => Ok(f64::NAN),
        _ => get_num(obj, key),
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { context, detail } => {
                write!(f, "invalid config ({context}): {detail}")
            }
            SimError::InvalidTopology { context, detail } => {
                write!(f, "invalid topology ({context}): {detail}")
            }
            SimError::InvalidFlow { context, detail } => {
                write!(f, "invalid flow ({context}): {detail}")
            }
            SimError::InvalidSpec { detail } => write!(f, "invalid fault spec: {detail}"),
            SimError::Divergence {
                context,
                t_s,
                state_norm,
                last_step_s,
                step,
            } => write!(
                f,
                "numeric divergence in {context}: t={t_s:.6e} s, state norm {state_norm:.3e}, \
                 last step {last_step_s:.3e} s, step {step}"
            ),
            SimError::JobPanicked { job_index, payload } => {
                write!(f, "job {job_index} panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_detail() {
        let e = SimError::topology("Topology::new", "no route from host 0 to host 1");
        assert!(e.to_string().contains("no route"));
        let e = SimError::config("try_integrate", "step 2 exceeds smallest delay 1");
        assert!(e.to_string().contains("exceeds smallest delay"));
    }

    #[test]
    fn divergence_diagnostic_fields_rendered() {
        let e = SimError::Divergence {
            context: "dde integration".to_string(),
            t_s: 0.125,
            state_norm: 3.5e13,
            last_step_s: 1e-5,
            step: 42,
        };
        let s = e.to_string();
        assert!(s.contains("dde integration"), "{s}");
        assert!(s.contains("1.250000e-1"), "{s}");
        assert!(s.contains("3.500e13"), "{s}");
        assert!(s.contains("step 42"), "{s}");
        assert!(e.is_divergence());
        assert!(!SimError::spec("x").is_divergence());
    }

    #[test]
    fn job_panicked_displays_its_index_and_payload() {
        let p = SimError::job_panicked(3, "index out of bounds");
        assert_eq!(p.to_string(), "job 3 panicked: index out of bounds");
        assert!(!p.is_divergence());
    }

    #[test]
    fn json_round_trips_every_variant() {
        let cases = vec![
            SimError::config("EngineConfig", "bandwidth_bps must be > 0"),
            SimError::topology("Topology::new", "no route \"a\" -> \"b\"\nline 2"),
            SimError::flow("add_flow", "endpoints\tmust differ"),
            SimError::spec("unknown key \"bogus\" at byte 17"),
            SimError::Divergence {
                context: "dde integration".to_string(),
                t_s: 0.125,
                state_norm: 3.5e13,
                last_step_s: 1e-5,
                step: 42,
            },
            SimError::job_panicked(0, "panicked with \\backslash\\ and \"quotes\""),
            SimError::job_panicked(2, "esc \x1b[31m \"q\" back\\slash\nline 2 \u{1f600}"),
        ];
        for e in cases {
            let j = e.to_json();
            let back = SimError::from_json(&j).expect(&j);
            assert_eq!(back, e, "{j}");
            // Idempotent: re-serializing the parsed form is a fixpoint.
            assert_eq!(back.to_json(), j);
        }
        // A control character is escaped, not blanked.
        let j = SimError::job_panicked(0, "\x1b").to_json();
        assert!(j.ends_with(r#""payload": "\u001b"}"#), "{j}");
    }

    #[test]
    fn json_non_finite_norm_round_trips_as_null() {
        let e = SimError::Divergence {
            context: "pi".to_string(),
            t_s: 1.0,
            state_norm: f64::NAN,
            last_step_s: 1e-6,
            step: 9,
        };
        let j = e.to_json();
        assert!(j.contains("\"state_norm\": null"), "{j}");
        match SimError::from_json(&j).expect("parses") {
            SimError::Divergence { state_norm, .. } => assert!(state_norm.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn json_rejects_malformed_records() {
        for doc in [
            "not json",
            "{\"kind\": \"mystery\"}",
            "{\"kind\": \"job_panicked\", \"job_index\": 1.5, \"payload\": \"x\"}",
            "{\"kind\": \"job_panicked\", \"payload\": \"x\"}",
            "{\"kind\": \"job_panicked\", \"job_index\": 2}",
            "[]",
        ] {
            assert!(SimError::from_json(doc).is_err(), "{doc}");
        }
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let a = SimError::flow("add_flow", "flow endpoints must differ");
        assert_eq!(a.clone(), a);
        assert_ne!(a, SimError::flow("add_flow", "other"));
    }
}
