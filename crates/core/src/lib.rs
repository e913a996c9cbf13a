//! # ecn-delay-core — the experiment layer
//!
//! One module per artifact of the paper's evaluation, indexed under
//! [`experiments`]. Every runner is a pure function from a config to a
//! serializable result struct; `bench::figures::FIGURES` is the table that
//! prints each one's series and dumps its JSON (`figs <id>`), and the test
//! suite asserts the qualitative claims on reduced configurations.

#![deny(missing_docs)]

pub mod experiments;
pub mod json;
pub mod output;
pub mod scenarios;

pub use json::{Json, ToJson};
pub use output::{write_json, write_series_csv};
