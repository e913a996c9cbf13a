//! The JSON reader under the name store clients import: records come back
//! from the store as text, and `obs::json` parses them.

pub use obs::json::{parse, Value};
