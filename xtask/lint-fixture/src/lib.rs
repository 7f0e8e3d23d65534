//! One use of every type and method the root `clippy.toml` disallows.

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

/// Reads both clocks, compares and sorts floats, and builds both hash
/// containers.
pub fn every_rule(keys: &mut [f64]) -> (HashMap<u8, u8>, HashSet<u8>, Option<SystemTime>) {
    let _ = Instant::now();
    let _ = SystemTime::now();
    let _ = keys[0].partial_cmp(&keys[1]);
    keys.sort_unstable_by(f64::total_cmp);
    (HashMap::new(), HashSet::new(), None)
}
