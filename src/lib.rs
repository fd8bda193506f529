//! Umbrella crate for the Clouds reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency root. See the individual crates for real APIs.
#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

pub use clouds;
pub use clouds_chaos as chaos;
pub use clouds_codec as codec;
pub use clouds_consistency as consistency;
pub use clouds_dsm as dsm;
pub use clouds_naming as naming;
pub use clouds_pet as pet;
pub use clouds_ra as ra;
pub use clouds_ratp as ratp;
pub use clouds_simnet as simnet;
