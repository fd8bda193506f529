//! Lint rules. Each module exposes `check(...)` appending [`Finding`]s;
//! suppression and sorting happen centrally in [`crate::run`].

pub mod lock_across_call;
pub mod locks;
pub mod obs_schema;
