//! Static verification for the hybrid SpMV workspace.
//!
//! Three pillars, all dependency-free and deterministic:
//!
//! 1. **Comm-plan verification** — re-exported from `spmv-core`'s
//!    [`verify`](spmv_core::verify) module (it lives there so
//!    `RankEngine` can run it at construction): given every rank's plan,
//!    prove the global message graph is matched, uniquely tagged, owned,
//!    acyclic, and deadlock-free, or return typed [`PlanViolation`]s.
//! 2. **Interleaving exploration** — [`explore`] is a loom-style
//!    model checker over the engine's yield points; [`script`] builds
//!    model programs by lowering the step table each kernel mode's engine
//!    runs over its halo-exchange schedule (flat or node-aware), so exhaustive
//!    search proves deadlock-freedom and bit-identical results across
//!    every interleaving on small worlds.
//! 3. **Workspace lints** — [`lint`] backs the `spmv-lint` binary:
//!    SAFETY-comment coverage and unwrap burndown in hot crates.

pub mod explore;
pub mod lint;
pub mod script;

pub use explore::{ExploreError, ExploreReport, Explorer, MOp, ModelWorld, Program};
pub use lint::{run_lints, Finding, ALL_LINTS};
pub use script::{assemble_y, build_world};
pub use spmv_core::verify::{
    verify_distributed, verify_flat, verify_node_aware, PlanSummary, PlanViolation,
};
