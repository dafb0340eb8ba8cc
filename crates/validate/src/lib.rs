//! Differential validation of the analytic model against executed oracles.
//!
//! The paper's central claim is that the statically-built Bayesian
//! Execution Tree predicts dynamic execution without running the target.
//! This crate continuously *checks* that claim against the two independent
//! oracles that already exist in-tree:
//!
//! 1. the minilang interpreter/VM (`xflow-minilang`), which yields the
//!    *true* per-statement visit counts and branch outcomes for a given
//!    input and RNG seed, and
//! 2. the execution-driven cost simulator (`xflow-sim`), which replays
//!    every dynamic operation through a cache hierarchy and issue model
//!    for a ground-truth time.
//!
//! [`check`] holds one model to both oracles run with the seed the
//! profiled run used, so the BET's analytic ENR must match the executed
//! visit counts *exactly* (up to f64 round-off; see [`ValidationConfig`]),
//! and the projected per-block times are compared against the simulated
//! times with a documented tolerance — the Kerncraft discipline (analytic
//! predictions validated against measured runs) applied to this model.
//! The check builds no model and runs no simulation: `xflow validate`
//! hands it the model and the simulation its `Session` serves
//! (`Session::validate`), and the fuzzer the artifacts it already built.
//!
//! On top of the validator, [`gen`] provides a deterministic (seeded, no
//! wall-clock) random minilang program generator and [`fuzz`] a driver
//! that pushes generated programs through parse → translate → BET →
//! projection hunting for panics and invariant violations, shrinking any
//! failure to a minimal reproducer.

pub mod fuzz;
pub mod gen;
pub mod invariants;
pub mod jsonfmt;
pub mod report;

pub use fuzz::{run_fuzz, FuzzConfig, FuzzFailure, FuzzSummary};
pub use gen::{generate, render, GenConfig, GenProgram};
pub use invariants::{check_bet, check_columns, check_projection, Violation};
pub use jsonfmt::to_json;
pub use report::{check, join_blocks, profiles_agree, BlockRow, ValidationConfig, ValidationReport};
