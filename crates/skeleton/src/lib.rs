//! # xflow-skeleton — the code-skeleton workload modeling language
//!
//! This crate implements the SKOPE-style *code skeleton* front-end of the
//! xflow framework (IPDPS'14, "Analytically Modeling Application Execution
//! for Software-Hardware Co-Design").
//!
//! A code skeleton preserves the control flow of an application — functions,
//! loops, branches — but replaces straight-line instruction sequences with
//! performance characteristics: floating/fixed point operation counts,
//! loads/stores, and element sizes. Data-dependent control flow (uncertain
//! loop bounds, branch outcomes) is annotated with statistics obtained from
//! one profiled run on a *local* machine; the resulting skeleton is
//! hardware-independent and can be analyzed against any hardware model.
//!
//! A parsed skeleton [`Program`] is the paper's **Block Skeleton Tree
//! (BST)**: every statement carries a stable [`StmtId`] and encapsulating
//! statements own their children. The input-dependent execution model (the
//! Bayesian Execution Tree) is built from the BST by the `xflow-bet` crate.
//!
//! ## Quick example
//!
//! ```
//! let src = r#"
//! func main() {
//!     let n = N
//!     @kernel: loop i = 0 .. n {
//!         comp { flops: 4, loads: 2, stores: 1 }
//!         if prob(0.125) { call fixup(i) }
//!     }
//! }
//! func fixup(i) {
//!     comp { flops: 16, loads: 4 }
//! }
//! "#;
//! let prog = xflow_skeleton::parse(src).unwrap();
//! assert!(xflow_skeleton::validate(&prog).is_empty());
//! assert_eq!(prog.source_statement_count(), 6);
//! ```

pub mod ast;
pub mod count;
pub mod error;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod validate;

pub use ast::{Block, BranchArm, Cond, FuncId, Function, OpStats, Program, Stmt, StmtId, StmtKind};
pub use count::{static_counts, StaticCounts};
pub use error::{EvalError, ParseError, Span, ValidationError};
pub use expr::{env_from, BinOp, CmpOp, Env, Expr, Value};
pub use parser::parse;
pub use printer::print;
pub use validate::validate;

/// Wire-format version of this crate's serializable artifacts
/// ([`Program`], [`Expr`], and friends).
///
/// Bump whenever a serialized layout changes shape; content-addressed caches
/// fold this into their keys so stale artifacts are never deserialized.
pub fn schema_version() -> u32 {
    1
}
