//! # serve — the HTTP projection service
//!
//! Puts the modeling pipeline behind a socket: clients POST a workload
//! (by name or inline source) plus a machine name or design-space axes,
//! and get projection / explain / sweep JSON back — the same shapes (and
//! for `explain`, the same bytes) the CLI's `--json` reports print.
//!
//! Layering, bottom-up:
//!
//! * [`protocol`] — HTTP/1.1 framing and the JSON request/response types;
//! * [`middleware`] — request ids and per-request spans/counters;
//! * [`server`] — the threadpool accept loop, routing, and handlers over
//!   one shared [`crate::ArtifactStore`] (single-flight deduped, so a
//!   thundering herd on a cold workload builds its model exactly once).

pub mod middleware;
pub mod protocol;
pub mod server;

pub use protocol::{
    AxisSpec, ErrorBody, HealthBody, ProjectResponse, ProjectUnit, SweepPointBody, SweepResponse, WorkloadRequest,
};
pub use server::{render_prometheus, RunningServer, ServeConfig, Server, MAX_SWEEP_POINTS};
