//! The run-time vocabulary both execution engines share: inputs, the
//! profile a run collects, the [`Tracer`] event hooks, execution
//! [`Limits`], [`RuntimeError`], and the `rnd()` seed — plus the
//! crate-internal value, array and generator types.
//!
//! The production engine is the fused bytecode VM ([`crate::vm`]); the
//! tree-walking interpreter ([`crate::reference`]) is the oracle it is
//! checked against. Both fill the same [`Profile`] and emit the same
//! [`Tracer`] stream, bit for bit.
//!
//! Operation accounting rules (the translator's static counts mirror these):
//! arithmetic in *value* position counts as flops (divides also count as
//! divs), arithmetic in *index/bound* position counts as iops, array element
//! reads/writes count as loads/stores (scalars live in registers — the paper
//! explicitly does not model stack traffic), comparisons count as one flop,
//! logical connectives as one iop, and `abs`/`min`/`max`/`floor` as one flop.
//! `exp`/`log`/`sqrt`/`sin`/`cos`/`pow`/`rnd` are opaque library calls.

use crate::ast::MStmtId;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

/// Named scalar inputs for a run (consumed by `input("name", default)`).
///
/// Backed by a `BTreeMap` so iteration — and everything derived from it:
/// cache keys, environment seeding, serialized form — is deterministic
/// (sorted by input name) regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InputSpec(BTreeMap<String, f64>);

impl InputSpec {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(name, value)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        Self(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Set one input.
    pub fn set(&mut self, name: &str, value: f64) -> &mut Self {
        self.0.insert(name.to_string(), value);
        self
    }

    /// Fetch an input value, falling back to the program's default.
    pub fn get_or(&self, name: &str, default: f64) -> f64 {
        self.0.get(name).copied().unwrap_or(default)
    }

    /// Iterate over explicitly set inputs, in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of explicitly set inputs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no inputs are explicitly set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Canonical `name=bits` rendering used for content-addressed cache
    /// keys: sorted by name, values spelled as exact `f64::to_bits` so two
    /// specs collide exactly when every binding is bit-identical.
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.iter() {
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_bits().to_string());
            out.push(';');
        }
        out
    }
}

/// Receives fine-grained execution events. All methods have no-op defaults
/// so profiling-only runs pay nothing for unused hooks.
pub trait Tracer {
    /// Arithmetic retired by `stmt`: flops/iops/divs (divs ⊂ flops).
    fn ops(&mut self, _stmt: MStmtId, _flops: u32, _iops: u32, _divs: u32) {}
    /// 8-byte load from `addr`.
    fn load(&mut self, _stmt: MStmtId, _addr: u64) {}
    /// 8-byte store to `addr`.
    fn store(&mut self, _stmt: MStmtId, _addr: u64) {}
    /// Opaque library call with its (first) scalar argument — the argument
    /// lets cost models reproduce input-dependent instruction counts
    /// (range-reduction iterations etc., paper Section IV-C).
    fn lib_call(&mut self, _stmt: MStmtId, _name: &'static str, _arg: f64) {}
}

/// A tracer that ignores everything (profiling-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {}

/// Dynamic operation counts attributed to one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    pub flops: u64,
    pub iops: u64,
    pub divs: u64,
    pub loads: u64,
    pub stores: u64,
}

impl OpCounts {
    /// Total dynamic operations.
    pub fn total(&self) -> u64 {
        self.flops + self.iops + self.loads + self.stores
    }
}

/// Outcome statistics of one `if` statement.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchStats {
    /// Times each arm's condition was the first to hold.
    pub arm_hits: Vec<u64>,
    /// Times all conditions failed (else taken or fall-through).
    pub else_hits: u64,
}

impl BranchStats {
    /// Total evaluations of the branch.
    pub fn evals(&self) -> u64 {
        self.arm_hits.iter().sum::<u64>() + self.else_hits
    }

    /// Empirical probability that arm `i` is taken.
    pub fn arm_prob(&self, i: usize) -> f64 {
        let n = self.evals();
        if n == 0 {
            0.0
        } else {
            self.arm_hits.get(i).copied().unwrap_or(0) as f64 / n as f64
        }
    }
}

/// Trip statistics of one loop statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopStats {
    /// Times the loop statement was entered.
    pub entries: u64,
    /// Total body iterations across all entries.
    pub iterations: u64,
    /// Iterations ended by `break`.
    pub breaks: u64,
    /// Iterations ended by `continue`.
    pub continues: u64,
}

impl LoopStats {
    /// Mean iterations per entry.
    pub fn avg_trips(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.iterations as f64 / self.entries as f64
        }
    }

    /// Per-iteration break probability.
    pub fn break_prob(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.breaks as f64 / self.iterations as f64
        }
    }

    /// Per-iteration continue probability.
    pub fn continue_prob(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.continues as f64 / self.iterations as f64
        }
    }
}

/// Everything one profiled run learns about the program's dynamic behavior.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Profile {
    /// Branch outcome statistics per `if` statement.
    pub branches: HashMap<MStmtId, BranchStats>,
    /// Trip statistics per `for`/`while` statement.
    pub loops: HashMap<MStmtId, LoopStats>,
    /// Dynamic op counts per statement.
    pub stmt_ops: HashMap<MStmtId, OpCounts>,
    /// Execution counts per statement.
    pub stmt_exec: HashMap<MStmtId, u64>,
    /// Library call counts by function name.
    pub lib_calls: HashMap<String, u64>,
    /// Values printed by `print(...)`, for functional assertions in tests.
    pub printed: Vec<f64>,
}

impl Profile {
    /// Total dynamic operations across all statements.
    pub fn total_ops(&self) -> u64 {
        self.stmt_ops.values().map(OpCounts::total).sum()
    }
}

/// Runtime failure of a run, identical on both engines.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    UnboundVariable(String),
    NotAnArray(String),
    NotAScalar(String),
    IndexOutOfBounds { array: String, index: f64, len: usize },
    UnknownFunction(String),
    ArityMismatch { func: String, expected: usize, got: usize },
    NegativeArrayLength { array: String, len: f64 },
    ArrayTooLarge { array: String, len: f64 },
    StepLimitExceeded(u64),
    RecursionLimitExceeded(u32),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            RuntimeError::NotAnArray(v) => write!(f, "`{v}` is not an array"),
            RuntimeError::NotAScalar(v) => write!(f, "`{v}` is an array, expected a scalar"),
            RuntimeError::IndexOutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for `{array}` (len {len})")
            }
            RuntimeError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            RuntimeError::ArityMismatch { func, expected, got } => {
                write!(f, "`{func}` takes {expected} argument(s), got {got}")
            }
            RuntimeError::NegativeArrayLength { array, len } => {
                write!(f, "array `{array}` created with negative length {len}")
            }
            RuntimeError::ArrayTooLarge { array, len } => {
                write!(f, "array `{array}` of length {len} exceeds the run's budget of {MAX_ARRAY_ELEMENTS} elements")
            }
            RuntimeError::StepLimitExceeded(n) => write!(f, "execution exceeded the step limit of {n}"),
            RuntimeError::RecursionLimitExceeded(n) => write!(f, "recursion deeper than {n} frames"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A runtime value: scalar or shared array (shared with the bytecode VM).
#[derive(Debug, Clone)]
pub(crate) enum Val {
    Num(f64),
    Arr(ArrRef),
}

/// Shared array with a flat base address for the memory trace.
#[derive(Debug, Clone)]
pub(crate) struct ArrRef {
    pub(crate) data: Rc<RefCell<Vec<f64>>>,
    pub(crate) base: u64,
}

/// Most array elements one run may allocate, summed over every `zeros`
/// it executes: 2^27 elements, 1 GiB of `f64`s. The largest paper
/// workload allocates about 1.1M in total. Checked before allocating, so
/// a program computing a huge length fails with
/// [`RuntimeError::ArrayTooLarge`] instead of aborting the process.
pub const MAX_ARRAY_ELEMENTS: u64 = 1 << 27;

/// The array allocator both engines share: it hands out the flat base
/// addresses of the memory trace and enforces [`MAX_ARRAY_ELEMENTS`], so
/// the engines agree on every address and every allocation error.
pub(crate) struct Heap {
    next_base: u64,
    elements: u64,
}

impl Default for Heap {
    fn default() -> Self {
        // leave page zero unused
        Heap { next_base: 0x1000, elements: 0 }
    }
}

impl Heap {
    /// Allocate the zero-filled array `name = zeros(len)`.
    pub(crate) fn alloc(&mut self, name: &str, len: f64) -> Result<ArrRef, RuntimeError> {
        if len < 0.0 {
            return Err(RuntimeError::NegativeArrayLength { array: name.to_string(), len });
        }
        // saturating: `inf` and lengths past `usize` land on the cap check
        let n = len as usize as u64;
        if n > MAX_ARRAY_ELEMENTS - self.elements {
            return Err(RuntimeError::ArrayTooLarge { array: name.to_string(), len });
        }
        self.elements += n;
        let base = self.next_base;
        self.next_base += n * 8 + 64; // pad so arrays don't share lines
        Ok(ArrRef { data: Rc::new(RefCell::new(vec![0.0; n as usize])), base })
    }
}

/// Deterministic splitmix64 generator backing `rnd()` (shared with the VM
/// so both engines draw identical sequences).
#[derive(Debug, Clone)]
pub(crate) struct Lcg(pub(crate) u64);

impl Lcg {
    pub(crate) fn next_f64(&mut self) -> f64 {
        // splitmix64 step — deterministic across platforms.
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Configuration limits for a run.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum dynamic statements executed (runaway guard).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Self { max_steps: 2_000_000_000, max_depth: 256 }
    }
}

/// Seed [`crate::profile`] runs with, and the one every run takes when
/// its caller has no seed of its own.
///
/// Both execution engines draw `rnd()` values from the same splitmix64
/// stream, so a profiled run, a VM run, and a simulated run with equal
/// seeds observe identical branch outcomes and visit counts — the property
/// the differential validator (`xflow-validate`) relies on.
pub const DEFAULT_SEED: u64 = 0x5EED_1234_ABCD_0001;
