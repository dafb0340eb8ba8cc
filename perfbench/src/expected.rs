//! The expected-output file (`expected.tsv`) every op is checked against,
//! and the accuracy figures derived from a corpus.
//!
//! One `key<TAB>value` line per fact; keys are tab-separated tuples:
//!
//! | key | value |
//! |---|---|
//! | `total <prog> <machine>` | projected total seconds, `f64` bits in hex |
//! | `rank10 <prog> <machine>` | the top-10 unit ranking, comma-separated unit ids |
//! | `cycles <prog> <machine>` | simulated `total_cycles`, `f64` bits in hex |
//! | `corpus <prog>` | FNV-1a digest of the `build_corpus` JSON over [bgq, xeon] |
//! | `acc <prog> <machine>` | model total relative error and hot-spot q10, `f64` bits |
//! | `body <request>` | FNV-1a digest of an HTTP response body |
//!
//! `<prog>` is [`crate::programs::Prog::id`]; `<machine>` a registry name.
//! The file is written by `--build-expected` (see `reference.rs`).

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use xflow::CorpusRecord;

pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn expected_path() -> PathBuf {
    bench_dir().join("expected.tsv")
}

pub struct Expected {
    map: HashMap<String, String>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut map = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (key, value) = line.rsplit_once('\t').ok_or_else(|| format!("malformed line: {line}"))?;
            map.insert(key.to_string(), value.to_string());
        }
        Ok(Expected { map })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// `f64` stored as hex bits under `kind prog machine`.
    pub fn bits(&self, kind: &str, prog: &str, machine: &str) -> Option<u64> {
        u64::from_str_radix(self.get(&format!("{kind}\t{prog}\t{machine}"))?, 16).ok()
    }

    pub fn rank10(&self, prog: &str, machine: &str) -> Option<&str> {
        self.get(&format!("rank10\t{prog}\t{machine}"))
    }

    pub fn corpus(&self, prog: &str) -> Option<&str> {
        self.get(&format!("corpus\t{prog}"))
    }

    pub fn body(&self, request: &str) -> Option<&str> {
        self.get(&format!("body\t{request}"))
    }

    /// `(model_total_rel_err, hotspot_q10)` of one combo.
    pub fn accuracy(&self, prog: &str, machine: &str) -> Option<(f64, f64)> {
        let (a, b) = self.get(&format!("acc\t{prog}\t{machine}"))?.split_once(',')?;
        Some((f64::from_bits(u64::from_str_radix(a, 16).ok()?), f64::from_bits(u64::from_str_radix(b, 16).ok()?)))
    }
}

/// Writer side: accumulates lines in key order.
#[derive(Default)]
pub struct ExpectedWriter {
    lines: BTreeMap<String, String>,
}

impl ExpectedWriter {
    pub fn put(&mut self, key: String, value: String) {
        self.lines.insert(key, value);
    }

    pub fn put_bits(&mut self, kind: &str, prog: &str, machine: &str, v: f64) {
        self.put(format!("{kind}\t{prog}\t{machine}"), format!("{:016x}", v.to_bits()));
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("# expected outputs of the xflow benchmark; regenerate with --build-expected\n");
        for (k, v) in &self.lines {
            out.push_str(k);
            out.push('\t');
            out.push_str(v);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Registry short name of a machine model name (`BG/Q` → `bgq`).
pub fn short_machine(model_name: &str) -> String {
    match model_name {
        "BG/Q" => "bgq".to_string(),
        "Xeon" => "xeon".to_string(),
        other => other.to_lowercase(),
    }
}

/// Per-machine `(model_total_rel_err, hotspot_q10)` of one program's corpus
/// records:
/// * total relative error = |Σ analytic − Σ simulated| ÷ Σ simulated;
/// * q10 = simulated coverage of the model's top-10 blocks ÷ simulated
///   coverage of the simulator's own top-10 (the paper's hot-spot quality).
pub fn corpus_accuracy(records: &[CorpusRecord]) -> BTreeMap<String, (f64, f64)> {
    let mut by_machine: BTreeMap<String, Vec<&CorpusRecord>> = BTreeMap::new();
    for r in records {
        by_machine.entry(short_machine(&r.machine)).or_default().push(r);
    }
    by_machine
        .into_iter()
        .map(|(m, recs)| {
            let analytic: f64 = recs.iter().map(|r| r.analytic_seconds).sum();
            let simulated: f64 = recs.iter().map(|r| r.simulated_seconds).sum();
            let rel = if simulated > 0.0 { (analytic - simulated).abs() / simulated } else { 0.0 };
            let top_cov = |key: fn(&CorpusRecord) -> f64| -> f64 {
                let mut v = recs.clone();
                v.sort_by(|a, b| key(b).total_cmp(&key(a)).then(a.stmt.cmp(&b.stmt)));
                v.iter().take(10).map(|r| r.sim_share).sum()
            };
            let best = top_cov(|r| r.simulated_seconds);
            let q10 = if best > 0.0 { top_cov(|r| r.analytic_seconds) / best } else { 1.0 };
            (m, (rel, q10))
        })
        .collect()
}

/// Accumulates the accuracy of the distinct combos an op stream touched.
#[derive(Default)]
pub struct AccuracyTally {
    seen: BTreeMap<String, (f64, f64)>,
}

impl AccuracyTally {
    pub fn add(&mut self, combo: String, acc: (f64, f64)) {
        self.seen.insert(combo, acc);
    }

    /// Mean `(rel_err, q10)` over the combos, in key order (deterministic).
    pub fn mean(&self) -> (f64, f64) {
        let n = self.seen.len().max(1) as f64;
        let (a, b) = self.seen.values().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
        (a / n, b / n)
    }
}
